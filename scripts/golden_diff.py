#!/usr/bin/env python3
"""List the stats that differ between two directories of golden dumps.

Usage: golden_diff.py [--only SUFFIX,...] OLD_DIR NEW_DIR

Compares every *.json StatsRegistry dump (tests/golden/ layout: one
object of groups, each an object of stats) present in either
directory. The first line is a one-line summary; after a blank line
comes one line per stat whose value differs:

    tenants2_NeuMMU.json: golden.sim.eventsExecuted 15065 -> 15063

so the output can serve as the message of a golden-regeneration
commit. Stats or files present on one side only are listed as
"added" or "removed" and make the script exit 1; value changes alone
exit 0.

--only SUFFIX,... names the stats a change is allowed to move. A stat
matches a suffix when its dotted name ends with it at a dot boundary
(mmu.requests matches golden.mmu.requests, not golden.ptsmmu.requests);
shell wildcards work inside a suffix (router.client*.requests). Any
value change outside the list is also printed after an "outside
--only" line, and makes the script exit 1.

Typical use, after an intentional model change:

    cp -r tests/golden /tmp/golden_old
    ./build/test_golden_stats --update-golden
    python3 scripts/golden_diff.py /tmp/golden_old tests/golden

or, when the change may move only rejection counters:

    python3 scripts/golden_diff.py \
        --only mmu.requests,mmu.blockedIssues,tlb.misses \
        /tmp/golden_old tests/golden
"""

import fnmatch
import json
import os
import sys


def flatten(obj, prefix=""):
    """Map dotted key -> leaf value for a nested JSON object."""
    out = {}
    for key, value in obj.items():
        name = prefix + key
        if isinstance(value, dict):
            out.update(flatten(value, name + "."))
        else:
            out[name] = value
    return out


def load_dir(path):
    """Map file name -> flattened stats for every *.json in @p path."""
    dumps = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                dumps[name] = flatten(json.load(f))
    return dumps


def show(value):
    return json.dumps(value)


def allowed(key, suffixes):
    """True when @p key ends with one of @p suffixes at a dot."""
    return any(fnmatch.fnmatchcase(key, s) or
               fnmatch.fnmatchcase(key, "*." + s) for s in suffixes)


def diff(old, new, only=None):
    """Return (lines, changed files, value changes, shape changed,
    changes outside @p only)."""
    lines = []
    files = set()
    changes = 0
    shape_changed = False
    outside = []
    for name in sorted(set(old) | set(new)):
        if name not in new:
            lines.append("%s: removed" % name)
            shape_changed = True
            continue
        if name not in old:
            lines.append("%s: added" % name)
            shape_changed = True
            continue
        a, b = old[name], new[name]
        for key in sorted(set(a) | set(b)):
            if key not in b:
                lines.append("%s: %s removed" % (name, key))
                shape_changed = True
            elif key not in a:
                lines.append("%s: %s added" % (name, key))
                shape_changed = True
            elif a[key] != b[key]:
                line = "%s: %s %s -> %s" % (name, key, show(a[key]),
                                            show(b[key]))
                lines.append(line)
                files.add(name)
                changes += 1
                if only is not None and not allowed(key, only):
                    outside.append(line)
    return lines, files, changes, shape_changed, outside


def main(argv):
    args = argv[1:]
    only = None
    if args and args[0] == "--only":
        if len(args) < 2:
            args = []
        else:
            only = [s for s in args[1].split(",") if s]
            args = args[2:]
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for path in args:
        if not os.path.isdir(path):
            print("golden_diff: %s is not a directory" % path,
                  file=sys.stderr)
            return 2
    lines, files, changes, shape_changed, outside = diff(
        load_dir(args[0]), load_dir(args[1]), only)
    if not lines:
        print("Goldens unchanged")
        return 0
    summary = "Regenerate goldens: %d value%s changed in %d file%s" % (
        changes, "" if changes == 1 else "s", len(files),
        "" if len(files) == 1 else "s")
    if shape_changed:
        summary += ", stats added or removed"
    print(summary)
    print()
    for line in lines:
        print(line)
    if outside:
        print()
        print("%d value%s changed outside --only:" %
              (len(outside), "" if len(outside) == 1 else "s"))
        for line in outside:
            print(line)
    return 1 if shape_changed or outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
