#!/usr/bin/env python3
"""Compare two checkouts with alternating perfbench runs.

Usage: perf_pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs N]
                     [--seed S] [--trace 0|1] [--floor FILE]
       perf_pairs.py --control DIR --workload W [--pairs N] [--seed S]
                     [--floor FILE]

Runs `python3 perfbench/run.py --workload W --seed S --trace T` in
PARENT_DIR and in CHANGE_DIR, N times each, alternating which side
goes first from pair to pair so that drift in the machine load hits
both sides alike. Each run lasts the benchmark's own `run_seconds`.
Only the last line of each run's standard output (the result JSON) is
read. Each checkout builds its own runner on its first run.

With --trace 1 the runs are observe-mode runs, and the script prints
each side's median and quartiles and the move of the median for every
per-layer metric of CHANGE_DIR/BENCHMARK.json, in its order, with no
verdict: per-layer self times from one traced run per side sit inside
their own noise, and these rows are for reading only. The move column
reads "identical" where the runs match pair for pair (simulated
counts must). `--trace 1 --pairs 1` is the work-count check of a
host-side change: every row but the host times (prof.*, *_ms and
trace.overhead) must read "identical". The rest of this text is about the default, --trace 0.

For every end-to-end metric of the result it prints each side's
median and quartiles, the change's relative move of the median, how
many pairs the change won, and whether the pairs-rule holds: the
change is better on at least 9 of every 10 pairs (and there are at
least 10 pairs), and its median is better than the parent's by more
than the parent's interquartile range. With fewer than 10 pairs the
rule column reads "too few pairs" instead, whatever the wins: a short
sizing run cannot hold the rule, and must not read as a failed
claim. Which direction is better comes from CHANGE_DIR/BENCHMARK.json.

A second verdict checks each metric against its regression bound in
the same file: "ok" when the change's median is not worse than the
parent's by more than the bound (a fraction of the parent's median),
"worse" when it is, and "unresolved" when it is not worse but the
parent's interquartile range exceeds the bound (as a fraction of its
median) and not every change run beats every parent run, so the
runs cannot tell a move inside the bound from none.

    python3 scripts/perf_pairs.py /tmp/parent . --workload dense_grid \\
        --pairs 10 --seed 1

Exits 1 when a run reports "correct": false or fails, 0 otherwise;
the verdicts are for reading, not for the exit code. A metric whose
runs match pair for pair on both sides reads "identical" (simulated
metrics must).

Before the first run it exits 2 when a checkout's runner build tree
(.bench_build/perfbench) was configured for another checkout's
perfbench/, as a build tree copied along with a checkout (cp -r) is:
the copy would time the original's sources. Delete the named
directory and rerun.

--control DIR pairs DIR with a copy of itself in which every simulator
source file starts with a 208-byte padding function (the same code at
other addresses; the copy lives in a temporary directory) and prints
per metric the layout floor: |median difference| + the IQR of DIR's
runs, also as a share of its median. --floor FILE writes the floors
there; a default run given --floor FILE adds a column reading "inside
layout floor" when the change's median moves by no more than that
share, and "clears floor" otherwise.
"""

import argparse
import json
import os
import statistics
import shutil
import subprocess
import sys
import tempfile

MIN_PAIRS = 10
WIN_SHARE = 0.9
# 13 x 16 bytes: functions stay 16-byte aligned, but every one after
# the pad lands 16 bytes further into its 64-byte cache line.
PAD_BYTES = 208
PAD_SOURCE = ("static __attribute__((used, noinline)) void "
              "neummuLayoutPad() { asm volatile(\".skip %d, 0x90\"); }\n"
              % PAD_BYTES)


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perf_pairs: perfbench failed in %s (exit %d)" %
                 (checkout, proc.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit("perf_pairs: perfbench reported an incorrect run in %s "
                 "(%s of %s attempts failed)" %
                 (checkout, result.get("failed"), result.get("attempted")))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def load_benchmark(change_dir):
    with open(os.path.join(change_dir, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end(bench):
    """Map each end-to-end metric to (higher is better, bound)."""
    return {m["name"]: (m["better"] == "higher", m["bound"])
            for m in bench["end_to_end"]}


def verdict(parent, change, higher):
    """Return (wins, rule text) for the pairs-rule."""
    sign = 1.0 if higher else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if len(parent) < MIN_PAIRS:
        return wins, "too few pairs"
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    holds = (wins >= WIN_SHARE * len(parent) and
             sign * (c_med - p_med) > q3 - q1)
    return wins, "holds" if holds else "fails"


def bound_verdict(parent, change, higher, bound):
    sign = 1.0 if higher else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "worse"
    q1, q3 = quartiles(parent)
    if p_med:
        spread = (q3 - q1) / abs(p_med)
    else:
        spread = float("inf") if q3 > q1 else 0.0
    beats_all = (min(sign * c for c in change) >
                 max(sign * p for p in parent))
    if spread > bound and not beats_all:
        return "unresolved"
    return "ok"


def fmt(value):
    return "%.4g" % value


def side_text(values):
    q1, q3 = quartiles(values)
    return "%s [%s, %s]" % (fmt(statistics.median(values)), fmt(q1),
                            fmt(q3))


def move_text(parent, change):
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if not p_med:
        return "n/a"
    return "%+.2f%%" % (100.0 * (c_med - p_med) / p_med)


def print_rows(rows):
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w)
                        for cell, w in zip(row, widths)).rstrip())


def per_layer_rows(bench, runs):
    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]",
             "move")]
    for m in bench["per_layer"]:
        parent = [r[m["name"]] for r in runs["parent"]]
        change = [r[m["name"]] for r in runs["change"]]
        move = ("identical" if parent == change else
                move_text(parent, change))
        rows.append((m["name"], side_text(parent), side_text(change),
                     move))
    return rows


def layout_copy(checkout, tmp):
    """A copy of @checkout whose simulator sources start with a pad."""
    copy = os.path.join(tmp, "control")
    shutil.copytree(checkout, copy, symlinks=True,
                    ignore=shutil.ignore_patterns(
                        ".git", ".bench_build", ".bench_out", "build",
                        "build-*"))
    for root, _, files in os.walk(os.path.join(copy, "src")):
        for name in files:
            if name.endswith(".cc"):
                path = os.path.join(root, name)
                with open(path) as f:
                    text = f.read()
                with open(path, "w") as f:
                    f.write(PAD_SOURCE + text)
    return copy


def floor_rows(runs):
    """Per metric: (|median difference| + parent IQR, relative)."""
    rows = [("metric", "checkout median [q1, q3]",
             "padded median [q1, q3]", "floor", "floor %")]
    floors = {}
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        q1, q3 = quartiles(parent)
        p_med = statistics.median(parent)
        floor = abs(statistics.median(change) - p_med) + (q3 - q1)
        rel = floor / abs(p_med) if p_med else 0.0
        floors[name] = {"floor": floor, "relative": rel}
        rows.append((name, side_text(parent), side_text(change),
                     fmt(floor), "%.2f%%" % (100.0 * rel)))
    return rows, floors


def floor_text(parent, change, floor):
    p_med = statistics.median(parent)
    if floor is None or not p_med:
        return "-"
    move = abs(statistics.median(change) - p_med) / abs(p_med)
    return ("inside layout floor" if move <= floor["relative"]
            else "clears floor")


def end_to_end_rows(bench, runs, pairs, floors=None):
    metrics = end_to_end(bench)
    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]",
             "move", "wins", "rule", "bound")]
    if floors is not None:
        rows[0] += ("floor",)
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        higher, bound = metrics[name]
        if parent == change:
            wins_text, rule = "-", "identical"
        else:
            wins, rule = verdict(parent, change, higher)
            wins_text = "%d/%d" % (wins, pairs)
        row = (name, side_text(parent), side_text(change),
               move_text(parent, change), wins_text, rule,
               bound_verdict(parent, change, higher, bound))
        if floors is not None:
            row += ("identical" if parent == change else
                    floor_text(parent, change, floors.get(name)),)
        rows.append(row)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dirs", nargs="*", metavar="PARENT_DIR CHANGE_DIR")
    ap.add_argument("--control", metavar="DIR")
    ap.add_argument("--floor", metavar="FILE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.control:
        if args.dirs or args.trace:
            ap.error("--control takes one checkout and --trace 0")
        with tempfile.TemporaryDirectory(prefix="perf_control_") as tmp:
            copy = layout_copy(args.control, tmp)
            runs = run_pairs(args, args.control, copy)
        rows, floors = floor_rows(runs)
        print("%s seed=%d pairs=%d layout control (pad %d bytes)" %
              (args.workload, args.seed, args.pairs, PAD_BYTES))
        print_rows(rows)
        if args.floor:
            with open(args.floor, "w") as f:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "pairs": args.pairs, "metrics": floors}, f,
                          indent=1, sort_keys=True)
        return
    if len(args.dirs) != 2:
        ap.error("need PARENT_DIR and CHANGE_DIR (or --control DIR)")
    floors = None
    if args.floor:
        with open(args.floor) as f:
            floor_doc = json.load(f)
        if floor_doc["workload"] != args.workload:
            ap.error("%s holds the floor of %s, not %s" %
                     (args.floor, floor_doc["workload"], args.workload))
        floors = floor_doc["metrics"]

    bench = load_benchmark(args.dirs[1])
    runs = run_pairs(args, *args.dirs)
    print("%s seed=%d pairs=%d trace=%d" % (args.workload, args.seed,
                                            args.pairs, args.trace))
    if args.trace:
        print_rows(per_layer_rows(bench, runs))
    else:
        print_rows(end_to_end_rows(bench, runs, args.pairs, floors))


def check_build_dir(checkout):
    """Exit 2 when @checkout's runner build tree is another checkout's.

    perfbench/run.py reuses any CMakeCache.txt it finds, so a build
    tree copied along with a measured checkout (cp -r) would build
    and time the original's sources in the copy's place.
    """
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(checkout, target, "perfbench")
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        return
    want = os.path.realpath(os.path.join(checkout, "perfbench"))
    for line in lines:
        if line.startswith("neummu_perfbench_SOURCE_DIR:"):
            source = line.split("=", 1)[1]
            if os.path.realpath(source) != want:
                print("perf_pairs: %s was configured for %s, not %s; "
                      "delete %s and rerun" %
                      (build_dir, source, want, build_dir),
                      file=sys.stderr)
                sys.exit(2)


def run_pairs(args, parent_dir, change_dir):
    """Alternating runs of both sides; returns each side's results."""
    sides = {"parent": parent_dir, "change": change_dir}
    for checkout in sides.values():
        check_build_dir(checkout)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change",
                                                         "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args))
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]),
              file=sys.stderr, flush=True)
    return runs


if __name__ == "__main__":
    main()
