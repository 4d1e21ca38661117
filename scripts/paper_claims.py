#!/usr/bin/env python3
"""Run the paper-claims ledger and gate its record.

Usage: paper_claims.py [-j N] [--sweep BIN] [--record FILE]
                       [--check [--fresh FILE | --reuse FILE]
                        | --show ID | --table]

Expands every grid of scripts/paper_claims.jsonl (its header gives
the line format) into cells and reference jobs, runs the distinct jobs
as one neummu_sweep manifest on N workers, and reduces each claim once
per seed. With no mode flag it writes the record (default
scripts/paper_claims.json): per claim its value (the mean over
seeds), per-seed values, spread, paper value, tolerance, deviation
and reason.

--check exits 1 when a claim moved against the record (runs are
deterministic, so any move is a model change), when the ledger and
the record disagree on a claim's seeds, paper value, tolerance or
reason, or when either has a value outside its tolerance without a
reason (or one inside with a reason). --fresh FILE also writes the
rerun's record; --reuse FILE checks a record an earlier --fresh wrote
instead of rerunning, so scripts/check.sh checks its doctored records
without a second simulation. --show ID prints the per-cell table of
claim ID's grid, marking the cells the claim reduces with '*'.
--table prints README's "Benches -> paper figures" table.

    python3 scripts/paper_claims.py --check -j 4
    python3 scripts/paper_claims.py --show sec6c.design_space_min
"""

import argparse
import fnmatch
import itertools
import json
import os
import re
import statistics
import string
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(HERE, "paper_claims.jsonl")
REDUCERS = {
    "mean": statistics.fmean,
    "geomean": statistics.geometric_mean,
    "min": min,
    "max": max,
    "max/min": lambda values: max(values) / min(values),
}


def load_ledger():
    vars_, grids, claims, entries = {}, {}, {}, []
    with open(LEDGER) as f:
        for number, line in enumerate(f, 1):
            if not line.strip() or line.startswith("#"):
                continue
            row = json.loads(line)
            where = "%s:%d" % (LEDGER, number)
            if "vars" in row:
                vars_.update(row["vars"])
            elif "spec" in row:
                grids[row["grid"]] = row
            elif "id" in row:
                if row["grid"] not in grids:
                    sys.exit("%s: unknown grid %s" % (where, row["grid"]))
                if row.get("paper") is not None and "tol" not in row:
                    sys.exit("%s: a paper value needs a tol" % where)
                claims[row["id"]] = row
                entries.append(row)
            elif "bench" in row:
                entries.append(row)
            else:
                sys.exit("%s: unknown line kind" % where)
    return vars_, grids, claims, entries


def expand(grid, vars_, seed):
    """The grid's cells at @seed: (coordinates, job line, ref line)."""
    specs = grid["spec"] if isinstance(grid["spec"], list) else [
        grid["spec"]]
    cells = []
    for spec in specs:
        spec = string.Template(spec).substitute(vars_, seed=seed)
        clauses = [c.split("=", 1) for c in spec.split(";") if c]
        for values in itertools.product(
                *[value.split("|") for _, value in clauses]):
            coords = {key: value for (key, _), value in
                      zip(clauses, values)}
            line = ";".join("%s=%s" % kv for kv in coords.items())
            ref = line
            for pattern, repl in grid["ref"].items():
                ref = re.sub(pattern, repl, ref)
            cells.append((coords, line, ref))
    return cells


def run_jobs(lines, sweep, jobs):
    """Run each distinct job line once; returns line -> sweep job."""
    ids = {line: "c%04d" % i for i, line in enumerate(sorted(set(lines)))}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "ledger.jsonl")
        out = os.path.join(tmp, "ledger.json")
        with open(manifest, "w") as f:
            for line, job_id in ids.items():
                clauses = [c.split("=", 1) for c in line.split(";")]
                f.write(json.dumps({
                    "id": job_id,
                    "set": {k: v for k, v in clauses if k != "workloads"},
                    "workloads": [w for k, v in clauses
                                  if k == "workloads"
                                  for w in v.split("+")]}) + "\n")
        proc = subprocess.run(
            [sweep, "--manifest=" + manifest, "--jobs=%d" % jobs,
             "--timing=0", "--quiet=1", "--json=" + out],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("neummu_sweep failed (exit %d): %s" %
                     (proc.returncode, proc.stderr.strip()[-800:]))
        with open(out) as f:
            by_id = {job["id"]: job for job in json.load(f)["jobs"]}
    for line, job_id in ids.items():
        if not by_id[job_id]["ok"]:
            sys.exit("ledger job failed: %s: %s" %
                     (line, by_id[job_id]["error"]))
    return {line: by_id[job_id] for line, job_id in ids.items()}


def stat(job, path):
    """Dump stat 'group.stat' (group without the System name, fnmatch
    wildcards), summed over the matching groups."""
    group_pat, name = path.rsplit(".", 1)
    found = [values[name] for group, values in job["stats"].items()
             if fnmatch.fnmatchcase(group.split(".", 1)[-1], group_pat)
             and name in values]
    if not found:
        sys.exit("no dump stat matches %s" % path)
    return sum(found)


def selected(claim, coords):
    return all(re.fullmatch(pattern, coords.get(key, ""))
               for key, pattern in claim.get("select", {}).items())


def normalized(claim, row):
    if claim.get("norm", "perf") == "time":
        return row["cycles"] / row["ref_cycles"]
    return row["ref_cycles"] / row["cycles"]


def reduce_claim(claim, rows):
    rows = [row for row in rows if selected(claim, row["coords"])]
    how = claim["reduce"]
    if how.startswith("ratio:"):
        num, den = how[len("ratio:"):].split("/")
        return (sum(stat(row["job"], num) for row in rows) /
                sum(stat(row["job"], den) for row in rows))
    return REDUCERS[how]([normalized(claim, row) for row in rows])


def evaluate(ledger, sweep, jobs, wanted):
    """Returns (record of @wanted claims, grid -> seed -> cells)."""
    vars_, grids, claims, _ = ledger
    names = sorted({claims[cid]["grid"] for cid in wanted})
    expanded = {(name, seed): expand(grids[name], vars_, seed)
                for name in names
                for seed in grids[name].get("seeds", [1])}
    results = run_jobs([line for cells in expanded.values()
                        for _, job, ref in cells for line in (job, ref)],
                       sweep, jobs)
    cells = {name: {} for name in names}
    for (name, seed), grid_cells in expanded.items():
        cells[name][seed] = [
            {"coords": coords, "job": results[line],
             "cycles": results[line]["totalCycles"],
             "ref_cycles": results[ref]["totalCycles"]}
            for coords, line, ref in grid_cells]
    record = {}
    for cid in wanted:
        claim = claims[cid]
        per_seed = [reduce_claim(claim, rows)
                    for rows in cells[claim["grid"]].values()]
        value = statistics.fmean(per_seed)
        paper = claim.get("paper")
        record[cid] = {
            "figure": claim["figure"], "grid": claim["grid"],
            "reduce": claim["reduce"],
            "seeds": list(cells[claim["grid"]]), "per_seed": per_seed,
            "value": value, "spread": max(per_seed) - min(per_seed),
            "paper": paper, "tol": claim.get("tol"),
            "deviation": None if paper is None else value - paper,
            "reason": claim.get("reason", ""),
        }
    return record, cells


def check(fresh, recorded):
    problems = ["%s: in only one of the ledger and the record" % cid
                for cid in sorted(set(fresh) ^ set(recorded))]
    for cid in sorted(set(fresh) & set(recorded)):
        new, old = fresh[cid], recorded[cid]
        if (new["per_seed"], new["value"]) != (old["per_seed"],
                                               old["value"]):
            problems.append("%s: moved %r -> %r" %
                            (cid, old["value"], new["value"]))
        for field in ("seeds", "paper", "tol", "reason"):
            if new[field] != old[field]:
                problems.append("%s: %s is %r in the ledger, %r in the "
                                "record" % (cid, field, new[field],
                                            old[field]))
    for source, record in (("ledger", fresh), ("record", recorded)):
        for cid, entry in sorted(record.items()):
            outside = (entry["paper"] is not None and
                       abs(entry["deviation"]) > entry["tol"])
            if outside != bool(entry["reason"]):
                problems.append(
                    "%s (%s): %.4g against %s +- %s %s" %
                    (cid, source, entry["value"], entry["paper"],
                     entry["tol"], "gives no reason" if outside else
                     "is inside its tolerance but gives a reason"))
    return problems


def write_record(path, record):
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def show(claim, grid, cells, entry):
    print("%s (%s), grid %s, ref %s" % (claim["id"], claim["figure"],
                                        claim["grid"],
                                        json.dumps(grid["ref"])))
    first = next(iter(cells.values()))
    keys = [k for k in first[0]["coords"]
            if len({row["coords"][k] for row in first}) > 1]
    columns = grid.get("show", [])
    table = [keys + ["seed", "cycles", "ref_cycles",
                     claim.get("norm", "perf")] + columns]
    for seed, rows in cells.items():
        for row in rows:
            mark = "*" if selected(claim, row["coords"]) else " "
            table.append(
                [mark + row["coords"][k] for k in keys] +
                [str(seed), str(row["cycles"]), str(row["ref_cycles"]),
                 "%.6f" % normalized(claim, row)] +
                ["%.0f" % stat(row["job"], c) for c in columns])
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    print("%s %s over seeds %s: %s -> %.6f (spread %.6f), paper %s" %
          (claim["id"], claim["reduce"], entry["seeds"],
           ", ".join("%.6f" % v for v in entry["per_seed"]),
           entry["value"], entry["spread"], entry["paper"]))
    if entry["reason"]:
        print("reason: %s" % entry["reason"])


def table(entries):
    rows = []
    for entry in entries:
        if "bench" in entry:
            rows.append([entry["figure"], "`%s`" % entry["bench"],
                         entry["why"]])
        elif rows and rows[-1][0] == entry["figure"]:
            rows[-1][1] += ", `%s`" % entry["id"]
        else:
            rows.append([entry["figure"], "`%s`" % entry["id"], "—"])
    return "\n".join(
        ["| Paper reference | Ledger rows or bench binary | Why a bench |",
         "|---|---|---|"] + ["| %s | %s | %s |" % tuple(r) for r in rows])


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-j", "--jobs", type=int, default=1)
    ap.add_argument("--sweep", default=os.path.join(
        HERE, "..", "build", "neummu_sweep"))
    ap.add_argument("--record",
                    default=os.path.join(HERE, "paper_claims.json"))
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--fresh", metavar="FILE")
    ap.add_argument("--reuse", metavar="FILE")
    ap.add_argument("--show", metavar="ID")
    ap.add_argument("--table", action="store_true")
    args = ap.parse_args()

    ledger = load_ledger()
    vars_, grids, claims, entries = ledger
    if args.table:
        print(table(entries))
        return 0
    if args.show:
        if args.show not in claims:
            sys.exit("no claim %s in %s" % (args.show, LEDGER))
        claim = claims[args.show]
        record, cells = evaluate(ledger, args.sweep, args.jobs,
                                 [args.show])
        show(claim, grids[claim["grid"]], cells[claim["grid"]],
             record[args.show])
        return 0

    if args.reuse:
        with open(args.reuse) as f:
            record = json.load(f)
    else:
        record, _ = evaluate(ledger, args.sweep, args.jobs, list(claims))
    if args.fresh:
        write_record(args.fresh, record)
    if not args.check:
        write_record(args.record, record)
        print("wrote %d claims to %s" % (len(record), args.record))
        return 0
    with open(args.record) as f:
        problems = check(record, json.load(f))
    for problem in problems:
        print("paper_claims: %s" % problem)
    if not problems:
        print("paper_claims: %d claims match %s" % (len(record),
                                                    args.record))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
