#!/usr/bin/env python3
"""Compare two checkouts with alternating perfbench runs.

Usage: perf_pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs N]
                     [--seed S] [--trace 0|1]

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
counts must). The rest of this text is about the default, --trace 0.

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
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


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


def end_to_end_rows(bench, runs, pairs):
    metrics = end_to_end(bench)
    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]",
             "move", "wins", "rule", "bound")]
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        higher, bound = metrics[name]
        if parent == change:
            wins_text, rule = "-", "identical"
        else:
            wins, rule = verdict(parent, change, higher)
            wins_text = "%d/%d" % (wins, pairs)
        rows.append((name, side_text(parent), side_text(change),
                     move_text(parent, change), wins_text, rule,
                     bound_verdict(parent, change, higher, bound)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = load_benchmark(args.change_dir)
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change",
                                                         "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args))
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]),
              file=sys.stderr, flush=True)

    print("%s seed=%d pairs=%d trace=%d" % (args.workload, args.seed,
                                            args.pairs, args.trace))
    if args.trace:
        print_rows(per_layer_rows(bench, runs))
    else:
        print_rows(end_to_end_rows(bench, runs, args.pairs))


if __name__ == "__main__":
    main()
