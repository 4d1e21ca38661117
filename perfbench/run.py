#!/usr/bin/env python3
"""The repository benchmark: build the simulator and its benchmark
runner from source, run one workload, check it, and print the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_grid --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics. The line before it carries the run context
(core count, build type, compiler, commit, seed, threads). A human
readable table goes to standard error, and the full record of the run
-- per-pass samples, failures, the fidelity comparison -- to
.bench_out/<workload>-seed<seed>-trace<trace>.json.

    python3 perfbench/run.py --workload all --seconds 10

runs every workload and prints every end-to-end metric with its unit
plus failed_ratio, and

    python3 perfbench/run.py --record-fidelity

rewrites perfbench/fidelity.json, the committed record of the dense
grid's oracle-normalized results.

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run in a checkout compiles the
simulator library, later runs reuse it.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
OUT_DIR = ".bench_out"
FIDELITY = os.path.join(BENCH_DIR, "fidelity.json")
WORKLOADS = ["dense_grid", "serve_churn", "npu64_mix"]
RUNNER_TIMEOUT_S = 170

# The paper's reference points (Hyun et al., ASPLOS 2020): NeuMMU
# costs 0.06% on average against the oracular MMU; the baseline IOMMU
# reaches about 0.05 of oracle performance (95% overhead, Fig. 8).
PAPER = {"neummu_norm_perf": 1.0 - 0.0006, "iommu_norm_perf": 0.05}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    """Configure (once) and build the runner; return its path."""
    if not os.path.isfile(os.path.join("src", "system", "system.hh")):
        fail("no simulator sources under ./src: run from the root of a "
             "checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "neummu_perfbench")


def run_runner(runner, workload, seed, seconds, mode, trace_out=""):
    cmd = [runner, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--mode=" + mode]
    if trace_out:
        cmd.append("--trace-out=" + trace_out)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUNNER_TIMEOUT_S),
             1)
    if proc.returncode != 0:
        fail("runner exited with code %d on %s" % (proc.returncode,
                                                    workload), 1)
    return json.loads(proc.stdout)


def commit_id():
    """The git commit when available, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for root in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def norm(cell):
    return cell["oracle_cycles"] / cell["cycles"] if cell["cycles"] else 0.0


def fidelity_record(doc):
    """Fidelity block: simulated vs paper, and drift vs the record."""
    cells = doc.get("fidelity_cells")
    if not cells:
        return None
    m = doc["metrics"]
    out = {
        "paper": PAPER,
        "simulated": {k: m[k] for k in PAPER},
        "difference_vs_paper": {k: m[k] - PAPER[k] for k in PAPER},
        "cells": [dict(c, norm_perf=norm(c)) for c in cells],
        "note": "Beyond these two reference points the model is "
                "unvalidated against hardware.",
    }
    if os.path.isfile(FIDELITY):
        with open(FIDELITY) as f:
            recorded = {(c["model"], c["design"]): c["norm_perf"]
                        for c in json.load(f)["cells"]}
        drift = [abs(norm(c) - recorded[(c["model"], c["design"])])
                 for c in cells if (c["model"], c["design"]) in recorded]
        out["max_drift_vs_record"] = max(drift) if len(drift) == len(
            cells) else None
    return out


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def result_metrics(spec, values):
    metrics = {}
    for entry in spec:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            fail("runner reported no value for " + entry["name"], 1)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def run_one(runner, bench, workload, seed, seconds, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, workload + ".trace.json") if trace \
        else ""
    doc = run_runner(runner, workload, seed, seconds,
                     "observe" if trace else "measure", trace_out)
    ctx = doc["context"]
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "build_type": ctx["build_type"],
        "compiler": ctx["compiler"],
        "commit": commit_id(),
        "sweep_workers": ctx["sweep_workers"],
        "sim_threads": ctx["sim_threads"],
        "passes": doc["passes"],
    }
    if ctx["build_type"] != "Release":
        log("!" * 72)
        log("WARNING: the runner is a %s build, not Release: host "
            "timings are not comparable" % ctx["build_type"])
        log("!" * 72)
    spec = bench["per_layer" if trace else "end_to_end"]
    metrics = result_metrics(spec, doc["metrics"])
    result = {"correct": doc["failed"] == 0,
              "attempted": doc["attempted"],
              "failed": doc["failed"],
              "metrics": metrics}
    record = {"context": context, "result": result,
              "failures": doc["failures"],
              "samples": doc.get("samples", {}),
              "extra": {k: v for k, v in doc["metrics"].items()
                        if k not in metrics}}
    fidelity = fidelity_record(doc)
    if fidelity:
        record["fidelity"] = fidelity
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed,
                                                             trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    log("%s seed=%d trace=%d: %d passes, %d/%d attempts failed "
        "(failed_ratio %.4g)" % (workload, seed, trace, doc["passes"],
                                 doc["failed"], doc["attempted"],
                                 doc["failed"] / doc["attempted"]))
    for failure in doc["failures"]:
        log("  FAILED " + failure)
    for name, m in metrics.items():
        log("  %-34s %18.6g %s" % (name, m["value"], m["unit"]))
    if fidelity:
        d = fidelity["difference_vs_paper"]
        log("  fidelity: neummu_norm_perf %+.4f and iommu_norm_perf %+.4f "
            "vs the paper; max drift vs %s: %s" % (
                d["neummu_norm_perf"], d["iommu_norm_perf"], FIDELITY,
                fidelity.get("max_drift_vs_record")))
    return context, result


def record_fidelity(runner):
    doc = run_runner(runner, "dense_grid", 1, 0, "measure")
    fidelity = fidelity_record(doc)
    fidelity.pop("max_drift_vs_record", None)
    fidelity["about"] = ("Oracle-normalized performance (oracle cycles / "
                         "design cycles) of the dense grid: CNN1-3 and "
                         "RNN1-3 at batch 4, cold TLB, PTW caches and "
                         "PRMB. Regenerate with python3 perfbench/run.py "
                         "--record-fidelity.")
    with open(FIDELITY, "w") as f:
        json.dump(fidelity, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + FIDELITY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="dense_grid, serve_churn, npu64_mix or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fidelity", action="store_true")
    args = ap.parse_args()

    runner = build()
    if args.record_fidelity:
        record_fidelity(runner)
        return
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else \
        bench["run_seconds"]
    if args.workload == "all":
        for workload in WORKLOADS:
            run_one(runner, bench, workload, args.seed, seconds, args.trace)
        return
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (%s)" % (args.workload,
                                           ", ".join(WORKLOADS)))
    context, result = run_one(runner, bench, args.workload, args.seed,
                              seconds, args.trace)
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
