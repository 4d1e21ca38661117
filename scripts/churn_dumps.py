#!/usr/bin/env python3
"""Compare the churn64 serving dumps of two neummu_serve binaries.

Usage: churn_dumps.py PARENT_BIN CHANGE_BIN

Runs the 32-config churn64 matrix with both binaries and compares
their --json dumps byte for byte. The machine is the churn64 scenario
of bench/bench_serving.cc (64 NPUs sharing one MMU, 112 tenants,
bursty 800 req/Mcycle, demand paging with 2000-cycle faults, tenants
retiring after 25 requests), run at seed 23 for 3M cycles. The matrix
crosses:

    mmuKind                     iommu, neummu
    paging.residentLimitPages   512, 2048
    paging.policy               clock, lru
    routerPolicy                shared, partitioned
    sim.shards                  0, 1

For each dump that differs it prints the golden_diff.py summary of
the stats that moved.

It then runs scripts/design_zoo.jsonl (every registered design, paging
churn included) through the neummu_sweep next to each neummu_serve,
with --timing=0, compares the two sweep documents byte for byte and
names the jobs that differ.

Last, it runs the figure benches (fig07, fig12, fig13, sec4c, sec4d,
sec6b, sec6c, ext_oversubscription at --batch=2) and every examples/
binary from the build directory of each neummu_serve, with --json
where the binary takes it, compares stdout and the JSON byte for byte
and names the binaries whose outputs differ.

Exits 1 on any difference or failed run, 0 when all 32 dumps, the two
sweep documents and every bench and example output are identical. Two
runs go at once; the outputs live in a temporary directory that is
removed at the end.

    python3 scripts/churn_dumps.py /tmp/parent/build/neummu_serve \\
        build/neummu_serve
"""

import argparse
import concurrent.futures
import difflib
import filecmp
import glob
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

SEED = 23
CYCLES = 3000000
JOBS = 2
CHURN64 = ("numNpus=64;paging.enabled=1;paging.faultLatency=2000;"
           "serve.process=bursty;serve.ratePerMcycle=800;"
           "serve.tenants=112;"
           "serve.workload=embedding:footprint=64K,accesses=16;"
           "serve.demandPaged=1;serve.lifetimeRequests=25;"
           "serve.sloLatency=200000")
MATRIX = list(itertools.product(("iommu", "neummu"), (512, 2048),
                                ("clock", "lru"),
                                ("shared", "partitioned"), (0, 1)))
SCRIPTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIFF = os.path.join(SCRIPTS, "golden_diff.py")
ZOO_MANIFEST = os.path.join(SCRIPTS, "design_zoo.jsonl")
EXAMPLES = sorted(
    os.path.splitext(os.path.basename(p))[0] for p in
    glob.glob(os.path.join(SCRIPTS, os.pardir, "examples", "*.cc")))
# (binary, arguments, takes --json): the figure benches and examples
# whose printed values nothing else compares.
OUTPUT_BINARIES = [
    ("bench_fig07_translation_bursts", [], False),
    ("bench_fig12_energy_tradeoff", [], True),
    ("bench_fig13_tpreg_hitrate", [], True),
    ("bench_sec4c_mmu_cache", [], False),
    ("bench_sec4d_summary", [], True),
    ("bench_sec6b_spatial_npu", [], True),
    ("bench_sec6c_sensitivity", [], True),
    ("bench_ext_oversubscription", ["--batch=2"], True),
] + [(name, [], name in ("multi_npu_shared_iommu", "multi_tenant_npu"))
     for name in EXAMPLES]


def config_name(cfg):
    kind, pages, policy, router, shards = cfg
    return "%s_cap%d_%s_%s_shards%d" % (kind, pages, policy, router,
                                         shards)


def settings(cfg):
    kind, pages, policy, router, shards = cfg
    # mmuKind first: it picks the machine the other keys then adjust.
    return ("mmuKind=%s;%s;paging.residentLimitPages=%d;"
            "paging.policy=%s;routerPolicy=%s;sim.shards=%d" %
            (kind, CHURN64, pages, policy, router, shards))


def run(binary, cfg, out_dir):
    path = os.path.join(out_dir, config_name(cfg) + ".json")
    cmd = [binary, "--cycles=%d" % CYCLES, "--seed=%d" % SEED,
           "--set=" + settings(cfg), "--json=" + path]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return "%s failed (exit %d): %s" % (
            " ".join(cmd), proc.returncode, proc.stderr.strip()[-400:])
    return None


def run_zoo(serve_bin, path):
    """Run the design-zoo manifest through the sweep next to serve_bin."""
    sweep = os.path.join(os.path.dirname(serve_bin), "neummu_sweep")
    cmd = [sweep, "--manifest=" + ZOO_MANIFEST, "-j", str(JOBS),
           "--timing=0", "--json=" + path]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    # The manifest's bad_design job fails on purpose; the sweep
    # records it in the document and still exits 0.
    if proc.returncode != 0 or not os.path.exists(path):
        return "%s failed (exit %d): %s" % (
            " ".join(cmd), proc.returncode, proc.stderr.strip()[-400:])
    return None


def run_output(serve_bin, entry, out_dir):
    """Run one bench or example next to serve_bin inside out_dir.

    The JSON path is relative, so a bench that prints it prints the
    same line on both sides."""
    name, extra, takes_json = entry
    os.makedirs(out_dir)
    cmd = [os.path.join(os.path.dirname(serve_bin), name)] + extra
    if takes_json:
        cmd.append("--json=out.json")
    proc = subprocess.run(cmd, cwd=out_dir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        return "%s failed (exit %d): %s" % (
            " ".join(cmd), proc.returncode,
            proc.stderr.decode(errors="replace").strip()[-400:])
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as f:
        f.write(proc.stdout)
    return None


def output_differences(parent_dir, change_dir):
    """Lines describing how two runs of one binary differ."""
    lines = []
    for name in ("stdout.txt", "out.json"):
        a = os.path.join(parent_dir, name)
        b = os.path.join(change_dir, name)
        if not (os.path.exists(a) or os.path.exists(b)):
            continue
        if not (os.path.exists(a) and os.path.exists(b)):
            lines.append("  %s written on one side only" % name)
        elif not filecmp.cmp(a, b, shallow=False):
            with open(a, errors="replace") as fa, \
                    open(b, errors="replace") as fb:
                diff = list(difflib.unified_diff(
                    fa.readlines(), fb.readlines(), "parent/" + name,
                    "change/" + name, n=0))
            lines += ["  " + line.rstrip("\n") for line in diff[:12]]
    return lines


def zoo_jobs_differing(parent_doc, change_doc):
    """Ids of the sweep jobs whose records differ between two docs."""
    def jobs(path):
        with open(path) as f:
            return {j["id"]: j for j in json.load(f)["jobs"]}
    a, b = jobs(parent_doc), jobs(change_doc)
    return sorted(i for i in set(a) | set(b) if a.get(i) != b.get(i))


def stat_summary(parent_dump, change_dump, scratch):
    """golden_diff.py's output for one pair of dumps."""
    sides = []
    for side, dump in (("parent", parent_dump), ("change", change_dump)):
        d = os.path.join(scratch, side)
        os.makedirs(d, exist_ok=True)
        shutil.copy(dump, os.path.join(d, os.path.basename(dump)))
        sides.append(d)
    proc = subprocess.run([sys.executable, GOLDEN_DIFF] + sides,
                          stdout=subprocess.PIPE, text=True)
    for d in sides:
        shutil.rmtree(d)
    return proc.stdout.rstrip()


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_bin")
    ap.add_argument("change_bin")
    args = ap.parse_args()

    root = tempfile.mkdtemp(prefix="churn_dumps_")
    dirs = {side: os.path.join(root, side) for side in ("parent", "change")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    bins = {"parent": os.path.abspath(args.parent_bin),
            "change": os.path.abspath(args.change_bin)}

    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        runs = [pool.submit(run, bins[side], cfg, dirs[side])
                for cfg in MATRIX for side in ("parent", "change")]
        failures = [r.result() for r in runs if r.result()]
    for failure in failures:
        print(failure)

    differ = missing = 0
    for cfg in MATRIX:
        name = config_name(cfg) + ".json"
        a = os.path.join(dirs["parent"], name)
        b = os.path.join(dirs["change"], name)
        if not (os.path.exists(a) and os.path.exists(b)):
            missing += 1
            continue
        if filecmp.cmp(a, b, shallow=False):
            continue
        differ += 1
        print("%s differs:" % name)
        print(stat_summary(a, b, os.path.join(root, "diff")))
    identical = len(MATRIX) - differ - missing
    print("churn_dumps: %d/%d identical, %d differ, %d not run" %
          (identical, len(MATRIX), differ, missing))

    zoo = {side: os.path.join(dirs[side], "design_zoo.json")
           for side in ("parent", "change")}
    zoo_failures = [f for f in (run_zoo(bins[side], zoo[side])
                                for side in ("parent", "change")) if f]
    for failure in zoo_failures:
        print(failure)
    zoo_differ = False
    if not zoo_failures:
        zoo_differ = not filecmp.cmp(zoo["parent"], zoo["change"],
                                     shallow=False)
        if zoo_differ:
            jobs = zoo_jobs_differing(zoo["parent"], zoo["change"])
            print("design_zoo: sweep documents differ; jobs: %s" %
                  (", ".join(jobs) or "none (the sweep header differs)"))
        else:
            print("design_zoo: sweep documents identical")

    out_dirs = {(entry[0], side): os.path.join(dirs[side], entry[0])
                for entry in OUTPUT_BINARIES
                for side in ("parent", "change")}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        runs = [pool.submit(run_output, bins[side], entry,
                            out_dirs[(entry[0], side)])
                for entry in OUTPUT_BINARIES
                for side in ("parent", "change")]
        output_failures = [r.result() for r in runs if r.result()]
    for failure in output_failures:
        print(failure)
    outputs_identical = 0
    outputs_differ = []
    for name, _, _ in OUTPUT_BINARIES:
        a = out_dirs[(name, "parent")]
        b = out_dirs[(name, "change")]
        if not (os.path.exists(os.path.join(a, "stdout.txt")) and
                os.path.exists(os.path.join(b, "stdout.txt"))):
            continue
        lines = output_differences(a, b)
        if not lines:
            outputs_identical += 1
            continue
        outputs_differ.append(name)
        print("%s output differs:" % name)
        print("\n".join(lines))
    print("outputs: %d/%d benches and examples identical%s" %
          (outputs_identical, len(OUTPUT_BINARIES),
           "; differ: " + ", ".join(outputs_differ)
           if outputs_differ else ""))
    shutil.rmtree(root)
    return 1 if (differ or failures or zoo_failures or zoo_differ or
                 output_failures or outputs_differ) else 0


if __name__ == "__main__":
    sys.exit(main())
