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
the stats that moved. Exits 1 on any difference or failed run, 0 when
all 32 dumps are identical. Two runs go at once; the dumps live in a
temporary directory that is removed at the end.

    python3 scripts/churn_dumps.py /tmp/parent/build/neummu_serve \\
        build/neummu_serve
"""

import argparse
import concurrent.futures
import filecmp
import itertools
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
GOLDEN_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_diff.py")


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
    shutil.rmtree(root)
    return 1 if differ or failures else 0


if __name__ == "__main__":
    sys.exit(main())
