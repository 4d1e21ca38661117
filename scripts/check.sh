#!/usr/bin/env bash
# CI entry point: configure + build everything with warnings as
# errors, verify every bench/example target actually built, run the
# full test suite (the golden-stats regression matrix must be part of
# it, not silently skipped), and record one simulator-throughput
# point (BENCH_sim_throughput.json) so every run logs the kernel's
# events/sec trajectory.
#
# Env:
#   BUILD_DIR  build tree (default: build)
#   BUILD_TYPE CMake build type (default: RelWithDebInfo)
#   SANITIZE   0 = off, 1/address = ASan+UBSan, thread = TSan
#              (TSan guards the SweepEngine worker pool, the one
#              multi-threaded part; default: 0)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}"
SANITIZE="${SANITIZE:-0}"

case "$SANITIZE" in
  0)         SANITIZE_ARG=OFF ;;
  1|address) SANITIZE_ARG=ON ;;
  thread)    SANITIZE_ARG=thread ;;
  *)
    echo "error: SANITIZE must be 0, 1, address, or thread" >&2
    exit 1 ;;
esac

cmake -B "$BUILD_DIR" -S . -DNEUMMU_WERROR=ON \
      -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      -DNEUMMU_SANITIZE="$SANITIZE_ARG"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Every bench/bench_*.cc, tools/*.cc, and examples/*.cc must have
# produced an executable; a silently dropped target (bad glob,
# renamed file, dependency-gated bench) otherwise goes unnoticed
# until someone needs the figure. bench_sim_throughput is self-timed
# (no google-benchmark dependency), so it is required like everything
# else.
missing=0
for src in bench/bench_*.cc tools/*.cc examples/*.cc; do
  target="$(basename "$src" .cc)"
  if [[ ! -x "$BUILD_DIR/$target" ]]; then
    echo "error: target $target (from $src) was not built" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "error: missing bench/example targets; see above" >&2
  exit 1
fi

# The golden-stats matrix is the cycle-exactness gate for every
# kernel/performance change: a build where it silently vanished (e.g.
# gtest not found, so NO tests were registered) must not pass.
if [[ ! -x "$BUILD_DIR/test_golden_stats" ]]; then
  echo "error: test_golden_stats was not built (gtest missing?);" \
       "the golden-stats regression gate cannot be skipped" >&2
  exit 1
fi
# grep (not grep -q): -q exits at the first match and, under
# pipefail, a still-writing ctest then dies of SIGPIPE and fails the
# whole pipeline; reading the stream to the end is race-free.
if ! ctest --test-dir "$BUILD_DIR" -N | grep test_golden_stats \
    > /dev/null; then
  echo "error: test_golden_stats is not registered with ctest" >&2
  exit 1
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Simulator-throughput smoke: one repetition, recorded as JSON. The
# simulated counters in the report are deterministic; the events/sec
# rates document this machine. CI archives the file as an artifact,
# giving the repo a perf trajectory across PRs. --profile=1 appends
# the host-cycle attribution pass: the bench itself fails if the
# fast-path counters sum to zero (optimized paths never ran), if a
# burst tracker rehashed in steady state, or if the profiled rerun
# drifted from the headline's simulated counters.
BENCH_JSON="$BUILD_DIR/BENCH_sim_throughput.json"
BENCH_PREV="$BUILD_DIR/BENCH_sim_throughput.prev.json"
if [[ -s "$BENCH_JSON" ]]; then
  cp "$BENCH_JSON" "$BENCH_PREV"
fi
"$BUILD_DIR/bench_sim_throughput" --reps=1 --profile=1 \
    --json="$BENCH_JSON"
if [[ ! -s "$BENCH_JSON" ]]; then
  echo "error: bench_sim_throughput produced no JSON report" >&2
  exit 1
fi
echo "throughput report: $BENCH_JSON"
# Events/sec delta vs the previous local run of this build tree:
# purely informational (wall-clock rates are host-load-dependent),
# but it shows immediately whether a kernel change moved the needle.
if [[ -s "$BENCH_PREV" ]] && command -v python3 > /dev/null; then
  python3 scripts/bench_delta.py "$BENCH_PREV" "$BENCH_JSON"
fi
# The attribution pass must actually be in the archived artifact.
if ! grep -q sameTickShortcuts "$BENCH_JSON"; then
  echo "error: throughput report is missing the --profile" \
       "attribution (no sameTickShortcuts)" >&2
  exit 1
fi
# The hop-model scenario (64-NPU mix at sim.shards=1, the one that
# runs the hop deliveries and port credits) must be in the archived
# report, with its profiled attribution.
for key in '"sim.npu64_mix"' '"sim.npu64_mix.profile"'; do
  if ! grep -q "$key" "$BENCH_JSON"; then
    echo "error: throughput report is missing $key" >&2
    exit 1
  fi
done

# Oversubscription smoke: the page-lifecycle engine (evict + shootdown
# + refetch) must survive a real sweep end to end and serve its
# counters through the JSON path.
OVERSUB_JSON="$BUILD_DIR/BENCH_ext_oversubscription.json"
"$BUILD_DIR/bench_ext_oversubscription" --batch=2 \
    --json="$OVERSUB_JSON" > /dev/null
if [[ ! -s "$OVERSUB_JSON" ]]; then
  echo "error: bench_ext_oversubscription produced no JSON report" >&2
  exit 1
fi
if ! grep -q '"evictions"' "$OVERSUB_JSON"; then
  echo "error: oversubscription report carries no eviction counters" >&2
  exit 1
fi
echo "oversubscription report: $OVERSUB_JSON"

# --- SweepEngine gates -------------------------------------------------
# The sweep tool and its checked-in manifests are load-bearing: the
# smoke manifest pins failure isolation, the golden-matrix manifest
# pins parallel == serial byte-identity, and the merged JSON is the
# scaling-trajectory artifact. A build where any of them silently
# vanished must not pass.
if [[ ! -x "$BUILD_DIR/neummu_sweep" ]]; then
  echo "error: neummu_sweep was not built" >&2
  exit 1
fi
for manifest in scripts/sweep_smoke.jsonl scripts/golden_matrix.jsonl; do
  if [[ ! -f "$manifest" ]]; then
    echo "error: sweep manifest $manifest is missing" >&2
    exit 1
  fi
done

# Failure-isolation smoke: the manifest contains one deliberately
# broken job (bad_knob); the sweep must finish with exactly that one
# failure reported in the merged output.
SMOKE_JSON="$BUILD_DIR/BENCH_sweep_smoke.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/sweep_smoke.jsonl -j 2 \
    --json="$SMOKE_JSON" > /dev/null
if ! grep -q '"failures": 1' "$SMOKE_JSON"; then
  echo "error: sweep smoke did not report exactly 1 failed job" >&2
  exit 1
fi
if ! grep -q '"ok": false' "$SMOKE_JSON"; then
  echo "error: sweep smoke lost the failed job's record" >&2
  exit 1
fi
echo "sweep smoke report: $SMOKE_JSON"

# Parallel golden matrix, CLI path: the 16-config matrix must merge
# byte-identically whether run on 1 thread or N. (test_golden_stats
# pins the same property in-process, plus each dump against its
# golden file.)
SWEEP_SERIAL="$BUILD_DIR/BENCH_sweep_golden_serial.json"
SWEEP_PAR="$BUILD_DIR/BENCH_sweep_golden_par.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/golden_matrix.jsonl \
    -j 1 --timing=0 --quiet=1 --strict=1 --json="$SWEEP_SERIAL" \
    > /dev/null
"$BUILD_DIR/neummu_sweep" --manifest=scripts/golden_matrix.jsonl \
    -j "$(nproc)" --timing=0 --quiet=1 --strict=1 \
    --json="$SWEEP_PAR" > /dev/null
if ! cmp -s "$SWEEP_SERIAL" "$SWEEP_PAR"; then
  echo "error: parallel golden-matrix sweep is not byte-identical" \
       "to the serial run" >&2
  exit 1
fi

# Hop-model gate, CLI path: the same matrix forced through the hop
# model at 1 shard vs 4 shards must merge byte-identically -- every
# sim.shards >= 1 is the same machine.
# Both runs use the same -j because the merged JSON records it.
SHARD_ONE="$BUILD_DIR/BENCH_sweep_shards1.json"
SHARD_FOUR="$BUILD_DIR/BENCH_sweep_shards4.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/golden_matrix.jsonl \
    -j 2 --timing=0 --quiet=1 --strict=1 \
    --set="sim.hubNpus=1;sim.shards=1" --json="$SHARD_ONE" \
    > /dev/null
"$BUILD_DIR/neummu_sweep" --manifest=scripts/golden_matrix.jsonl \
    -j 2 --timing=0 --quiet=1 --strict=1 \
    --set="sim.hubNpus=1;sim.shards=4" --json="$SHARD_FOUR" \
    > /dev/null
if ! cmp -s "$SHARD_ONE" "$SHARD_FOUR"; then
  echo "error: sharded golden-matrix sweep diverged between" \
       "sim.shards=1 and sim.shards=4" >&2
  exit 1
fi
echo "sharded determinism gate: shards=1 == shards=4 ($SHARD_FOUR)"

# Scaling-trajectory point: the same matrix with reps lengthening
# each job, serial baseline measured in-process, wall clock + speedup
# recorded in the merged JSON. CI archives the file, so the artifact
# series tracks how sweep throughput scales on CI hardware.
SWEEP_JSON="$BUILD_DIR/BENCH_sweep.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/golden_matrix.jsonl \
    -j "$(nproc)" --reps=5 --serial-baseline=1 --quiet=1 --strict=1 \
    --json="$SWEEP_JSON"
if ! grep -q '"speedup"' "$SWEEP_JSON"; then
  echo "error: sweep report carries no serial-baseline speedup" >&2
  exit 1
fi
echo "sweep scaling report: $SWEEP_JSON"

# --- Serving gates -----------------------------------------------------
# Open-loop serving mode: the ServingEngine must survive a Poisson run
# and a tenant-churn run end to end through the neummu_serve CLI, and
# its dump must be byte-reproducible -- same seed, any shard count.
if [[ ! -x "$BUILD_DIR/neummu_serve" ]]; then
  echo "error: neummu_serve was not built" >&2
  exit 1
fi

# Poisson smoke: quantiles and windowed series must be in the JSON.
SERVE_POISSON="$BUILD_DIR/BENCH_serve_poisson.json"
"$BUILD_DIR/neummu_serve" --cycles=2000000 \
    --set="numNpus=4;serve.process=poisson" \
    --json="$SERVE_POISSON" > /dev/null
for key in '"p50"' '"p99"' '"p999"' '"windowArrivals"' \
           '"arrivalDigestLo"'; do
  if ! grep -q "$key" "$SERVE_POISSON"; then
    echo "error: serving dump is missing $key" >&2
    exit 1
  fi
done

# Tenant-churn smoke: address spaces must be created and torn down
# (admitted > initial cohort, retired > 0, pages released).
SERVE_CHURN_SET="numNpus=4;paging.enabled=1;\
paging.residentLimitPages=96;paging.faultLatency=1000;\
serve.process=bursty;serve.tenants=6;serve.demandPaged=1;\
serve.lifetimeRequests=8;serve.workload=embedding:footprint=256K,\
accesses=16"
SERVE_CHURN="$BUILD_DIR/BENCH_serve_churn.json"
"$BUILD_DIR/neummu_serve" --cycles=4000000 --seed=7 \
    --set="$SERVE_CHURN_SET" --json="$SERVE_CHURN" > /dev/null
if grep -q '"retired": 0' "$SERVE_CHURN"; then
  echo "error: serving churn run retired no tenants" >&2
  exit 1
fi
if ! grep -q '"releasedPages"' "$SERVE_CHURN"; then
  echo "error: serving churn run released no pages" >&2
  exit 1
fi

# Byte-identity: same seed twice, and sim.shards=1 vs 4.
SERVE_A="$BUILD_DIR/BENCH_serve_rep.json"
"$BUILD_DIR/neummu_serve" --cycles=4000000 --seed=7 \
    --set="$SERVE_CHURN_SET" --json="$SERVE_A" > /dev/null
if ! cmp -s "$SERVE_CHURN" "$SERVE_A"; then
  echo "error: same-seed serving runs dumped different stats" >&2
  exit 1
fi
SERVE_S1="$BUILD_DIR/BENCH_serve_shards1.json"
SERVE_S4="$BUILD_DIR/BENCH_serve_shards4.json"
"$BUILD_DIR/neummu_serve" --cycles=4000000 --seed=7 \
    --set="$SERVE_CHURN_SET;sim.shards=1" --json="$SERVE_S1" \
    > /dev/null
"$BUILD_DIR/neummu_serve" --cycles=4000000 --seed=7 \
    --set="$SERVE_CHURN_SET;sim.shards=4" --json="$SERVE_S4" \
    > /dev/null
if ! cmp -s "$SERVE_S1" "$SERVE_S4"; then
  echo "error: serving dump diverged between sim.shards=1 and 4" >&2
  exit 1
fi
echo "serving determinism gate: same-seed and shards 1 == 4"

# Serving benchmark: the acceptance scenario (64 NPUs, >100 churning
# demand-paged tenants, >=10M cycles) with its self-certifying
# checks; the JSON is archived as the serving perf artifact.
SERVING_JSON="$BUILD_DIR/BENCH_serving.json"
"$BUILD_DIR/bench_serving" --json="$SERVING_JSON" > /dev/null
if [[ ! -s "$SERVING_JSON" ]]; then
  echo "error: bench_serving produced no JSON report" >&2
  exit 1
fi
for key in '"serving.churn64"' '"serving.steady"' '"p50"' '"p99"' \
           '"p999"' '"evictions"' '"shootdowns"' \
           '"churnBothHalves": 1' '"identicalSameSeed": 1' \
           '"identicalShards1v4": 1'; do
  if ! grep -q "$key" "$SERVING_JSON"; then
    echo "error: serving report is missing $key" >&2
    exit 1
  fi
done
echo "serving report: $SERVING_JSON"

# --- Design-zoo gates --------------------------------------------------
# The MMU design zoo: every registered translation design crossed
# with the dense/embedding/hot-set/serving points, plus one
# deliberately unknown design (bad_design) the factory must reject
# without killing the sweep -- the manifest-level failure-isolation
# gate for the design registry.
if [[ ! -f scripts/design_zoo.jsonl ]]; then
  echo "error: sweep manifest scripts/design_zoo.jsonl is missing" >&2
  exit 1
fi
ZOO_SWEEP="$BUILD_DIR/BENCH_design_zoo_sweep.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/design_zoo.jsonl -j 2 \
    --timing=0 --json="$ZOO_SWEEP" > /dev/null
if ! grep -q '"failures": 1' "$ZOO_SWEEP"; then
  echo "error: design-zoo sweep did not report exactly 1 failed" \
       "job (bad_design)" >&2
  exit 1
fi
if ! grep -q '"ok": false' "$ZOO_SWEEP"; then
  echo "error: design-zoo sweep lost the failed job's record" >&2
  exit 1
fi
# The unknown-design error must enumerate the registry, so a typo'd
# design name is self-correcting from the merged report alone.
if ! grep -q 'oracle|iommu|neummu|custom|range|pomtlb|nmt' \
    "$ZOO_SWEEP"; then
  echo "error: bad_design error does not enumerate the registered" \
       "designs" >&2
  exit 1
fi

# Byte-identity across thread counts for the whole zoo: every design
# (including the DRAM-timed POM-TLB and the near-memory NMT) must be
# deterministic under the parallel sweep service.
ZOO_SERIAL="$BUILD_DIR/BENCH_design_zoo_serial.json"
"$BUILD_DIR/neummu_sweep" --manifest=scripts/design_zoo.jsonl -j 1 \
    --timing=0 --json="$ZOO_SERIAL" > /dev/null
if ! cmp -s "$ZOO_SWEEP" "$ZOO_SERIAL"; then
  echo "error: parallel design-zoo sweep is not byte-identical to" \
       "the serial run" >&2
  exit 1
fi
echo "design-zoo sweep report: $ZOO_SWEEP (parallel == serial)"

# Cross-design comparison table: bench_design_zoo runs the same
# points in-process, self-checks that every cell completed, and its
# JSON is the archived design-comparison artifact.
ZOO_JSON="$BUILD_DIR/BENCH_design_zoo.json"
"$BUILD_DIR/bench_design_zoo" --json="$ZOO_JSON" > /dev/null
if [[ ! -s "$ZOO_JSON" ]]; then
  echo "error: bench_design_zoo produced no JSON report" >&2
  exit 1
fi
for key in '"zoo.range.dense"' '"zoo.pomtlb.embed"' \
           '"zoo.nmt.hotset"' '"zoo.neummu.serve"' '"normPerf"' \
           '"shootdowns"' '"goodput"' '"energyNjPerTransl"'; do
  if ! grep -q "$key" "$ZOO_JSON"; then
    echo "error: design-zoo report is missing $key" >&2
    exit 1
  fi
done
# Every zoo design reports translation energy (the walker-core model
# plus design-specific structures, e.g. POM-TLB's in-DRAM sets); a
# zero-energy pomtlb row means the override vanished.
if command -v python3 > /dev/null; then
  python3 - "$ZOO_JSON" << 'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
for design in ("iommu", "neummu", "range", "pomtlb", "nmt"):
    row = report.get(f"zoo.{design}.dense", {})
    if float(row.get("translationEnergyNj", 0.0)) <= 0.0:
        sys.exit(f"error: zoo design {design} reports no "
                 "translation energy")
print("design-zoo energy rows: all designs report energy")
EOF
fi
echo "design-zoo report: $ZOO_JSON"

# --- Tracing gates -----------------------------------------------------
# Request-lifecycle tracing: the churn serving scenario with a tail
# threshold must produce a Perfetto-loadable Chrome trace that is
# byte-identical across sim.shards=1 and 4, and the trace must pass
# the schema validator. With trace.* off (every run above), the
# golden matrix and serving dumps already pinned byte-identity -- the
# off path adds nothing to the dump. Belt and braces: an explicit
# trace.enabled=0 run must dump byte-identically to the plain run.
if [[ ! -x "$BUILD_DIR/neummu_trace" ]]; then
  echo "error: neummu_trace was not built" >&2
  exit 1
fi
TRACE_OFF="$BUILD_DIR/BENCH_serve_traceoff.json"
"$BUILD_DIR/neummu_serve" --cycles=4000000 --seed=7 \
    --set="$SERVE_CHURN_SET;trace.enabled=0" --json="$TRACE_OFF" \
    > /dev/null
if ! cmp -s "$SERVE_CHURN" "$TRACE_OFF"; then
  echo "error: trace.enabled=0 changed the serving dump; the off" \
       "path must be invisible" >&2
  exit 1
fi

TRACE_S1="$BUILD_DIR/serve_churn_shards1.trace.json"
TRACE_S4="$BUILD_DIR/serve_churn_shards4.trace.json"
TRACE_STATS="$BUILD_DIR/BENCH_serve_traced.json"
"$BUILD_DIR/neummu_serve" --cycles=4000000 --seed=7 \
    --set="$SERVE_CHURN_SET;sim.shards=1;trace.tailThreshold=20000" \
    --trace="$TRACE_S1" --json="$TRACE_STATS" > /dev/null
"$BUILD_DIR/neummu_serve" --cycles=4000000 --seed=7 \
    --set="$SERVE_CHURN_SET;sim.shards=4;trace.tailThreshold=20000" \
    --trace="$TRACE_S4" --report=0 > /dev/null
if ! cmp -s "$TRACE_S1" "$TRACE_S4"; then
  echo "error: Chrome trace diverged between sim.shards=1 and 4" >&2
  exit 1
fi
if command -v python3 > /dev/null; then
  python3 scripts/check_trace.py "$TRACE_S1" --min-events=10
fi
# The traced dump must carry the trace.* stats group with the counted
# ring-drop statistic (zero is fine; absent is not).
if ! grep -q '"dropped"' "$TRACE_STATS"; then
  echo "error: traced serving dump is missing the trace.dropped" \
       "statistic" >&2
  exit 1
fi
echo "tracing gate: trace shards 1 == 4, schema valid ($TRACE_S1)"
