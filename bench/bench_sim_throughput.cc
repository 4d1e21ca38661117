/**
 * @file
 * Simulator-throughput benchmark: how fast the simulation kernel
 * itself runs, independent of the simulated results. Each scenario
 * builds a fresh System, places its workloads (VA allocation and
 * page-table setup happen here, untimed), then times the wall clock
 * around the event-driven drain only; the headline metrics are
 * host-side events/sec and translations/sec, plus the peak
 * event-queue depth.
 *
 * Self-timed (std::chrono) with no google-benchmark dependency, so
 * the binary always builds; results flow through the StatsRegistry
 * JSON path:
 *
 *   bench_sim_throughput --reps=3 --json=BENCH_sim_throughput.json
 *
 * scripts/check.sh runs the --reps=1 smoke and archives the JSON, so
 * every CI run records one point of the kernel-performance
 * trajectory. The simulated counters (simTicks, events, translations)
 * are deterministic; only wall-clock-derived rates vary by host.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "mmu/mmu_core.hh"
#include "npu/dma_engine.hh"
#include "sim/profiler.hh"
#include "trace/trace_engine.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/synthetic_workload.hh"

using namespace neummu;

namespace {

/** When set (--profile=1), meter() runs each System with
 *  sim.profile=1 so the sample carries host-cycle attribution. The
 *  headline reps stay unprofiled: the attribution pass is separate
 *  because the per-scope clock reads add measurable host overhead. */
bool g_profile = false;

/** When set, meter() runs with trace.enabled (tailThreshold 0, the
 *  keep-everything worst case) so the trace pass can measure the
 *  tracing-on overhead and pin it observational. The headline reps
 *  stay untraced for the same reason as profiling. */
bool g_trace = false;

/** Deterministic per-run counters plus the host-side wall time. */
struct RunSample
{
    Tick simTicks = 0;
    std::uint64_t events = 0;
    std::uint64_t translations = 0;
    std::uint64_t peakQueueDepth = 0;
    double wallSec = 0.0;

    // Kernel fast-path counters (always accumulated, free to read).
    std::uint64_t sameTickShortcuts = 0;
    std::uint64_t walkCacheHits = 0;
    std::uint64_t xlateRegisterHits = 0;
    std::uint64_t burstRehashes = 0;
    std::uint64_t burstHighWater = 0;
    // Lifecycle spans recorded; zero unless trace.enabled was on.
    std::uint64_t spansRecorded = 0;
    // Host-cycle attribution; all-zero unless sim.profile was on.
    SimProfiler prof;
};

/** One timed scenario: builds, runs, and meters a fresh System. */
struct Scenario
{
    std::string name;
    std::function<RunSample()> run;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Build a System for @p cfg, let @p place add workloads to the
 * Scheduler (untimed: this is where VA segments are allocated and
 * pages mapped), then time the Scheduler drain alone. Open-loop
 * (serving) scenarios never drain; they run to @p limit.
 */
RunSample
meter(SystemConfig cfg,
      const std::function<void(System &, Scheduler &)> &place,
      Tick limit = maxTick)
{
    cfg.sim.profile = g_profile;
    cfg.trace.enabled = g_trace;
    System system(std::move(cfg));
    Scheduler scheduler(system);
    place(system, scheduler);

    const auto t0 = std::chrono::steady_clock::now();
    scheduler.run(limit);
    RunSample s;
    s.wallSec = secondsSince(t0);
    s.simTicks = system.now();
    s.events = system.eventsExecuted();
    s.translations = system.mmu().counts().responses;
    s.peakQueueDepth = system.peakQueueDepth();
    s.sameTickShortcuts = system.sameTickShortcuts();
    s.walkCacheHits = system.pageTable().walkCacheHits();
    if (MmuCore *core = system.mmu().asMmuCore())
        s.xlateRegisterHits = core->xlateRegisterHits();
    for (unsigned i = 0; i < system.numNpus(); i++) {
        s.burstRehashes += system.dma(i).burstPoolRehashes();
        s.burstHighWater = std::max(
            s.burstHighWater,
            std::uint64_t(system.dma(i).burstPoolHighWater()));
    }
    if (system.hasTraceEngine()) {
        trace::TraceEngine &te = system.traceEngine();
        for (unsigned q = 0; q < te.numBuffers(); q++)
            s.spansRecorded += te.buffer(q).spansRecorded();
    }
    s.prof = system.mergedProfile();
    return s;
}

/**
 * The hop-model scenario: one 64-NPU multi-tenant machine (a
 * synthetic mix that keeps every NPU's DMA busy against the shared
 * NeuMMU hub) at sim.shards=1, so it runs the hop model: scheduled
 * hop deliveries, the port credits and the hub bridges' retry queues.
 */
RunSample
runBig64()
{
    SystemConfig cfg;
    cfg.name = "big64";
    cfg.seed = 21;
    cfg.numNpus = 64;
    cfg.mmuKind = MmuKind::NeuMmu;
    cfg.sim.shards = 1;
    return meter(cfg, [&](System &, Scheduler &scheduler) {
        static const char *mix[] = {
            "synthetic:pattern=uniform,footprint=8M,accesses=1024",
            "synthetic:pattern=stride,footprint=8M,accesses=1024",
            "synthetic:pattern=hotset,footprint=8M,accesses=1024",
            "synthetic:pattern=chase,footprint=2M,accesses=512",
        };
        for (unsigned t = 0; t < 64; t++)
            scheduler.add(makeWorkloadFromSpec(mix[t % 4]));
    });
}

RunSample
runDense(MmuKind kind, unsigned layers)
{
    SystemConfig cfg;
    cfg.mmuKind = kind;
    return meter(cfg, [&](System &, Scheduler &scheduler) {
        DenseDnnWorkloadConfig wl;
        wl.workload = WorkloadId::CNN1;
        wl.batch = 1;
        wl.layerOverride = makeWorkload(WorkloadId::CNN1, 1).layers;
        if (wl.layerOverride.size() > layers)
            wl.layerOverride.resize(layers);
        scheduler.add(std::make_unique<DenseDnnWorkload>(std::move(wl)),
                      0);
    });
}

RunSample
runSynthetic(const std::string &spec, MmuKind kind, unsigned tenants)
{
    SystemConfig cfg;
    cfg.mmuKind = kind;
    cfg.numNpus = tenants;
    return meter(cfg, [&](System &, Scheduler &scheduler) {
        for (unsigned t = 0; t < tenants; t++)
            scheduler.add(makeWorkloadFromSpec(spec));
    });
}

RunSample
runPaging(MmuKind kind, unsigned batch)
{
    const EmbeddingModelSpec spec = makeDlrm();
    const EmbeddingSystemConfig cluster;
    return meter(demandPagingSystemConfig(spec, cluster, kind),
                 [&](System &, Scheduler &scheduler) {
                     scheduler.add(
                         std::make_unique<EmbeddingWorkload>(
                             demandPagingWorkloadConfig(spec, batch,
                                                        cluster)),
                         0);
                 });
}

/**
 * Open-loop serving on 16 NPUs behind one routed baseline IOMMU:
 * bursty arrivals, demand-paged tenants capped below their footprint,
 * and churn. Its eight walkers keep many DMA ports blocked at once,
 * so this is the scenario that exercises the router's wake path and
 * the shared DMA retry rounds.
 */
RunSample
runServe16()
{
    SystemConfig cfg;
    cfg.name = "serve16";
    cfg.seed = 23;
    cfg.numNpus = 16;
    cfg.paging.enabled = true;
    cfg.paging.residentLimitBytes = 128 * pageSize(cfg.pageShift);
    cfg.paging.faultLatency = 2000;
    cfg.serve.enabled = true;
    cfg.serve.arrival.kind = serving::ArrivalKind::Bursty;
    cfg.serve.arrival.ratePerMcycle = 800.0;
    cfg.serve.tenants = 28;
    cfg.serve.workload = "embedding:footprint=64K,accesses=16";
    cfg.serve.demandPaged = true;
    cfg.serve.tenantLifetimeRequests = 25;
    return meter(cfg, [](System &, Scheduler &) {}, Tick(5000000));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printHeader("Simulator throughput",
                       "Host-side kernel performance: events/sec and "
                       "translations/sec per scenario");
    bench::Reporter reporter("sim_throughput", argc, argv);
    const unsigned reps =
        unsigned(reporter.args().getInt("reps", 3));
    const bool profile =
        reporter.args().getInt("profile", 0) != 0;

    const std::vector<Scenario> scenarios = {
        {"dense_oracle", [] { return runDense(MmuKind::Oracle, 4); }},
        {"dense_iommu",
         [] { return runDense(MmuKind::BaselineIommu, 4); }},
        {"dense_neummu", [] { return runDense(MmuKind::NeuMmu, 4); }},
        {"synthetic_hotset",
         [] {
             return runSynthetic(
                 "synthetic:pattern=hotset,footprint=32M,"
                 "accesses=16384",
                 MmuKind::NeuMmu, 1);
         }},
        {"tenants2_shared_iommu",
         [] {
             return runSynthetic(
                 "synthetic:pattern=uniform,footprint=16M,"
                 "accesses=8192",
                 MmuKind::BaselineIommu, 2);
         }},
        {"paging_dlrm",
         [] { return runPaging(MmuKind::NeuMmu, 4); }},
        {"serve16_paged_iommu", [] { return runServe16(); }},
        {"npu64_mix", [] { return runBig64(); }},
    };

    std::printf("%-22s %12s %12s %14s %14s %10s\n", "scenario",
                "simTicks", "events", "events/s", "transl/s",
                "peakQ");

    std::uint64_t total_events = 0;
    std::uint64_t total_translations = 0;
    double total_wall = 0.0;
    std::vector<RunSample> headline;
    headline.reserve(scenarios.size());
    for (const Scenario &sc : scenarios) {
        RunSample total;
        for (unsigned r = 0; r < reps; r++) {
            const RunSample s = sc.run();
            // Deterministic counters are identical across reps; keep
            // the last values and accumulate only the wall clock.
            total.simTicks = s.simTicks;
            total.events = s.events;
            total.translations = s.translations;
            total.peakQueueDepth = s.peakQueueDepth;
            total.burstRehashes = s.burstRehashes;
            total.wallSec += s.wallSec;
        }

        // Steady-state invariant: the burst trackers are pre-reserved
        // from config-derived in-flight bounds, so a rehash here means
        // the sizing heuristic broke (and the hot path paid for it).
        if (total.burstRehashes != 0) {
            std::fprintf(stderr,
                         "FATAL: %s rehashed the DMA burst tracker "
                         "%llu times in steady state\n",
                         sc.name.c_str(),
                         (unsigned long long)total.burstRehashes);
            return 1;
        }
        headline.push_back(total);
        const double events_per_sec =
            double(total.events) * reps / total.wallSec;
        const double transl_per_sec =
            double(total.translations) * reps / total.wallSec;
        total_events += total.events * reps;
        total_translations += total.translations * reps;
        total_wall += total.wallSec;

        stats::Group &g = reporter.group("sim." + sc.name);
        g.scalar("simTicks").set(double(total.simTicks));
        g.scalar("events").set(double(total.events));
        g.scalar("translations").set(double(total.translations));
        g.scalar("peakQueueDepth")
            .set(double(total.peakQueueDepth));
        g.scalar("wallMs").set(total.wallSec * 1e3 / reps);
        g.scalar("eventsPerSec").set(events_per_sec);
        g.scalar("translationsPerSec").set(transl_per_sec);

        std::printf("%-22s %12llu %12llu %14.0f %14.0f %10llu\n",
                    sc.name.c_str(),
                    (unsigned long long)total.simTicks,
                    (unsigned long long)total.events, events_per_sec,
                    transl_per_sec,
                    (unsigned long long)total.peakQueueDepth);
    }

    // --- Attribution pass (--profile=1): re-run each scenario once
    // with sim.profile=1 and report where the host cycles go plus the
    // fast-path hit counters. Kept out of the headline reps -- the
    // per-scope clock reads add host overhead -- and cross-checked
    // against the headline event counts (profiling is observational,
    // so any drift is a bug).
    if (profile) {
        g_profile = true;
        std::printf("\n%-22s %12s %12s %12s\n", "profile",
                    "sameTick", "regHits", "walkCache");
        std::uint64_t fastpath_sum = 0;
        SimProfiler merged_prof;
        for (std::size_t i = 0; i < scenarios.size(); i++) {
            const Scenario &sc = scenarios[i];
            const RunSample s = sc.run();
            if (s.events != headline[i].events ||
                s.simTicks != headline[i].simTicks) {
                std::fprintf(stderr,
                             "FATAL: %s profiled run changed "
                             "simulated counters -- profiling must "
                             "be observational\n",
                             sc.name.c_str());
                return 1;
            }

            stats::Group &g =
                reporter.group("sim." + sc.name + ".profile");
            for (unsigned p = 0; p < SimProfiler::numSlots; p++) {
                const ProfSubsystem sub = ProfSubsystem(p);
                const SimProfiler::Slot &slot = s.prof.slot(sub);
                const std::string base = profSubsystemName(sub);
                g.scalar(base + "Scopes").set(double(slot.count));
                g.scalar(base + "Nanos").set(double(slot.nanos));
            }
            g.scalar("sameTickShortcuts")
                .set(double(s.sameTickShortcuts));
            g.scalar("walkCacheHits").set(double(s.walkCacheHits));
            g.scalar("xlateRegisterHits")
                .set(double(s.xlateRegisterHits));
            g.scalar("burstTrackerRehashes")
                .set(double(s.burstRehashes));
            g.scalar("burstTrackerHighWater")
                .set(double(s.burstHighWater));

            // Any one counter may legitimately be ~0 for a given
            // scenario (e.g. the oracle never consults a channel
            // register), so the liveness gate sums them.
            fastpath_sum += s.sameTickShortcuts + s.walkCacheHits +
                            s.xlateRegisterHits;
            merged_prof.merge(s.prof);

            std::printf("%-22s %12llu %12llu %12llu\n",
                        sc.name.c_str(),
                        (unsigned long long)s.sameTickShortcuts,
                        (unsigned long long)s.xlateRegisterHits,
                        (unsigned long long)s.walkCacheHits);
        }
        g_profile = false;
        if (fastpath_sum == 0) {
            std::fprintf(stderr,
                         "FATAL: every fast-path counter is zero -- "
                         "the optimized paths never ran\n");
            return 1;
        }

        // Flamegraph-compatible collapsed stacks over all profiled
        // scenarios (feed to flamegraph.pl / speedscope as-is).
        const std::string collapsed_path =
            reporter.args().get("collapsed", "");
        if (!collapsed_path.empty()) {
            const std::string stacks = merged_prof.collapsed();
            if (std::FILE *f =
                    std::fopen(collapsed_path.c_str(), "w")) {
                std::fwrite(stacks.data(), 1, stacks.size(), f);
                std::fclose(f);
                std::printf("wrote collapsed stacks to %s\n",
                            collapsed_path.c_str());
            } else {
                std::fprintf(stderr,
                             "FATAL: cannot write collapsed stacks "
                             "to %s\n",
                             collapsed_path.c_str());
                return 1;
            }
        }
    }

    // --- Trace-overhead pass (--trace=1, default on): re-run each
    // scenario once with trace.enabled at tailThreshold=0 (the
    // keep-everything worst case) and report the tracing-on cost.
    // Tracing must be observational: simulated counters pinned
    // identical to the untraced headline run. The headline numbers
    // above -- what bench_delta compares across commits -- always run
    // untraced, so a trace-subsystem regression on the off path shows
    // up there, not here.
    if (reporter.args().getInt("trace", 1) != 0) {
        g_trace = true;
        std::printf("\n%-22s %12s %12s %10s\n", "trace", "spans",
                    "wallMs", "overhead");
        for (std::size_t i = 0; i < scenarios.size(); i++) {
            const Scenario &sc = scenarios[i];
            const RunSample s = sc.run();
            if (s.events != headline[i].events ||
                s.simTicks != headline[i].simTicks ||
                s.translations != headline[i].translations) {
                std::fprintf(stderr,
                             "FATAL: %s traced run changed simulated "
                             "counters -- tracing must be "
                             "observational\n",
                             sc.name.c_str());
                return 1;
            }
            if (s.spansRecorded == 0) {
                std::fprintf(stderr,
                             "FATAL: %s traced run recorded no "
                             "spans -- the instrumentation is dead\n",
                             sc.name.c_str());
                return 1;
            }
            const double base_ms =
                headline[i].wallSec * 1e3 / reps;
            const double traced_ms = s.wallSec * 1e3;
            const double overhead =
                base_ms > 0.0 ? traced_ms / base_ms - 1.0 : 0.0;

            stats::Group &g =
                reporter.group("sim." + sc.name + ".trace");
            g.scalar("spansRecorded").set(double(s.spansRecorded));
            g.scalar("wallMs").set(traced_ms);
            g.scalar("overheadPct").set(overhead * 100.0);

            std::printf("%-22s %12llu %12.1f %9.1f%%\n",
                        sc.name.c_str(),
                        (unsigned long long)s.spansRecorded,
                        traced_ms, overhead * 100.0);
        }
        g_trace = false;
    }

    const double agg_events = double(total_events) / total_wall;
    const double agg_transl = double(total_translations) / total_wall;
    stats::Group &g = reporter.group("sim.total");
    g.scalar("reps").set(double(reps));
    g.scalar("wallMs").set(total_wall * 1e3);
    g.scalar("eventsPerSec").set(agg_events);
    g.scalar("translationsPerSec").set(agg_transl);
    std::printf("\n%-22s %40.0f %14.0f\n", "aggregate", agg_events,
                agg_transl);

    reporter.finish();
    return 0;
}
