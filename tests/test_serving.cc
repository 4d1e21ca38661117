/**
 * @file
 * Serving subsystem tests: the HDR histogram and bounded series
 * primitives, dynamic stats-group ordering, arrival-process
 * determinism (the open-loop invariance the serving dump's
 * reproducibility rests on), the request-model spec grammar, the
 * serve.* ConfigBinder surface, and end-to-end ServingEngine runs --
 * tenant churn with address-space teardown, byte-identical dumps
 * across same-seed runs and shard counts, and the arrival digest's
 * invariance across every kernel configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/stats.hh"
#include "common/stats_registry.hh"
#include "serving/arrival.hh"
#include "serving/serving_engine.hh"
#include "sweep/config_binder.hh"
#include "sweep/manifest.hh"
#include "sweep/sweep_engine.hh"
#include "system/paging_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/request_model.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(Histogram, ExactBelowPrecisionRange)
{
    stats::Histogram h(5);
    // Values below 2^5 land in exact unit buckets.
    for (std::uint64_t v = 0; v < 32; v++)
        h.record(v);
    EXPECT_EQ(h.count(), 32u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
    EXPECT_EQ(h.quantile(0.5), 15u);
    EXPECT_EQ(h.quantile(1.0), 31u);
}

TEST(Histogram, QuantileWithinRelativeErrorBound)
{
    stats::Histogram h(5);
    std::vector<std::uint64_t> samples;
    Rng rng(42);
    for (int i = 0; i < 10000; i++) {
        const std::uint64_t v = rng.range(1000000) + 1;
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        const std::size_t rank = std::size_t(
            std::min<double>(double(samples.size()) - 1,
                             std::max(0.0, q * 10000 - 1)));
        const double exact = double(samples[rank]);
        const double approx = double(h.quantile(q));
        // Reported quantile is an upper bound within 2^-5.
        EXPECT_GE(approx * (1.0 + h.relativeErrorBound()), exact);
        EXPECT_LE(approx, exact * (1.0 + h.relativeErrorBound()) + 1);
    }
}

TEST(Histogram, DeterministicAcrossInsertionOrder)
{
    stats::Histogram a(5), b(5);
    std::vector<std::uint64_t> vals;
    Rng rng(7);
    for (int i = 0; i < 1000; i++)
        vals.push_back(rng.range(1u << 20));
    for (const std::uint64_t v : vals)
        a.record(v);
    std::sort(vals.rbegin(), vals.rend());
    for (const std::uint64_t v : vals)
        b.record(v);
    for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(a.quantile(q), b.quantile(q));
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

TEST(Histogram, EmptyAndReset)
{
    stats::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.99), 0u);
    EXPECT_EQ(h.min(), 0u);
    h.record(12345, 3);
    EXPECT_EQ(h.count(), 3u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Histogram, QuantileClampedIntoObservedRange)
{
    stats::Histogram h(2); // coarse: large sub-bucket error
    h.record(1000000);
    // Single sample: every quantile is that sample, not the (much
    // larger) bucket upper bound.
    EXPECT_EQ(h.quantile(0.5), 1000000u);
    EXPECT_EQ(h.quantile(0.999), 1000000u);
}

TEST(Histogram, EmptySentinelIsTotalOverQ)
{
    // The empty histogram's defined sentinel: quantile(q) is 0 for
    // EVERY q (including out-of-range ones), and min/max/mean are 0.
    // Report paths print these unguarded, so the sentinel is API.
    stats::Histogram h;
    for (const double q : {-1.0, 0.0, 0.5, 0.999, 1.0, 2.0})
        EXPECT_EQ(h.quantile(q), 0u) << "q=" << q;
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    // reset() returns to the exact same sentinel state.
    h.record(7, 2);
    h.reset();
    for (const double q : {0.0, 0.5, 1.0})
        EXPECT_EQ(h.quantile(q), 0u) << "q=" << q;
    EXPECT_EQ(h.max(), 0u);
}

// ---------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------

TEST(Series, FoldsAtCapacityAndDoublesStride)
{
    stats::Series s(4, stats::Series::Merge::Sum);
    for (int i = 1; i <= 3; i++)
        s.append(double(i));
    EXPECT_EQ(s.stride(), 1u);
    ASSERT_EQ(s.values().size(), 3u);
    // Reaching capacity folds adjacent pairs: [1+2, 3+4], stride 2;
    // later appends accumulate into stride-2 carries.
    s.append(4.0);
    EXPECT_EQ(s.stride(), 2u);
    ASSERT_EQ(s.values().size(), 2u);
    s.append(5.0);
    s.append(6.0);
    ASSERT_EQ(s.values().size(), 3u);
    EXPECT_DOUBLE_EQ(s.values()[0], 3.0);
    EXPECT_DOUBLE_EQ(s.values()[1], 7.0);
    EXPECT_DOUBLE_EQ(s.values()[2], 11.0);
    EXPECT_EQ(s.points(), 6u);
}

TEST(Series, MeanMergeAveragesWindows)
{
    stats::Series s(4, stats::Series::Merge::Mean);
    s.append(10.0);
    s.append(20.0);
    s.append(30.0);
    s.append(40.0); // fold -> [15, 35], stride 2
    s.append(50.0);
    s.append(60.0); // carry completes -> mean 55
    EXPECT_EQ(s.stride(), 2u);
    ASSERT_EQ(s.values().size(), 3u);
    EXPECT_DOUBLE_EQ(s.values()[0], 15.0);
    EXPECT_DOUBLE_EQ(s.values()[1], 35.0);
    EXPECT_DOUBLE_EQ(s.values()[2], 55.0);
}

TEST(Series, LongRunStaysBounded)
{
    stats::Series s(8, stats::Series::Merge::Sum);
    double total = 0.0;
    for (int i = 0; i < 10000; i++) {
        s.append(1.0);
        total += 1.0;
    }
    EXPECT_LE(s.values().size(), 8u);
    double stored = 0.0;
    for (const double v : s.values())
        stored += v;
    // The carry may hold a partial window, but nothing is lost beyond
    // one stride.
    EXPECT_GE(stored + double(s.stride()), total);
}

// ---------------------------------------------------------------------
// Dynamic stats groups
// ---------------------------------------------------------------------

TEST(StatsRegistry, DynamicGroupsDumpInNameOrder)
{
    // Same groups created in different orders must dump identically:
    // mid-run tenant churn cannot perturb the report.
    stats::StatsRegistry a, b;
    for (const char *name : {"t2", "t0", "t1"})
        a.dynamicGroup(name).scalar("x").set(1.0);
    for (const char *name : {"t0", "t1", "t2"})
        b.dynamicGroup(name).scalar("x").set(1.0);
    std::ostringstream da, db;
    a.dumpText(da);
    b.dumpText(db);
    EXPECT_EQ(da.str(), db.str());
}

TEST(StatsRegistry, DynamicGroupsAfterStaticAndRemovable)
{
    stats::StatsRegistry reg;
    stats::Group core("core");
    core.scalar("ticks").set(5.0);
    reg.add(core);
    reg.dynamicGroup("tenant.a").scalar("done").set(1.0);
    std::ostringstream os;
    reg.dumpText(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("core.ticks"), std::string::npos);
    EXPECT_NE(text.find("tenant.a.done"), std::string::npos);
    EXPECT_LT(text.find("core.ticks"), text.find("tenant.a.done"));

    reg.removeDynamicGroup("tenant.a");
    std::ostringstream os2;
    reg.dumpText(os2);
    EXPECT_EQ(os2.str().find("tenant.a"), std::string::npos);
}

// ---------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------

namespace {

std::vector<Tick>
arrivalTicks(const serving::ArrivalConfig &cfg, std::uint64_t seed,
             std::size_t n)
{
    auto proc = serving::ArrivalProcess::make(cfg, seed);
    std::vector<Tick> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; i++)
        out.push_back(proc->next());
    return out;
}

} // namespace

TEST(Arrival, SameSeedSameSequenceEveryKind)
{
    for (const std::string &name : serving::arrivalKindNames()) {
        serving::ArrivalConfig cfg;
        ASSERT_TRUE(serving::arrivalKindFromName(name, cfg.kind));
        const std::vector<Tick> a = arrivalTicks(cfg, 99, 500);
        const std::vector<Tick> b = arrivalTicks(cfg, 99, 500);
        EXPECT_EQ(a, b) << "kind " << name;
        // Strictly increasing: simultaneous arrivals would make event
        // order ambiguous.
        for (std::size_t i = 1; i < a.size(); i++)
            ASSERT_LT(a[i - 1], a[i]) << "kind " << name;
    }
}

TEST(Arrival, DifferentSeedsDiverge)
{
    serving::ArrivalConfig cfg;
    cfg.kind = serving::ArrivalKind::Poisson;
    EXPECT_NE(arrivalTicks(cfg, 1, 100), arrivalTicks(cfg, 2, 100));
}

TEST(Arrival, MeanRateRoughlyHonored)
{
    // 200 req/Mcycle -> mean gap 5000 cycles. Poisson over 2000
    // samples concentrates well within +-10%.
    serving::ArrivalConfig cfg;
    cfg.kind = serving::ArrivalKind::Poisson;
    cfg.ratePerMcycle = 200.0;
    const std::vector<Tick> ticks = arrivalTicks(cfg, 5, 2000);
    const double mean_gap = double(ticks.back()) / double(ticks.size());
    EXPECT_GT(mean_gap, 4500.0);
    EXPECT_LT(mean_gap, 5500.0);
}

TEST(Arrival, FixedIsEvenlySpaced)
{
    serving::ArrivalConfig cfg;
    cfg.kind = serving::ArrivalKind::Fixed;
    cfg.ratePerMcycle = 1000.0; // gap 1000
    const std::vector<Tick> ticks = arrivalTicks(cfg, 0, 10);
    for (std::size_t i = 1; i < ticks.size(); i++)
        EXPECT_EQ(ticks[i] - ticks[i - 1], 1000u);
}

TEST(Arrival, KindNamesRoundTrip)
{
    for (const std::string &name : serving::arrivalKindNames()) {
        serving::ArrivalKind kind;
        ASSERT_TRUE(serving::arrivalKindFromName(name, kind));
        EXPECT_EQ(serving::arrivalKindName(kind), name);
    }
    serving::ArrivalKind kind;
    EXPECT_FALSE(serving::arrivalKindFromName("sawtooth", kind));
}

// ---------------------------------------------------------------------
// Request models
// ---------------------------------------------------------------------

TEST(RequestModel, SpecGrammarAndDefaults)
{
    const RequestModel m = requestModelFromSpecChecked(
        "embedding:footprint=1M,accesses=32,bytes=256");
    EXPECT_EQ(m.footprintBytes, 1u * MiB);
    EXPECT_EQ(m.accessesPerRequest, 32u);
    EXPECT_EQ(m.accessBytes, 256u);
    EXPECT_EQ(m.pattern, SyntheticPattern::UniformRandom);

    const RequestModel d = requestModelFromSpecChecked("dense");
    EXPECT_EQ(d.pattern, SyntheticPattern::Stride);
}

TEST(RequestModel, ErrorsEnumerateAlternatives)
{
    try {
        requestModelFromSpecChecked("bogus");
        FAIL() << "unknown kind must throw";
    } catch (const WorkloadError &e) {
        EXPECT_NE(std::string(e.what()).find("embedding"),
                  std::string::npos);
    }
    EXPECT_THROW(requestModelFromSpecChecked("dense:warp=9"),
                 WorkloadError);
    EXPECT_THROW(
        requestModelFromSpecChecked("synthetic:pattern=chase"),
        WorkloadError);
    EXPECT_THROW(requestModelFromSpecChecked("dense:accesses=0"),
                 WorkloadError);
}

TEST(RequestModel, RunsStayInsideSegmentAndAreDeterministic)
{
    const RequestModel m = requestModelFromSpecChecked(
        "synthetic:pattern=hotset,footprint=256K,accesses=64");
    Segment seg;
    seg.base = 0x10000;
    seg.bytes = 256 * KiB;
    Rng r1(3), r2(3);
    std::vector<VaRun> a, b;
    for (std::uint64_t req = 0; req < 10; req++) {
        buildRequestRuns(m, seg, req, r1, a);
        buildRequestRuns(m, seg, req, r2, b);
        ASSERT_EQ(a.size(), 64u);
        for (std::size_t i = 0; i < a.size(); i++) {
            EXPECT_EQ(a[i].va, b[i].va);
            EXPECT_GE(a[i].va, seg.base);
            EXPECT_LE(a[i].va + a[i].bytes, seg.base + seg.bytes);
        }
    }
}

// ---------------------------------------------------------------------
// ConfigBinder serve.* surface
// ---------------------------------------------------------------------

TEST(ServeBinder, KeysBindOntoConfig)
{
    SystemConfig cfg;
    sweep::applyOverride(cfg, "serve.enabled", "1");
    sweep::applyOverride(cfg, "serve.process", "bursty");
    sweep::applyOverride(cfg, "serve.ratePerMcycle", "123.5");
    sweep::applyOverride(cfg, "serve.tenants", "9");
    sweep::applyOverride(cfg, "serve.lifetimeRequests", "40");
    sweep::applyOverride(cfg, "serve.workload",
                         "dense:footprint=2M");
    sweep::applyOverride(cfg, "serve.queueLimit", "32");
    EXPECT_TRUE(cfg.serve.enabled);
    EXPECT_EQ(cfg.serve.arrival.kind, serving::ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(cfg.serve.arrival.ratePerMcycle, 123.5);
    EXPECT_EQ(cfg.serve.tenants, 9u);
    EXPECT_EQ(cfg.serve.tenantLifetimeRequests, 40u);
    EXPECT_EQ(cfg.serve.workload, "dense:footprint=2M");
    EXPECT_EQ(cfg.serve.queueLimit, 32u);
}

TEST(ServeBinder, UnknownServeKeyEnumeratesGroup)
{
    SystemConfig cfg;
    try {
        sweep::applyOverride(cfg, "serve.bogus", "1");
        FAIL() << "unknown serve.* key must throw";
    } catch (const sweep::BindError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("serve.process"), std::string::npos);
        EXPECT_NE(what.find("serve.tenants"), std::string::npos);
    }
}

TEST(ServeBinder, BadValuesEnumerateAlternatives)
{
    SystemConfig cfg;
    try {
        sweep::applyOverride(cfg, "serve.process", "sawtooth");
        FAIL() << "bad arrival kind must throw";
    } catch (const sweep::BindError &e) {
        EXPECT_NE(std::string(e.what()).find("poisson"),
                  std::string::npos);
    }
    EXPECT_THROW(sweep::applyOverride(cfg, "serve.workload", "bogus"),
                 sweep::BindError);
    EXPECT_THROW(
        sweep::applyOverride(cfg, "serve.diurnalAmplitude", "1.5"),
        sweep::BindError);
}

TEST(ServeBinder, HelpGroupsKeysByPrefix)
{
    const std::string help = sweep::binderHelp();
    EXPECT_NE(help.find("serve.*:"), std::string::npos);
    EXPECT_NE(help.find("sim.*:"), std::string::npos);
    EXPECT_LT(help.find("serve.*:"), help.find("serve.enabled"));
}

// ---------------------------------------------------------------------
// ServingEngine end to end
// ---------------------------------------------------------------------

namespace {

SystemConfig
smallServeConfig()
{
    SystemConfig cfg;
    cfg.name = "serve";
    cfg.seed = 77;
    cfg.numNpus = 4;
    cfg.serve.enabled = true;
    cfg.serve.arrival.kind = serving::ArrivalKind::Poisson;
    cfg.serve.arrival.ratePerMcycle = 300.0;
    cfg.serve.tenants = 4;
    cfg.serve.workload = "embedding:footprint=256K,accesses=16";
    return cfg;
}

std::string
runAndDump(const SystemConfig &cfg, Tick cycles,
           std::uint64_t *digest = nullptr)
{
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.run(cycles);
    if (digest)
        *digest = system.servingEngine().arrivalDigest();
    std::ostringstream os;
    system.dumpStatsJson(os);
    return os.str();
}

} // namespace

TEST(ServingEngine, SameSeedByteIdenticalDump)
{
    const SystemConfig cfg = smallServeConfig();
    EXPECT_EQ(runAndDump(cfg, 1000000), runAndDump(cfg, 1000000));
}

TEST(ServingEngine, ArrivalDigestInvariantAcrossShards)
{
    // The arrival sequence is a pure function of (config, seed):
    // identical across the legacy kernel and every shard count.
    std::uint64_t legacy = 0, one = 0, four = 0;
    SystemConfig cfg = smallServeConfig();
    cfg.sim.shards = 0;
    runAndDump(cfg, 1000000, &legacy);
    cfg.sim.shards = 1;
    const std::string dump1 = runAndDump(cfg, 1000000, &one);
    cfg.sim.shards = 4;
    const std::string dump4 = runAndDump(cfg, 1000000, &four);
    EXPECT_EQ(legacy, one);
    EXPECT_EQ(one, four);
    // Serving runs hub-resident, so the whole dump -- not just the
    // arrival stream -- is byte-identical for any shards >= 1.
    EXPECT_EQ(dump1, dump4);
}

TEST(ServingEngine, ReportCountsAddUp)
{
    System system(smallServeConfig());
    Scheduler scheduler(system);
    scheduler.run(1000000);
    const serving::ServeReport rep = system.servingEngine().report();
    EXPECT_GT(rep.arrivals, 0u);
    EXPECT_GT(rep.completed, 0u);
    EXPECT_LE(rep.completed + rep.dropped + rep.unrouted,
              rep.arrivals);
    EXPECT_EQ(rep.liveTenants, 4u);
    EXPECT_EQ(rep.admitted, 4u);
    EXPECT_GE(rep.p999, rep.p99);
    EXPECT_GE(rep.p99, rep.p50);
    EXPECT_EQ(rep.tenants.size(), 4u);
}

TEST(ServingEngine, ZeroCompletedReportHoldsIdleSentinels)
{
    // Nothing has completed yet (the run never started): every
    // derived metric must hold its documented idle value -- no NaN,
    // no garbage quantiles from the empty latency histogram -- and
    // the stats dump must serialize cleanly.
    System system(smallServeConfig());
    const serving::ServeReport rep = system.servingEngine().report();
    EXPECT_EQ(rep.completed, 0u);
    EXPECT_EQ(rep.meanLatency, 0.0);
    EXPECT_EQ(rep.p50, 0u);
    EXPECT_EQ(rep.p90, 0u);
    EXPECT_EQ(rep.p99, 0u);
    EXPECT_EQ(rep.p999, 0u);
    EXPECT_EQ(rep.goodput, 1.0);
    EXPECT_EQ(rep.sloViolations, 0u);
    std::ostringstream os;
    system.dumpStatsJson(os);
    const std::string dump = os.str();
    EXPECT_FALSE(dump.empty());
    // Value positions only: "tenants" the stat NAME contains "nan".
    EXPECT_EQ(dump.find(": nan"), std::string::npos);
    EXPECT_EQ(dump.find(": -nan"), std::string::npos);
    EXPECT_EQ(dump.find(": inf"), std::string::npos);
    EXPECT_EQ(dump.find(": -inf"), std::string::npos);
}

TEST(ServingEngine, QueueLimitDropsAreCounted)
{
    SystemConfig cfg = smallServeConfig();
    cfg.numNpus = 1;
    cfg.serve.tenants = 1;
    cfg.serve.arrival.ratePerMcycle = 5000.0; // heavy overload
    cfg.serve.queueLimit = 4;
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.run(1000000);
    const serving::ServeReport rep = system.servingEngine().report();
    EXPECT_GT(rep.dropped, 0u);
    // Nothing is silently lost: every arrival is accounted for as
    // completed, dropped, unrouted, or still queued/in flight.
    EXPECT_LE(rep.completed + rep.dropped + rep.unrouted,
              rep.arrivals);
}

TEST(ServingEngine, ChurnRetiresAndRecyclesAddressSpaces)
{
    SystemConfig cfg = smallServeConfig();
    cfg.serve.tenantLifetimeRequests = 8;
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.run(2000000);
    const serving::ServeReport rep = system.servingEngine().report();
    EXPECT_GT(rep.retired, 0u);
    EXPECT_GT(rep.admitted, cfg.serve.tenants);
    // Steady state: retirements are back-filled.
    EXPECT_EQ(rep.liveTenants, cfg.serve.tenants);
}

TEST(ServingEngine, DemandPagedChurnReleasesPages)
{
    SystemConfig cfg = smallServeConfig();
    cfg.paging.enabled = true;
    cfg.paging.residentLimitBytes = 96 * pageSize(cfg.pageShift);
    cfg.paging.faultLatency = 1000;
    cfg.serve.demandPaged = true;
    cfg.serve.tenantLifetimeRequests = 6;
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.run(4000000);
    const serving::ServeReport rep = system.servingEngine().report();
    const PagingEngine &paging = system.pagingEngine();
    EXPECT_GT(rep.retired, 0u);
    EXPECT_GT(paging.faults(), 0u);
    EXPECT_GT(paging.evictions(), 0u);
    EXPECT_GT(paging.shootdowns(), 0u);
    EXPECT_GT(paging.releasedPages(), 0u);
}

TEST(ServingEngine, ChurnDumpIdenticalAcrossShardCounts)
{
    SystemConfig cfg = smallServeConfig();
    cfg.paging.enabled = true;
    cfg.paging.residentLimitBytes = 96 * pageSize(cfg.pageShift);
    cfg.paging.faultLatency = 1000;
    cfg.serve.demandPaged = true;
    cfg.serve.tenantLifetimeRequests = 6;
    cfg.sim.shards = 1;
    const std::string one = runAndDump(cfg, 2000000);
    cfg.sim.shards = 4;
    const std::string four = runAndDump(cfg, 2000000);
    EXPECT_EQ(one, four);
}

TEST(ServingEngine, TracedChurnDumpMatchesUntraced)
{
    // Eight routed NPUs thrash a residency cap a quarter of their
    // tenants' footprint, so walkers and faults keep refusing DMA
    // retries. Tracing observes them (CreditWait spans, burned ids)
    // but must not change them: the dumps agree outside the trace
    // group.
    SystemConfig cfg;
    cfg.name = "churn8";
    cfg.seed = 23;
    cfg.numNpus = 8;
    cfg.paging.enabled = true;
    cfg.paging.residentLimitBytes = 48 * pageSize(cfg.pageShift);
    cfg.paging.faultLatency = 1000;
    cfg.serve.enabled = true;
    cfg.serve.arrival.kind = serving::ArrivalKind::Bursty;
    cfg.serve.arrival.ratePerMcycle = 800.0;
    cfg.serve.tenants = 12;
    cfg.serve.workload = "embedding:footprint=64K,accesses=16";
    cfg.serve.demandPaged = true;
    cfg.serve.tenantLifetimeRequests = 6;

    const auto run = [](const SystemConfig &c) {
        System system(c);
        Scheduler scheduler(system);
        scheduler.run(2000000);
        std::uint64_t refused = 0, stalled = 0;
        for (unsigned i = 0; i < c.numNpus; i++) {
            refused += system.router().clientCounts(i).blockedIssues;
            stalled += system.dma(i).stallCycles();
        }
        EXPECT_GT(refused, 0u);
        EXPECT_GT(stalled, 0u);
        std::ostringstream os;
        system.dumpStatsJson(os);
        return os.str();
    };
    const std::string untraced = run(cfg);
    cfg.trace.enabled = true;
    std::string traced = run(cfg);

    const std::size_t at = traced.find("  \"churn8.trace\": {\n");
    ASSERT_NE(at, std::string::npos);
    const std::string close = "\n  },\n";
    const std::size_t end = traced.find(close, at);
    ASSERT_NE(end, std::string::npos);
    traced.erase(at, end + close.size() - at);
    EXPECT_EQ(traced, untraced);
}

TEST(ServingEngine, DumpCarriesQuantilesAndWindows)
{
    const std::string dump = runAndDump(smallServeConfig(), 1000000);
    for (const char *key :
         {"\"p50\"", "\"p99\"", "\"p999\"", "\"latencyCycles\"",
          "\"windowArrivals\"", "\"windowCompleted\"",
          "\"windowQueueDepth\"", "\"arrivalDigestLo\""})
        EXPECT_NE(dump.find(key), std::string::npos) << key;
}

// ---------------------------------------------------------------------
// Sweep integration
// ---------------------------------------------------------------------

TEST(ServingSweep, ManifestServingJobNeedsNoWorkloads)
{
    const std::string manifest =
        "{\"id\": \"serve\", \"set\": {\"serve.enabled\": 1, "
        "\"numNpus\": 2}, \"limit\": 500000}\n";
    std::istringstream in(manifest);
    const std::vector<sweep::JobSpec> jobs =
        sweep::parseManifest(in, "test", SystemConfig{});
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_TRUE(jobs[0].workloads.empty());

    const sweep::JobOutcome out =
        sweep::SweepEngine::runDeclarative(jobs[0]);
    EXPECT_EQ(out.totalCycles, 500000u);
    EXPECT_NE(out.statsJson.find("serving"), std::string::npos);
}

TEST(ServingSweep, DumpsIdenticalAcrossWorkerWidthsAndReps)
{
    // Two serving jobs through the sweep pool: reps cross-check
    // same-seed determinism, and -j1 vs -j4 must merge identically
    // (arrival generation owns its streams; worker interleaving
    // cannot perturb it).
    std::vector<sweep::JobSpec> jobs(2);
    for (std::size_t i = 0; i < jobs.size(); i++) {
        jobs[i].id = "serve" + std::to_string(i);
        jobs[i].overrides.emplace_back("seed",
                                       std::to_string(40 + i));
        jobs[i].overrides.emplace_back("numNpus", "2");
        jobs[i].overrides.emplace_back("serve.enabled", "1");
        jobs[i].overrides.emplace_back("serve.process",
                                       i ? "bursty" : "poisson");
        jobs[i].limit = 500000;
        jobs[i].reps = 2;
    }
    sweep::SweepOptions serial;
    serial.threads = 1;
    sweep::SweepOptions wide;
    wide.threads = 4;
    const sweep::SweepResults a =
        sweep::SweepEngine(serial).run(jobs);
    const sweep::SweepResults b = sweep::SweepEngine(wide).run(jobs);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); i++) {
        EXPECT_TRUE(a.jobs[i].ok) << a.jobs[i].error;
        EXPECT_TRUE(a.jobs[i].deterministic);
        EXPECT_TRUE(b.jobs[i].deterministic);
        EXPECT_EQ(a.jobs[i].outcome.statsJson,
                  b.jobs[i].outcome.statsJson);
    }
}

TEST(ServingSweep, ServingJobWithoutLimitIsRejected)
{
    sweep::JobSpec job;
    job.id = "forever";
    job.overrides.emplace_back("serve.enabled", "1");
    EXPECT_THROW(sweep::SweepEngine::runDeclarative(job),
                 sweep::BindError);
}

TEST(ServingSweep, NonServingJobStillNeedsWorkloads)
{
    std::istringstream in("{\"id\": \"empty\", \"limit\": 1000}\n");
    EXPECT_THROW(
        sweep::parseManifest(in, "test", SystemConfig{}),
        sweep::ManifestError);
}
