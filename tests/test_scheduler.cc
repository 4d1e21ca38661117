/**
 * @file
 * Tests for the Workload API and the multi-tenant Scheduler:
 * cycle-equivalence pins against the pre-refactor drivers (recorded
 * from the seed implementation), trace record/replay round trips,
 * two-tenant co-runs, the workload factory, and seed plumbing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/synthetic_workload.hh"
#include "workloads/trace_workload.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/** Run one dense workload alone through the Scheduler. */
struct DenseRun
{
    Tick totalCycles = 0;
    MmuCounts mmu;
};

DenseRun
runDenseViaScheduler(WorkloadId id, MmuKind kind)
{
    SystemConfig cfg;
    cfg.mmuKind = kind;
    System system(cfg);

    DenseDnnWorkloadConfig wl_cfg;
    wl_cfg.workload = id;
    wl_cfg.batch = 1;
    Scheduler scheduler(system);
    scheduler.add(std::make_unique<DenseDnnWorkload>(wl_cfg), 0);
    const SchedulerResult r = scheduler.run();
    EXPECT_TRUE(r.allDone);

    DenseRun out;
    out.totalCycles = system.now();
    out.mmu = system.mmu().counts();
    return out;
}

void
expectCountsEqual(const MmuCounts &a, const MmuCounts &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.responses, b.responses);
    EXPECT_EQ(a.tlbHits, b.tlbHits);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.redundantWalks, b.redundantWalks);
    EXPECT_EQ(a.prmbMerges, b.prmbMerges);
    EXPECT_EQ(a.blockedIssues, b.blockedIssues);
    EXPECT_EQ(a.walkMemAccesses, b.walkMemAccesses);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.prefetchWalks, b.prefetchWalks);
    EXPECT_EQ(a.ptsLookups, b.ptsLookups);
    EXPECT_EQ(a.pathCacheConsults, b.pathCacheConsults);
    EXPECT_EQ(a.pathCacheSkippedLevels, b.pathCacheSkippedLevels);
}

} // namespace

// ---------------------------------------------------------------------
// Cycle-equivalence pins: the numbers below were recorded from the
// pre-refactor DenseExperiment / EmbeddingSystem drivers (seed
// implementation, full CNN1/RNN1 at batch 1). The Workload-API path
// must reproduce them bit-exactly.
// ---------------------------------------------------------------------

TEST(SchedulerPin, DenseCnn1NeuMmuMatchesPreRefactorDriver)
{
    const DenseRun r =
        runDenseViaScheduler(WorkloadId::CNN1, MmuKind::NeuMmu);
    EXPECT_EQ(r.totalCycles, 340592u);
    EXPECT_EQ(r.mmu.requests, 245300u);
    EXPECT_EQ(r.mmu.responses, 245300u);
    EXPECT_EQ(r.mmu.tlbHits, 32u);
    EXPECT_EQ(r.mmu.tlbMisses, 245268u);
    EXPECT_EQ(r.mmu.walks, 43985u);
    EXPECT_EQ(r.mmu.redundantWalks, 0u);
    EXPECT_EQ(r.mmu.prmbMerges, 201283u);
    EXPECT_EQ(r.mmu.blockedIssues, 0u);
    EXPECT_EQ(r.mmu.walkMemAccesses, 48516u);
}

TEST(SchedulerPin, DenseRnn1NeuMmuMatchesPreRefactorDriver)
{
    const DenseRun r =
        runDenseViaScheduler(WorkloadId::RNN1, MmuKind::NeuMmu);
    EXPECT_EQ(r.totalCycles, 209456u);
    EXPECT_EQ(r.mmu.requests, 204880u);
    EXPECT_EQ(r.mmu.tlbHits, 32u);
    EXPECT_EQ(r.mmu.tlbMisses, 204848u);
    EXPECT_EQ(r.mmu.walks, 25612u);
    EXPECT_EQ(r.mmu.prmbMerges, 179236u);
    EXPECT_EQ(r.mmu.walkMemAccesses, 27105u);
}

TEST(SchedulerPin, DenseCnn1BaselineIommuMatchesPreRefactorDriver)
{
    // The blocked/stalling path (issue-port rejections, retries) must
    // also be cycle-identical, not just the happy path.
    const DenseRun r =
        runDenseViaScheduler(WorkloadId::CNN1, MmuKind::BaselineIommu);
    EXPECT_EQ(r.totalCycles, 12256019u);
    EXPECT_EQ(r.mmu.requests, 275268u);
    EXPECT_EQ(r.mmu.responses, 245300u);
    EXPECT_EQ(r.mmu.walks, 239911u);
    EXPECT_EQ(r.mmu.redundantWalks, 195926u);
    EXPECT_EQ(r.mmu.blockedIssues, 29968u);
    EXPECT_EQ(r.mmu.walkMemAccesses, 959644u);
}

TEST(SchedulerPin, EmbeddingNumaFast4NpuMatchesPreRefactorDriver)
{
    // The paper's 4-NPU recommender config (Fig. 15), NumaFast.
    const EmbeddingSystemConfig cfg;
    ASSERT_EQ(cfg.numNpus, 4u);

    const LatencyBreakdown dlrm = computeEmbeddingInference(
        makeDlrm(), 64, EmbeddingPolicy::NumaFast, cfg);
    EXPECT_EQ(dlrm.gemm, 2176u);
    EXPECT_EQ(dlrm.reduction, 468u);
    EXPECT_EQ(dlrm.other, 6000u);
    EXPECT_EQ(dlrm.embeddingLookup, 10645u);
    EXPECT_EQ(dlrm.total(), 19289u);

    const LatencyBreakdown ncf = computeEmbeddingInference(
        makeNcf(), 64, EmbeddingPolicy::NumaFast, cfg);
    EXPECT_EQ(ncf.total(), 31599u);
}

TEST(SchedulerPin, EmbeddingInferenceWorkloadMatchesAnalyticModel)
{
    // The same numbers through the Workload API: an Inference-mode
    // EmbeddingWorkload holds its slot for exactly the modeled
    // latency.
    EmbeddingWorkloadConfig wl_cfg;
    wl_cfg.spec = makeDlrm();
    wl_cfg.batch = 64;
    wl_cfg.mode = EmbeddingWorkloadMode::Inference;
    wl_cfg.policy = EmbeddingPolicy::NumaFast;

    System system(SystemConfig{});
    Scheduler scheduler(system);
    Workload &wl = scheduler.add(
        std::make_unique<EmbeddingWorkload>(wl_cfg), 0);
    const SchedulerResult r = scheduler.run();
    ASSERT_TRUE(r.allDone);
    EXPECT_EQ(wl.finishTick(), 19289u);
    EXPECT_EQ(
        static_cast<EmbeddingWorkload &>(wl).breakdown().total(),
        19289u);
}

TEST(SchedulerPin, DemandPagingMatchesPreRefactorDriver)
{
    const EmbeddingModelSpec spec = makeDlrm();
    const EmbeddingSystemConfig cluster;
    System system(
        demandPagingSystemConfig(spec, cluster, MmuKind::NeuMmu));
    Scheduler scheduler(system);
    const Workload &wl = scheduler.add(
        std::make_unique<EmbeddingWorkload>(
            demandPagingWorkloadConfig(spec, 4, cluster, 1)),
        0);
    ASSERT_TRUE(scheduler.run().allDone);

    // The pre-refactor total included the dense backend (one sample
    // per device at batch 4 on 4 NPUs).
    EXPECT_EQ(wl.finishTick() +
                  embeddingDenseBackend(spec, 1, cluster).total(),
              66903u);
    const stats::Group &g = wl.stats();
    EXPECT_EQ(g.scalars().at("faults").value(), 190.0);
    EXPECT_EQ(g.scalars().at("migratedBytes").value(), 778240.0);
    EXPECT_EQ(g.scalars().at("usefulBytes").value(), 66560.0);
    EXPECT_EQ(system.mmu().counts().requests, 345u);
    EXPECT_EQ(system.mmu().counts().walks, 260u);
}

// ---------------------------------------------------------------------
// Trace record -> replay round trip.
// ---------------------------------------------------------------------

namespace {

/** Record a synthetic run on a fresh system; return counts + trace. */
MmuCounts
recordSynthetic(MmuKind kind, TraceRecorder &recorder,
                std::uint64_t accesses = 512)
{
    SystemConfig cfg;
    cfg.name = "rec";
    cfg.mmuKind = kind;
    System system(cfg);
    recorder.attach(system, 0);

    SyntheticWorkloadConfig wcfg;
    wcfg.pattern = SyntheticPattern::UniformRandom;
    wcfg.accesses = accesses;
    wcfg.footprintBytes = 8 * MiB;
    wcfg.accessBytes = 4 * KiB;
    wcfg.seed = 99;
    Scheduler scheduler(system);
    scheduler.add(std::make_unique<SyntheticWorkload>(wcfg), 0);
    EXPECT_TRUE(scheduler.run().allDone);
    return system.mmu().counts();
}

MmuCounts
replayTrace(MmuKind kind, TraceWorkloadConfig tcfg,
            std::uint64_t *divergences = nullptr)
{
    SystemConfig cfg;
    cfg.name = "rep";
    cfg.mmuKind = kind;
    System system(cfg);
    Scheduler scheduler(system);
    Workload &wl = scheduler.add(
        std::make_unique<TraceWorkload>(std::move(tcfg)), 0);
    EXPECT_TRUE(scheduler.run().allDone);
    if (divergences)
        *divergences = static_cast<TraceWorkload &>(wl).divergences();
    return system.mmu().counts();
}

} // namespace

TEST(TraceRoundTrip, ReplayReproducesIdenticalMmuCounts)
{
    TraceRecorder recorder;
    const MmuCounts recorded =
        recordSynthetic(MmuKind::NeuMmu, recorder);
    ASSERT_GT(recorder.entries().size(), 0u);

    TraceWorkloadConfig tcfg;
    tcfg.entries = recorder.entries();
    tcfg.header = recorder.header();
    std::uint64_t divergences = 1;
    const MmuCounts replayed =
        replayTrace(MmuKind::NeuMmu, std::move(tcfg), &divergences);
    EXPECT_EQ(divergences, 0u);
    expectCountsEqual(recorded, replayed);
}

TEST(TraceRoundTrip, BlockedAttemptsReplayIdentically)
{
    // The baseline IOMMU rejects issues under load; the trace records
    // those rejected attempts and the replay must reproduce them.
    TraceRecorder recorder;
    const MmuCounts recorded =
        recordSynthetic(MmuKind::BaselineIommu, recorder);
    ASSERT_GT(recorded.blockedIssues, 0u);

    TraceWorkloadConfig tcfg;
    tcfg.entries = recorder.entries();
    tcfg.header = recorder.header();
    const MmuCounts replayed =
        replayTrace(MmuKind::BaselineIommu, std::move(tcfg));
    expectCountsEqual(recorded, replayed);
}

TEST(TraceRoundTrip, JsonlFileSurvivesWriteAndRead)
{
    TraceRecorder recorder;
    const MmuCounts recorded =
        recordSynthetic(MmuKind::NeuMmu, recorder, 64);
    const std::string path =
        testing::TempDir() + "neummu_trace_roundtrip.jsonl";
    ASSERT_TRUE(recorder.write(path));

    TraceHeader header;
    std::vector<TraceEntry> entries;
    std::string error;
    ASSERT_TRUE(readTraceJsonl(path, header, entries, error)) << error;
    EXPECT_EQ(header.pageShift, recorder.header().pageShift);
    EXPECT_EQ(header.source, recorder.header().source);
    ASSERT_EQ(entries.size(), recorder.entries().size());
    for (std::size_t i = 0; i < entries.size(); i++) {
        EXPECT_EQ(entries[i].tick, recorder.entries()[i].tick);
        EXPECT_EQ(entries[i].va, recorder.entries()[i].va);
        EXPECT_EQ(entries[i].bytes, recorder.entries()[i].bytes);
        EXPECT_EQ(entries[i].accepted, recorder.entries()[i].accepted);
    }

    // Replay straight from the file.
    TraceWorkloadConfig tcfg;
    tcfg.path = path;
    const MmuCounts replayed =
        replayTrace(MmuKind::NeuMmu, std::move(tcfg));
    expectCountsEqual(recorded, replayed);
}

TEST(TraceRoundTrip, HeaderSourceWithSpecialCharactersRoundTrips)
{
    TraceHeader header;
    header.pageShift = smallPageShift;
    header.source = "sys\twith\"quotes\\and\nnewlines";
    const std::string path =
        testing::TempDir() + "neummu_trace_source.jsonl";
    ASSERT_TRUE(writeTraceJsonl(path, header, {}));
    TraceHeader read_back;
    std::vector<TraceEntry> entries;
    std::string error;
    ASSERT_TRUE(readTraceJsonl(path, read_back, entries, error)) << error;
    EXPECT_EQ(read_back.source, header.source);
    EXPECT_TRUE(entries.empty());
}

TEST(TraceRoundTrip, ReplayReportsItsTranslationActivity)
{
    // The replay drives the translation port directly (no DMA), but
    // its per-workload stats must still reflect the issued traffic.
    TraceRecorder recorder;
    recordSynthetic(MmuKind::NeuMmu, recorder, 64);

    SystemConfig cfg;
    cfg.mmuKind = MmuKind::NeuMmu;
    System system(cfg);
    TraceWorkloadConfig tcfg;
    tcfg.entries = recorder.entries();
    tcfg.header = recorder.header();
    Scheduler scheduler(system);
    scheduler.add(std::make_unique<TraceWorkload>(std::move(tcfg)),
                  0);
    const SchedulerResult r = scheduler.run();
    ASSERT_TRUE(r.allDone);
    EXPECT_EQ(r.workloads[0].translations,
              system.mmu().counts().responses);
    EXPECT_GT(r.workloads[0].bytesFetched, 0u);
}

TEST(TraceRoundTrip, MalformedTraceIsRejected)
{
    const std::string path =
        testing::TempDir() + "neummu_trace_bad.jsonl";
    {
        std::ofstream out(path);
        out << "{\"not_a_trace\":true}\n";
    }
    TraceHeader header;
    std::vector<TraceEntry> entries;
    std::string error;
    EXPECT_FALSE(readTraceJsonl(path, header, entries, error));
    EXPECT_NE(error.find("has no neummu_trace header"), std::string::npos)
        << error;
    EXPECT_FALSE(readTraceJsonl(path + ".missing", header, entries, error));
    EXPECT_NE(error.find("cannot open trace file"), std::string::npos)
        << error;
}

TEST(TraceRoundTrip, BadTraceInputsNameTheirLineAndFailTheBind)
{
    // A line that is not an entry, a [va, va + bytes) that wraps, and
    // one that starts at 2^48 (past the page table's reach) are each
    // rejected with their line number; binding a replay of any of
    // them -- or of a file that is not there, or of a trace recorded
    // at another page size -- throws WorkloadError instead of
    // exiting, so a sweep fails only that job.
    const std::string header_line =
        "{\"neummu_trace\":1,\"pageShift\":12,\"source\":\"t\"}\n";
    const std::string good_line =
        "{\"t\":0,\"va\":4096,\"bytes\":64,\"ok\":true}\n";
    const struct
    {
        const char *name;
        std::string bad_line;
        const char *why;
    } cases[] = {
        {"malformed", "{\"t\":1,\"bytes\":64}\n", "malformed"},
        {"wrapping",
         "{\"t\":1,\"va\":18446744073709551600,\"bytes\":64}\n",
         "48-bit virtual address space"},
        {"beyond_va",
         "{\"t\":1,\"va\":281474976710656,\"bytes\":64}\n",
         "48-bit virtual address space"},
        {"backwards", "{\"t\":0,\"va\":8192,\"bytes\":64}\n"
                      "{\"t\":9,\"va\":8192,\"bytes\":64}\n"
                      "{\"t\":5,\"va\":8192,\"bytes\":64}\n",
         "below the previous line's"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = testing::TempDir() + "neummu_trace_" +
                                 c.name + ".jsonl";
        {
            std::ofstream out(path);
            out << header_line << good_line << c.bad_line;
        }
        TraceHeader header;
        std::vector<TraceEntry> entries;
        std::string error;
        EXPECT_FALSE(readTraceJsonl(path, header, entries, error));
        EXPECT_NE(error.find(c.why), std::string::npos) << error;
        const std::string line =
            std::string(c.name) == "backwards" ? "line 5" : "line 3";
        EXPECT_NE(error.find(line), std::string::npos) << error;

        System system(SystemConfig{});
        Scheduler scheduler(system);
        TraceWorkloadConfig tcfg;
        tcfg.path = path;
        EXPECT_THROW(scheduler.add(
                         std::make_unique<TraceWorkload>(std::move(tcfg)),
                         0),
                     WorkloadError);
    }

    // The last byte of the VA space is still in range.
    const std::string edge = testing::TempDir() + "neummu_trace_edge.jsonl";
    {
        std::ofstream out(edge);
        out << header_line
            << "{\"t\":0,\"va\":281474976710592,\"bytes\":64}\n";
    }
    TraceHeader header;
    std::vector<TraceEntry> entries;
    std::string error;
    EXPECT_TRUE(readTraceJsonl(edge, header, entries, error)) << error;

    // A 2 MB-page trace does not replay on a 4 KB-page system.
    const std::string large =
        testing::TempDir() + "neummu_trace_large.jsonl";
    {
        std::ofstream out(large);
        out << "{\"neummu_trace\":1,\"pageShift\":21}\n" << good_line;
    }
    System large_system(SystemConfig{});
    Scheduler large_scheduler(large_system);
    TraceWorkloadConfig large_cfg;
    large_cfg.path = large;
    EXPECT_THROW(large_scheduler.add(std::make_unique<TraceWorkload>(
                                         std::move(large_cfg)),
                                     0),
                 WorkloadError);

    System system(SystemConfig{});
    Scheduler scheduler(system);
    TraceWorkloadConfig tcfg;
    tcfg.path = testing::TempDir() + "neummu_trace_absent.jsonl";
    try {
        scheduler.add(std::make_unique<TraceWorkload>(std::move(tcfg)), 0);
        ADD_FAILURE() << "a missing trace file bound";
    } catch (const WorkloadError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open trace file"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Multi-tenant scheduling.
// ---------------------------------------------------------------------

TEST(Scheduler, TwoTenantsFinishWithDisjointStats)
{
    SystemConfig cfg;
    cfg.name = "duo";
    cfg.numNpus = 2;
    cfg.mmuKind = MmuKind::NeuMmu;
    System system(cfg);

    DenseDnnWorkloadConfig dense_cfg;
    dense_cfg.workload = WorkloadId::CNN1;
    dense_cfg.batch = 1;
    dense_cfg.layerOverride =
        makeWorkload(WorkloadId::CNN1, 1).layers;
    dense_cfg.layerOverride.resize(1);

    SyntheticWorkloadConfig synth_cfg;
    synth_cfg.pattern = SyntheticPattern::UniformRandom;
    synth_cfg.accesses = 1024;
    synth_cfg.footprintBytes = 16 * MiB;

    Scheduler scheduler(system);
    scheduler.add(
        std::make_unique<DenseDnnWorkload>(dense_cfg), 0);
    scheduler.add(
        std::make_unique<SyntheticWorkload>(synth_cfg), 1);
    const SchedulerResult r = scheduler.run();

    ASSERT_TRUE(r.allDone);
    ASSERT_EQ(r.workloads.size(), 2u);
    EXPECT_GT(r.workloads[0].finishTick, 0u);
    EXPECT_GT(r.workloads[1].finishTick, 0u);
    EXPECT_EQ(r.totalCycles,
              std::max(r.workloads[0].finishTick,
                       r.workloads[1].finishTick));

    // Per-workload counters are disjoint (each slot's DMA serves one
    // tenant) and sum to the shared MMU's totals.
    EXPECT_GT(r.workloads[0].translations, 0u);
    EXPECT_GT(r.workloads[1].translations, 0u);
    EXPECT_EQ(r.workloads[0].translations,
              system.dma(0).translationsIssued());
    EXPECT_EQ(r.workloads[1].translations,
              system.dma(1).translationsIssued());
    EXPECT_EQ(r.workloads[0].translations +
                  r.workloads[1].translations,
              system.mmu().counts().responses);

    // Both tenants registered their stats groups in the registry.
    const stats::StatsRegistry &reg = system.statsRegistry();
    const stats::Group *g0 = reg.find("duo.wl0.dense.CNN-1.b1");
    const stats::Group *g1 = reg.find("duo.wl1.synthetic.uniform");
    ASSERT_NE(g0, nullptr);
    ASSERT_NE(g1, nullptr);
    EXPECT_EQ(g0->scalars().at("finishTick").value(),
              double(r.workloads[0].finishTick));
    EXPECT_EQ(g1->scalars().at("translations").value(),
              double(r.workloads[1].translations));
}

TEST(Scheduler, CoRunsAreReproducibleAcrossRuns)
{
    auto run = [] {
        SystemConfig cfg;
        cfg.numNpus = 2;
        cfg.mmuKind = MmuKind::NeuMmu;
        cfg.seed = 7;
        System system(cfg);
        Scheduler scheduler(system);
        SyntheticWorkloadConfig a;
        a.pattern = SyntheticPattern::UniformRandom;
        a.accesses = 512;
        SyntheticWorkloadConfig b;
        b.pattern = SyntheticPattern::HotSet;
        b.accesses = 512;
        scheduler.add(std::make_unique<SyntheticWorkload>(a), 0);
        scheduler.add(std::make_unique<SyntheticWorkload>(b), 1);
        return scheduler.run();
    };
    const SchedulerResult x = run();
    const SchedulerResult y = run();
    EXPECT_EQ(x.totalCycles, y.totalCycles);
    ASSERT_EQ(x.workloads.size(), y.workloads.size());
    for (std::size_t i = 0; i < x.workloads.size(); i++) {
        EXPECT_EQ(x.workloads[i].finishTick,
                  y.workloads[i].finishTick);
        EXPECT_EQ(x.workloads[i].translations,
                  y.workloads[i].translations);
    }
}

TEST(Scheduler, DerivedSeedsDifferPerSlot)
{
    SystemConfig cfg;
    cfg.numNpus = 2;
    cfg.seed = 5;
    System system(cfg);
    Scheduler scheduler(system);
    SyntheticWorkloadConfig scfg;
    scfg.pattern = SyntheticPattern::UniformRandom;
    scfg.accesses = 16;
    Workload &a = scheduler.add(
        std::make_unique<SyntheticWorkload>(scfg), 0);
    Workload &b = scheduler.add(
        std::make_unique<SyntheticWorkload>(scfg), 1);
    // Same workload name, different slots: independent streams.
    EXPECT_NE(a.derivedSeed(), b.derivedSeed());
}

TEST(Scheduler, AutoPlacementFillsFreeSlots)
{
    SystemConfig cfg;
    cfg.numNpus = 3;
    System system(cfg);
    Scheduler scheduler(system);
    SyntheticWorkloadConfig scfg;
    scfg.accesses = 4;
    Workload &a = scheduler.add(
        std::make_unique<SyntheticWorkload>(scfg));
    scheduler.add(std::make_unique<SyntheticWorkload>(scfg), 1);
    Workload &c = scheduler.add(
        std::make_unique<SyntheticWorkload>(scfg));
    EXPECT_EQ(a.npuSlot(), 0u);
    EXPECT_EQ(c.npuSlot(), 2u);
    EXPECT_TRUE(scheduler.run().allDone);
}

TEST(SchedulerDeath, DoublePlacementOnOneSlotIsCaught)
{
    SystemConfig cfg;
    System system(cfg);
    Scheduler scheduler(system);
    SyntheticWorkloadConfig scfg;
    scheduler.add(std::make_unique<SyntheticWorkload>(scfg), 0);
    EXPECT_DEATH(scheduler.add(
                     std::make_unique<SyntheticWorkload>(scfg), 0),
                 "already has a workload");
}

// ---------------------------------------------------------------------
// Workload factory.
// ---------------------------------------------------------------------

TEST(WorkloadFactory, ParsesSpecGrammar)
{
    const WorkloadSpec spec =
        parseWorkloadSpec("synthetic:pattern=hotset,accesses=2048");
    EXPECT_EQ(spec.kind, "synthetic");
    EXPECT_EQ(spec.params.at("pattern"), "hotset");
    EXPECT_EQ(spec.params.at("accesses"), "2048");
    EXPECT_EQ(parseWorkloadSpec("dense").kind, "dense");
    EXPECT_TRUE(parseWorkloadSpec("dense").params.empty());
}

TEST(WorkloadFactory, ParsesSizeSuffixes)
{
    EXPECT_EQ(parseSizeBytes("4096"), 4096u);
    EXPECT_EQ(parseSizeBytes("4K"), 4096u);
    EXPECT_EQ(parseSizeBytes("2m"), 2u * 1024 * 1024);
    EXPECT_EQ(parseSizeBytes("1G"), 1024u * 1024 * 1024);
}

TEST(WorkloadFactory, BuildsEveryKind)
{
    EXPECT_EQ(makeWorkloadFromSpec("dense:model=RNN1,batch=4")->name(),
              "dense.RNN-1.b4");
    EXPECT_EQ(makeWorkloadFromSpec("embedding:model=ncf,mode=paging")
                  ->name(),
              "embedding.NCF.paging.b4");
    EXPECT_EQ(makeWorkloadFromSpec("synthetic:pattern=chase")->name(),
              "synthetic.chase");
    EXPECT_EQ(
        makeWorkloadFromSpec("trace:path=/tmp/x.jsonl")->name(),
        "trace");
    const auto list = makeWorkloadsFromList(
        "dense:model=CNN1;synthetic:pattern=stride");
    EXPECT_EQ(list.size(), 2u);
}

TEST(WorkloadFactory, ListWorkloadsEnumeratesEveryKind)
{
    const std::vector<std::string> lines = listWorkloads();
    const std::vector<std::string> &kinds = workloadFactoryKinds();
    ASSERT_EQ(lines.size(), kinds.size())
        << "listWorkloads() drifted from the registered kinds";
    for (std::size_t i = 0; i < kinds.size(); i++) {
        // Each line is "<kind>: <param summary>".
        EXPECT_EQ(lines[i].rfind(kinds[i] + ":", 0), 0u)
            << "line '" << lines[i] << "' does not document kind '"
            << kinds[i] << "'";
        EXPECT_GT(lines[i].size(), kinds[i].size() + 2)
            << "kind '" << kinds[i] << "' has no parameter summary";
    }
}

TEST(WorkloadFactory, UnknownNamesEnumerateValidChoices)
{
    // The thrown (Checked) error for an unknown kind lists every
    // registered kind, so a typo tells the user what would work.
    try {
        makeWorkloadFromSpecChecked("warp:speed=9");
        FAIL() << "unknown kind was accepted";
    } catch (const WorkloadError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown workload kind"),
                  std::string::npos);
        for (const std::string &kind : workloadFactoryKinds())
            EXPECT_NE(msg.find(kind), std::string::npos)
                << "error does not mention kind '" << kind << "'";
    }

    // Same for an unknown dense model: all six paper workloads.
    try {
        makeWorkloadFromSpecChecked("dense:model=VGG");
        FAIL() << "unknown model was accepted";
    } catch (const WorkloadError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown dense model"), std::string::npos);
        for (const WorkloadId id : allWorkloads())
            EXPECT_NE(msg.find(workloadName(id)), std::string::npos)
                << "error does not mention " << workloadName(id);
    }
}

TEST(WorkloadFactory, CheckedVariantThrowsInsteadOfExiting)
{
    EXPECT_THROW(makeWorkloadFromSpecChecked("dense:typo=1"),
                 WorkloadError);
    EXPECT_THROW(makeWorkloadsFromListChecked(""), WorkloadError);
    EXPECT_THROW(parseSizeBytesChecked("12q"), WorkloadError);
    EXPECT_EQ(parseSizeBytesChecked("4K"), 4096u);
}

TEST(WorkloadFactory, DenseLayersParamTruncatesTheModel)
{
    auto runTicks = [](std::unique_ptr<Workload> wl) {
        SystemConfig cfg;
        cfg.mmuKind = MmuKind::NeuMmu;
        System system(cfg);
        Scheduler scheduler(system);
        Workload &w = scheduler.add(std::move(wl), 0);
        scheduler.run();
        return w.finishTick();
    };
    DenseDnnWorkloadConfig direct;
    direct.workload = WorkloadId::CNN1;
    direct.batch = 1;
    direct.layerOverride = makeWorkload(WorkloadId::CNN1, 1).layers;
    direct.layerOverride.resize(2);
    EXPECT_EQ(
        runTicks(makeWorkloadFromSpec(
            "dense:model=CNN1,batch=1,layers=2")),
        runTicks(std::make_unique<DenseDnnWorkload>(direct)));
    // A huge layers= is clamped to the model, not an error.
    EXPECT_EQ(
        runTicks(makeWorkloadFromSpec(
            "dense:model=RNN1,batch=1,layers=9999")),
        runTicks(makeWorkloadFromSpec("dense:model=RNN1,batch=1")));
}

TEST(WorkloadFactory, FactoryRunMatchesDirectConstruction)
{
    auto run = [](std::unique_ptr<Workload> wl) {
        SystemConfig cfg;
        cfg.mmuKind = MmuKind::NeuMmu;
        System system(cfg);
        Scheduler scheduler(system);
        Workload &w = scheduler.add(std::move(wl), 0);
        scheduler.run();
        return w.finishTick();
    };
    DenseDnnWorkloadConfig direct;
    direct.workload = WorkloadId::RNN1;
    direct.batch = 1;
    EXPECT_EQ(
        run(makeWorkloadFromSpec("dense:model=RNN1,batch=1")),
        run(std::make_unique<DenseDnnWorkload>(direct)));
}

TEST(WorkloadFactoryDeath, RejectsJunk)
{
    EXPECT_DEATH(makeWorkloadFromSpec("warp:speed=9"),
                 "unknown workload kind");
    EXPECT_DEATH(makeWorkloadFromSpec("dense:model=VGG"),
                 "unknown dense model");
    EXPECT_DEATH(makeWorkloadFromSpec("dense:typo=1"),
                 "unknown dense workload parameter");
    EXPECT_DEATH(makeWorkloadFromSpec("synthetic:pattern=zigzag"),
                 "unknown synthetic pattern");
    EXPECT_DEATH(makeWorkloadFromSpec("trace"), "needs path=");
    EXPECT_DEATH(parseSizeBytes("12q"), "size suffix");
    EXPECT_DEATH(makeWorkloadFromSpec("synthetic:hot=abc"),
                 "malformed number");
    // Out-of-range knobs die at construction, not as a cryptic
    // unmapped-page panic mid-simulation.
    EXPECT_DEATH(makeWorkloadFromSpec("synthetic:hot=1.5"),
                 "hotFraction");
    EXPECT_DEATH(makeWorkloadFromSpec("synthetic:phot=2"),
                 "hotProbability");
}

// ---------------------------------------------------------------------
// Workload lifecycle contracts.
// ---------------------------------------------------------------------

TEST(WorkloadDeath, LifecycleMisuseIsCaught)
{
    SyntheticWorkloadConfig scfg;
    EXPECT_DEATH(SyntheticWorkload(scfg).start([](Tick) {}),
                 "started unbound");

    SystemConfig cfg;
    cfg.numNpus = 1;
    System system(cfg);
    SyntheticWorkload wl(scfg);
    EXPECT_DEATH(wl.bind(system, 5), "bound to NPU slot 5");
}

TEST(Workload, PointerChaseSerializesAccesses)
{
    // Pointer chasing exposes full translation latency: it must be
    // slower per access than the same accesses with MLP.
    auto run = [](SyntheticPattern pattern) {
        SystemConfig cfg;
        cfg.mmuKind = MmuKind::BaselineIommu;
        System system(cfg);
        Scheduler scheduler(system);
        SyntheticWorkloadConfig scfg;
        scfg.pattern = pattern;
        scfg.accesses = 256;
        scfg.footprintBytes = 32 * MiB;
        scfg.seed = 3;
        scheduler.add(std::make_unique<SyntheticWorkload>(scfg), 0);
        return scheduler.run().totalCycles;
    };
    EXPECT_GT(run(SyntheticPattern::PointerChase),
              run(SyntheticPattern::UniformRandom));
}

TEST(Workload, HotSetHitsTlbMoreThanUniform)
{
    auto tlbHitRate = [](SyntheticPattern pattern) {
        SystemConfig cfg;
        cfg.mmuKind = MmuKind::NeuMmu;
        System system(cfg);
        Scheduler scheduler(system);
        SyntheticWorkloadConfig scfg;
        scfg.pattern = pattern;
        scfg.accesses = 4096;
        scfg.footprintBytes = 64 * MiB;
        scfg.accessBytes = 4 * KiB;
        scfg.hotFraction = 0.01;
        scfg.hotProbability = 0.95;
        scfg.seed = 3;
        scheduler.add(std::make_unique<SyntheticWorkload>(scfg), 0);
        scheduler.run();
        const MmuCounts &c = system.mmu().counts();
        return double(c.tlbHits) / double(c.requests);
    };
    EXPECT_GT(tlbHitRate(SyntheticPattern::HotSet),
              tlbHitRate(SyntheticPattern::UniformRandom) + 0.2);
}
