/**
 * @file
 * Golden-stats regression harness: runs a fixed matrix of System
 * configurations (Oracle / baseline IOMMU / NeuMMU crossed with a
 * dense CNN layer stream, a demand-paged embedding gather, a
 * synthetic hot-set stream, a two-tenant co-run, and an eight-NPU
 * open-loop serving pool with churn) and compares the
 * full StatsRegistry JSON dump byte-for-byte against checked-in
 * golden files under tests/golden/.
 *
 * This is what certifies that simulator-kernel optimizations are
 * cycle-exact: every counter of every component (simTicks,
 * eventsExecuted, peakQueueDepth, TLB/walker/PTS activity, DMA stall
 * cycles, per-workload finish ticks, ...) must reproduce bit-identical
 * output. The goldens were generated by the pre-calendar-queue
 * reference kernel.
 *
 * To regenerate after an intentional model change:
 *
 *   ./build/test_golden_stats --update-golden
 *
 * (this test links its own main() so the flag can be stripped before
 * gtest sees it).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/manifest.hh"
#include "sweep/sweep_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

#ifndef NEUMMU_GOLDEN_DIR
#error "NEUMMU_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef NEUMMU_SCRIPTS_DIR
#error "NEUMMU_SCRIPTS_DIR must point at scripts/"
#endif

namespace {

bool g_updateGolden = false;

/** One cell of the golden matrix. */
struct GoldenCase
{
    const char *scenario;
    MmuKind kind;
};

std::string
caseName(const GoldenCase &c)
{
    return std::string(c.scenario) + "_" + mmuKindName(c.kind);
}

std::string
goldenPath(const GoldenCase &c)
{
    return std::string(NEUMMU_GOLDEN_DIR) + "/" + caseName(c) +
           ".json";
}

/**
 * The shared machine description. Everything the scenarios run on is
 * pinned here (seed included), so the dump is a pure function of the
 * (scenario, MMU kind) cell.
 */
SystemConfig
goldenSystemConfig(MmuKind kind, unsigned num_npus = 1)
{
    SystemConfig cfg;
    cfg.name = "golden";
    cfg.seed = 7;
    cfg.mmuKind = kind;
    cfg.numNpus = num_npus;
    return cfg;
}

/** Cycle budget of the open-loop serve8 cell (it never drains). */
constexpr Tick serve8Cycles = 3000000;

/** Run one matrix cell and return the full StatsRegistry JSON. */
std::string
runScenario(const GoldenCase &c)
{
    std::unique_ptr<System> system;
    std::unique_ptr<Scheduler> scheduler;
    Tick limit = maxTick;

    if (std::strcmp(c.scenario, "dense_cnn1") == 0) {
        system =
            std::make_unique<System>(goldenSystemConfig(c.kind));
        scheduler = std::make_unique<Scheduler>(*system);
        DenseDnnWorkloadConfig wl;
        wl.workload = WorkloadId::CNN1;
        wl.batch = 1;
        wl.layerOverride = makeWorkload(WorkloadId::CNN1, 1).layers;
        wl.layerOverride.resize(2);
        scheduler->add(
            std::make_unique<DenseDnnWorkload>(std::move(wl)), 0);
    } else if (std::strcmp(c.scenario, "embedding_gather") == 0) {
        const EmbeddingModelSpec spec = makeDlrm();
        const EmbeddingSystemConfig cluster;
        SystemConfig cfg =
            demandPagingSystemConfig(spec, cluster, c.kind);
        // Pin the shared golden name/seed over the canned machine.
        cfg.name = "golden";
        cfg.seed = 7;
        system = std::make_unique<System>(cfg);
        scheduler = std::make_unique<Scheduler>(*system);
        scheduler->add(std::make_unique<EmbeddingWorkload>(
                           demandPagingWorkloadConfig(spec, 1,
                                                      cluster)),
                       0);
    } else if (std::strcmp(c.scenario, "oversub_gather") == 0) {
        // Page lifecycle on: the same gather with the resident cap
        // pinned at 48 pages (~50% of the batch-1 touched set), so
        // the run exercises steady-state evict + shootdown + refetch
        // through the PagingEngine. Pinning these dumps freezes the
        // whole lifecycle stack: eviction order, shootdown counts,
        // migration timing, and the paging.* group serialization.
        const EmbeddingModelSpec spec = makeDlrm();
        const EmbeddingSystemConfig cluster;
        SystemConfig cfg =
            demandPagingSystemConfig(spec, cluster, c.kind);
        cfg.name = "golden";
        cfg.seed = 7;
        cfg.paging.enabled = true;
        cfg.paging.policy = EvictionPolicy::Clock;
        cfg.paging.residentLimitBytes = 48 * pageSize(cfg.pageShift);
        cfg.paging.faultLatency = cluster.faultHandlerLatency;
        system = std::make_unique<System>(cfg);
        scheduler = std::make_unique<Scheduler>(*system);
        scheduler->add(std::make_unique<EmbeddingWorkload>(
                           demandPagingWorkloadConfig(spec, 1,
                                                      cluster)),
                       0);
    } else if (std::strcmp(c.scenario, "synthetic_hotset") == 0) {
        system =
            std::make_unique<System>(goldenSystemConfig(c.kind));
        scheduler = std::make_unique<Scheduler>(*system);
        scheduler->add(makeWorkloadFromSpec(
            "synthetic:pattern=hotset,footprint=8M,accesses=2048"));
    } else if (std::strcmp(c.scenario, "tenants2") == 0) {
        system = std::make_unique<System>(
            goldenSystemConfig(c.kind, 2));
        scheduler = std::make_unique<Scheduler>(*system);
        scheduler->add(makeWorkloadFromSpec(
            "synthetic:pattern=uniform,footprint=8M,accesses=1024"));
        scheduler->add(makeWorkloadFromSpec(
            "synthetic:pattern=stride,footprint=8M,accesses=1024"));
    } else if (std::strcmp(c.scenario, "serve8") == 0) {
        // Open-loop serving on eight NPUs sharing one routed MMU:
        // bursty arrivals, demand-paged tenants under a resident cap
        // below their aggregate footprint (12 tenants x 16 pages vs
        // 96 pages), and churn. Many DMA ports block on the shared
        // engine at once, so this pins the router's wake fan-out
        // together with paging LRU touches, evictions and shootdowns.
        SystemConfig cfg = goldenSystemConfig(c.kind, 8);
        cfg.paging.enabled = true;
        cfg.paging.residentLimitBytes = 96 * pageSize(cfg.pageShift);
        cfg.paging.faultLatency = 2000;
        cfg.serve.enabled = true;
        cfg.serve.arrival.kind = serving::ArrivalKind::Bursty;
        cfg.serve.arrival.ratePerMcycle = 800.0;
        cfg.serve.tenants = 12;
        cfg.serve.workload = "embedding:footprint=64K,accesses=16";
        cfg.serve.demandPaged = true;
        cfg.serve.tenantLifetimeRequests = 6;
        system = std::make_unique<System>(cfg);
        scheduler = std::make_unique<Scheduler>(*system);
        limit = serve8Cycles;
    } else {
        ADD_FAILURE() << "unknown golden scenario " << c.scenario;
        return "";
    }

    const SchedulerResult result = scheduler->run(limit);
    // Serving never drains: it runs to the cycle limit instead.
    EXPECT_TRUE(result.allDone || limit != maxTick)
        << caseName(c) << ": a workload never completed";

    std::ostringstream os;
    system->dumpStatsJson(os);
    return os.str();
}

class GoldenStats : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

TEST_P(GoldenStats, MatchesGoldenDump)
{
    const GoldenCase &c = GetParam();
    const std::string actual = runScenario(c);
    ASSERT_FALSE(actual.empty());
    const std::string path = goldenPath(c);

    if (g_updateGolden) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << "; run test_golden_stats --update-golden to create it";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(actual, golden.str())
        << caseName(c)
        << ": StatsRegistry dump diverged from the golden reference."
        << " If the simulated model changed intentionally, rerun"
        << " with --update-golden and review the diff; a kernel-only"
        << " (performance) change must never trip this.";
}

/**
 * The matrix's 16 closed-loop cells (all but serve8), expressed as
 * the checked-in sweep manifest (scripts/golden_matrix.jsonl) and
 * executed through the
 * SweepEngine -- serially and 4-wide. Certifies three properties at
 * once:
 *
 * 1. the manifest -> ConfigBinder -> workload-factory path builds
 *    exactly the machines this file builds in C++ (every job's dump
 *    is byte-identical to its golden file),
 * 2. parallel execution is byte-identical to serial execution
 *    (workers share no mutable state), and
 * 3. jobs land at their manifest index in both runs.
 */
TEST(GoldenSweep, ParallelManifestMatchesSerialAndGoldens)
{
    if (g_updateGolden)
        GTEST_SKIP() << "golden files are being regenerated";

    const std::vector<sweep::JobSpec> jobs = sweep::loadManifest(
        std::string(NEUMMU_SCRIPTS_DIR) + "/golden_matrix.jsonl",
        SystemConfig{});
    ASSERT_EQ(jobs.size(), 16u)
        << "scripts/golden_matrix.jsonl must mirror the 16 closed-loop "
           "cells above";

    sweep::SweepOptions serial_opts;
    serial_opts.threads = 1;
    const sweep::SweepResults serial =
        sweep::SweepEngine(serial_opts).run(jobs);
    sweep::SweepOptions parallel_opts;
    parallel_opts.threads = 4;
    const sweep::SweepResults parallel =
        sweep::SweepEngine(parallel_opts).run(jobs);

    EXPECT_EQ(sweep::compareRuns(serial, parallel), "")
        << "parallel sweep diverged from serial execution";

    for (std::size_t i = 0; i < jobs.size(); i++) {
        const sweep::JobResult &job = parallel.jobs[i];
        ASSERT_TRUE(job.ok) << job.id << ": " << job.error;
        EXPECT_EQ(job.id, jobs[i].id) << "result order broke";
        EXPECT_TRUE(job.outcome.allDone) << job.id;

        std::ifstream in(std::string(NEUMMU_GOLDEN_DIR) + "/" +
                             job.id + ".json",
                         std::ios::binary);
        ASSERT_TRUE(in.good())
            << "manifest job " << job.id
            << " has no matching golden file";
        std::ostringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(job.outcome.statsJson, golden.str())
            << job.id
            << ": the manifest/ConfigBinder path no longer builds "
               "the machine this file builds directly";
    }
}

/**
 * The sharded domain kernel's own golden matrix: the same 16 jobs
 * with sim.shards >= 1, which is a DIFFERENT model from the legacy
 * serial kernel (every NPU<->MMU interaction crosses an explicit
 * hopTicks interconnect hop with portCredits flow control), so it
 * pins its own golden files (tests/golden/sharded_<id>.json).
 *
 * Certifies, per job: shards=1 and shards=4 dumps are byte-identical
 * (shard count is an execution knob, not a model parameter), and both
 * match the checked-in sharded golden. --update-golden regenerates
 * the sharded goldens from the shards=1 run.
 */
TEST(GoldenSharded, ShardCountInvariantAndMatchesGoldens)
{
    std::vector<sweep::JobSpec> jobs = sweep::loadManifest(
        std::string(NEUMMU_SCRIPTS_DIR) + "/golden_matrix.jsonl",
        SystemConfig{});
    ASSERT_EQ(jobs.size(), 16u);

    auto with_shards = [&jobs](unsigned shards) {
        std::vector<sweep::JobSpec> out = jobs;
        for (sweep::JobSpec &job : out) {
            job.overrides.emplace_back("sim.shards",
                                       std::to_string(shards));
        }
        sweep::SweepOptions opts;
        opts.threads = 2;
        return sweep::SweepEngine(opts).run(out);
    };

    const sweep::SweepResults one = with_shards(1);
    const sweep::SweepResults four = with_shards(4);

    for (std::size_t i = 0; i < jobs.size(); i++) {
        const sweep::JobResult &a = one.jobs[i];
        const sweep::JobResult &b = four.jobs[i];
        ASSERT_TRUE(a.ok) << a.id << ": " << a.error;
        ASSERT_TRUE(b.ok) << b.id << ": " << b.error;
        EXPECT_TRUE(a.outcome.allDone) << a.id;
        EXPECT_EQ(a.outcome.statsJson, b.outcome.statsJson)
            << a.id << ": sim.shards changed simulated results";

        const std::string path = std::string(NEUMMU_GOLDEN_DIR) +
                                 "/sharded_" + a.id + ".json";
        if (g_updateGolden) {
            std::ofstream out(path,
                              std::ios::binary | std::ios::trunc);
            ASSERT_TRUE(out.good()) << "cannot write " << path;
            out << a.outcome.statsJson;
            continue;
        }
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good())
            << "missing sharded golden " << path
            << "; run test_golden_stats --update-golden";
        std::ostringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(a.outcome.statsJson, golden.str())
            << a.id
            << ": sharded dump diverged from its golden reference."
            << " Kernel-only (performance) changes must never trip"
            << " this; only hopTicks/portCredits model changes"
            << " may, with --update-golden + diff review.";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenStats,
    ::testing::Values(
        GoldenCase{"dense_cnn1", MmuKind::Oracle},
        GoldenCase{"dense_cnn1", MmuKind::BaselineIommu},
        GoldenCase{"dense_cnn1", MmuKind::NeuMmu},
        GoldenCase{"embedding_gather", MmuKind::Oracle},
        GoldenCase{"embedding_gather", MmuKind::BaselineIommu},
        GoldenCase{"embedding_gather", MmuKind::NeuMmu},
        GoldenCase{"synthetic_hotset", MmuKind::Oracle},
        GoldenCase{"synthetic_hotset", MmuKind::BaselineIommu},
        GoldenCase{"synthetic_hotset", MmuKind::NeuMmu},
        GoldenCase{"synthetic_hotset", MmuKind::RangeMmu},
        GoldenCase{"synthetic_hotset", MmuKind::PomTlb},
        GoldenCase{"tenants2", MmuKind::Oracle},
        GoldenCase{"tenants2", MmuKind::BaselineIommu},
        GoldenCase{"tenants2", MmuKind::NeuMmu},
        GoldenCase{"oversub_gather", MmuKind::BaselineIommu},
        GoldenCase{"oversub_gather", MmuKind::NeuMmu},
        GoldenCase{"serve8", MmuKind::BaselineIommu},
        GoldenCase{"serve8", MmuKind::NeuMmu}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return caseName(info.param);
    });

int
main(int argc, char **argv)
{
    // Strip --update-golden before gtest parses the command line.
    int out = 1;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--update-golden") == 0) {
            g_updateGolden = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
