/**
 * @file
 * Integration tests for the multi-NPU embedding system (Section V):
 * the Fig. 15 NUMA policies and the Fig. 16 demand-paging study.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/units.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/embedding_workload.hh"

using namespace neummu;

namespace {

EmbeddingSystemConfig
defaultSystem()
{
    return EmbeddingSystemConfig{};
}

/** What these tests read from one demand-paging gather. */
struct Gather
{
    /** Finish tick of the gather plus the dense backend after it. */
    Tick totalCycles = 0;
    std::uint64_t faults = 0;
    std::uint64_t migratedBytes = 0;
    std::uint64_t usefulBytes = 0;
    MmuCounts mmu;
};

/**
 * Fig. 16: gather @p batch samples' embeddings on device 0 of
 * @p cluster, demand-paging remote pages at @p page_shift under
 * @p mmu.
 */
Gather
runGather(const EmbeddingModelSpec &spec, unsigned batch, MmuKind mmu,
          unsigned page_shift, const EmbeddingSystemConfig &cluster,
          std::uint64_t seed = 1)
{
    System system(
        demandPagingSystemConfig(spec, cluster, mmu, page_shift));
    Scheduler scheduler(system);
    const Workload &wl = scheduler.add(
        std::make_unique<EmbeddingWorkload>(
            demandPagingWorkloadConfig(spec, batch, cluster, seed)),
        0);
    EXPECT_TRUE(scheduler.run().allDone);

    const std::uint64_t samples =
        std::max<std::uint64_t>(1, batch / cluster.numNpus);
    auto stat = [&wl](const char *name) {
        return std::uint64_t(wl.stats().scalars().at(name).value());
    };
    Gather out;
    out.totalCycles =
        wl.finishTick() +
        embeddingDenseBackend(spec, samples, cluster).total();
    out.faults = stat("faults");
    out.migratedBytes = stat("migratedBytes");
    out.usefulBytes = stat("usefulBytes");
    out.mmu = system.mmu().counts();
    return out;
}

} // namespace

TEST(EmbeddingInference, BreakdownPartsArePositive)
{
    const EmbeddingModelSpec spec = makeDlrm();
    const LatencyBreakdown lat = computeEmbeddingInference(
        spec, 8, EmbeddingPolicy::HostStagedCopy, defaultSystem());
    EXPECT_GT(lat.gemm, 0u);
    EXPECT_GT(lat.reduction, 0u);
    EXPECT_GT(lat.other, 0u);
    EXPECT_GT(lat.embeddingLookup, 0u);
    EXPECT_EQ(lat.total(),
              lat.gemm + lat.reduction + lat.other + lat.embeddingLookup);
}

TEST(EmbeddingInference, HostCopyDominatedByEmbeddingLookup)
{
    // Fig. 15: the MMU-less baseline spends most of its time moving
    // embeddings through host memory.
    for (const auto &spec : {makeNcf(), makeDlrm()}) {
        const LatencyBreakdown lat = computeEmbeddingInference(
            spec, 64, EmbeddingPolicy::HostStagedCopy, defaultSystem());
        EXPECT_GT(double(lat.embeddingLookup) / double(lat.total()), 0.5)
            << spec.name;
    }
}

TEST(EmbeddingInference, NumaOrderingHolds)
{
    // baseline > NUMA(slow) > NUMA(fast) for every batch size.
    for (const auto &spec : {makeNcf(), makeDlrm()}) {
        for (const unsigned batch : {1u, 8u, 64u}) {
            const Tick base =
                computeEmbeddingInference(spec, batch,
                                          EmbeddingPolicy::HostStagedCopy,
                                          defaultSystem())
                    .total();
            const Tick slow =
                computeEmbeddingInference(spec, batch,
                                          EmbeddingPolicy::NumaSlow,
                                          defaultSystem())
                    .total();
            const Tick fast =
                computeEmbeddingInference(spec, batch,
                                          EmbeddingPolicy::NumaFast,
                                          defaultSystem())
                    .total();
            EXPECT_LT(slow, base) << spec.name << " b" << batch;
            EXPECT_LT(fast, slow) << spec.name << " b" << batch;
        }
    }
}

TEST(EmbeddingInference, NumaFastRecoversMostOfTheLoss)
{
    // Section V: NeuMMU-enabled NUMA(fast) yields ~71% average
    // latency reduction (i.e., >= 3x on the large-batch points).
    const Tick base = computeEmbeddingInference(
                          makeDlrm(), 64,
                          EmbeddingPolicy::HostStagedCopy,
                          defaultSystem())
                          .total();
    const Tick fast =
        computeEmbeddingInference(makeDlrm(), 64,
                                  EmbeddingPolicy::NumaFast,
                                  defaultSystem())
            .total();
    EXPECT_GT(double(base) / double(fast), 2.0);
}

TEST(EmbeddingInference, DenseBackendIndependentOfPolicy)
{
    const EmbeddingModelSpec spec = makeNcf();
    const LatencyBreakdown a = computeEmbeddingInference(
        spec, 8, EmbeddingPolicy::HostStagedCopy, defaultSystem());
    const LatencyBreakdown b = computeEmbeddingInference(
        spec, 8, EmbeddingPolicy::NumaFast, defaultSystem());
    EXPECT_EQ(a.gemm, b.gemm);
    EXPECT_EQ(a.reduction, b.reduction);
    EXPECT_EQ(a.other, b.other);
}

TEST(DemandPaging, OracleFaultsOncePerTouchedPage)
{
    const EmbeddingModelSpec spec = makeDlrm();
    const Gather r = runGather(
        spec, 4, MmuKind::Oracle, smallPageShift, defaultSystem());
    EXPECT_GT(r.faults, 0u);
    EXPECT_EQ(r.migratedBytes, r.faults * 4096);
    EXPECT_EQ(r.mmu.faults, r.faults);
}

TEST(DemandPaging, DesignPointOrderingAtSmallPages)
{
    // Fig. 16 (4 KB): oracle >= NeuMMU >> baseline IOMMU.
    const EmbeddingModelSpec spec = makeDlrm();
    const auto oracle = runGather(spec, 4, MmuKind::Oracle,
                                  smallPageShift, defaultSystem());
    const auto neummu = runGather(spec, 4, MmuKind::NeuMmu,
                                  smallPageShift, defaultSystem());
    const auto iommu = runGather(spec, 4, MmuKind::BaselineIommu,
                                 smallPageShift, defaultSystem());
    EXPECT_LE(oracle.totalCycles, neummu.totalCycles);
    EXPECT_LT(neummu.totalCycles, iommu.totalCycles);
    // NeuMMU recovers most of the oracle's performance...
    EXPECT_GT(double(oracle.totalCycles) / double(neummu.totalCycles),
              0.75);
    // ...while the baseline is several times slower.
    EXPECT_LT(double(oracle.totalCycles) / double(iommu.totalCycles),
              0.5);
}

TEST(DemandPaging, LargePagesBloatMigrationTraffic)
{
    // Section VI-A: 2 MB demand paging moves ~512x the bytes for the
    // same useful data and cannot be saved by NeuMMU.
    const EmbeddingModelSpec spec = makeDlrm();
    const auto small = runGather(spec, 1, MmuKind::NeuMmu,
                                 smallPageShift, defaultSystem());
    const auto large = runGather(spec, 1, MmuKind::NeuMmu,
                                 largePageShift, defaultSystem());
    EXPECT_EQ(small.usefulBytes, large.usefulBytes);
    EXPECT_GT(large.migratedBytes, small.migratedBytes * 100);
    EXPECT_GT(large.totalCycles, small.totalCycles * 10);
}

TEST(DemandPaging, SameSeedSamePageSizeIsDeterministic)
{
    const EmbeddingModelSpec spec = makeNcf();
    const auto a = runGather(spec, 2, MmuKind::NeuMmu, smallPageShift,
                             defaultSystem(), 7);
    const auto b = runGather(spec, 2, MmuKind::NeuMmu, smallPageShift,
                             defaultSystem(), 7);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.faults, b.faults);
}

TEST(DemandPaging, LocalTablesNeverFault)
{
    // Tables congruent to 0 mod numNpus are resident on device 0;
    // with a single NPU everything is local and nothing faults.
    EmbeddingSystemConfig cfg = defaultSystem();
    cfg.numNpus = 1;
    const auto r =
        runGather(makeNcf(), 2, MmuKind::NeuMmu, smallPageShift, cfg);
    EXPECT_EQ(r.faults, 0u);
    EXPECT_EQ(r.migratedBytes, 0u);
}

TEST(DemandPaging, FaultsScaleWithBatch)
{
    const EmbeddingModelSpec spec = makeDlrm();
    EmbeddingSystemConfig cfg = defaultSystem();
    const auto b4 =
        runGather(spec, 4, MmuKind::Oracle, smallPageShift, cfg);
    const auto b16 =
        runGather(spec, 16, MmuKind::Oracle, smallPageShift, cfg);
    EXPECT_GT(b16.faults, b4.faults);
}

TEST(PolicyNames, AreStable)
{
    EXPECT_EQ(policyName(EmbeddingPolicy::HostStagedCopy), "Baseline");
    EXPECT_EQ(policyName(EmbeddingPolicy::NumaSlow), "NUMA(slow)");
    EXPECT_EQ(policyName(EmbeddingPolicy::NumaFast), "NUMA(fast)");
    EXPECT_EQ(mmuKindName(MmuKind::NeuMmu), "NeuMMU");
}
