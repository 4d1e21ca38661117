/**
 * @file
 * Integration tests: full dense runs through the Scheduler, verifying
 * the paper's qualitative results hold end to end, plus monotonicity
 * properties over the MMU design space.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "mmu/energy_model.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"

using namespace neummu;

namespace {

/** What these tests read from one finished dense run. */
struct DenseRun
{
    Tick totalCycles = 0;
    MmuCounts mmu;
    TpReg::MatchStats tpreg;
    double translationEnergyNj = 0.0;
    std::vector<LayerResult> layers;
};

/** A full workload at batch 1. */
DenseDnnWorkloadConfig
fullWorkload(WorkloadId id)
{
    DenseDnnWorkloadConfig wl;
    wl.workload = id;
    wl.batch = 1;
    return wl;
}

/** A small, fast workload: the first two AlexNet layers. */
DenseDnnWorkloadConfig
smallWorkload()
{
    DenseDnnWorkloadConfig wl = fullWorkload(WorkloadId::CNN1);
    wl.layerOverride = makeWorkload(WorkloadId::CNN1, 1).layers;
    wl.layerOverride.resize(2); // conv1 + conv2 only
    return wl;
}

/**
 * Run @p wl alone on NPU 0 of a fresh machine: @p sys with its MMU
 * set to @p mmu.
 */
DenseRun
runDense(const MmuConfig &mmu,
         DenseDnnWorkloadConfig wl = smallWorkload(),
         SystemConfig sys = {})
{
    sys.mmu = mmu;
    System system(sys);
    Scheduler scheduler(system);
    const Workload &w = scheduler.add(
        std::make_unique<DenseDnnWorkload>(std::move(wl)), 0);
    EXPECT_TRUE(scheduler.run().allDone);

    DenseRun out;
    out.totalCycles = system.now();
    out.mmu = system.mmu().counts();
    out.tpreg = system.mmuCore().tpregStats();
    out.translationEnergyNj = system.mmu().translationEnergyNj();
    out.layers = static_cast<const DenseDnnWorkload &>(w).layers();
    return out;
}

/**
 * Performance of @p wl under @p mmu normalized to the oracular MMU
 * on the same machine @p sys (the paper's headline metric).
 */
double
normalizedToOracle(const MmuConfig &mmu,
                   const DenseDnnWorkloadConfig &wl,
                   SystemConfig sys = {})
{
    const Tick run = runDense(mmu, wl, sys).totalCycles;
    sys.mmuKind = MmuKind::Oracle;
    return double(runDense(mmu, wl, sys).totalCycles) / double(run);
}

} // namespace

TEST(DenseIntegration, OracleIsFastestDesignPoint)
{
    const Tick oracle = runDense(oracleMmuConfig()).totalCycles;
    const Tick iommu = runDense(baselineIommuConfig()).totalCycles;
    const Tick neummu = runDense(neuMmuConfig()).totalCycles;
    EXPECT_LT(oracle, iommu);
    EXPECT_LE(oracle, neummu);
    EXPECT_LT(neummu, iommu);
}

TEST(DenseIntegration, BaselineIommuLosesMostPerformance)
{
    // Fig. 8: the baseline IOMMU runs at a small fraction of oracle.
    const double norm = normalizedToOracle(
        baselineIommuConfig(), fullWorkload(WorkloadId::RNN2));
    EXPECT_LT(norm, 0.25);
}

TEST(DenseIntegration, NeuMmuIsWithinAFewPercentOfOracle)
{
    // Section IV-D: NeuMMU's overhead is negligible.
    for (const WorkloadId id :
         {WorkloadId::CNN1, WorkloadId::RNN1, WorkloadId::RNN3}) {
        EXPECT_GT(normalizedToOracle(neuMmuConfig(), fullWorkload(id)),
                  0.95)
            << workloadName(id);
    }
}

TEST(DenseIntegration, MorePtwsNeverHurt)
{
    // Fig. 11: performance is monotone in walker count.
    Tick prev = maxTick;
    for (const unsigned ptws : {8u, 32u, 128u}) {
        MmuConfig mmu = neuMmuConfig();
        mmu.numPtws = ptws;
        const Tick cycles = runDense(mmu).totalCycles;
        EXPECT_LE(cycles, prev) << ptws;
        prev = cycles;
    }
}

TEST(DenseIntegration, MorePrmbSlotsNeverHurt)
{
    // Fig. 10: merging capacity is monotone too.
    Tick prev = maxTick;
    for (const unsigned slots : {1u, 4u, 16u, 32u}) {
        MmuConfig mmu = neuMmuConfig();
        mmu.numPtws = 8;
        mmu.prmbSlots = slots;
        const Tick cycles = runDense(mmu).totalCycles;
        EXPECT_LE(cycles, prev) << slots;
        prev = cycles;
    }
}

TEST(DenseIntegration, PrmbFiltersWalks)
{
    // PRMB merges same-page bursts: walks drop, merges appear.
    MmuConfig no_prmb = baselineIommuConfig();
    no_prmb.numPtws = 128;
    const DenseRun without = runDense(no_prmb);

    MmuConfig with_prmb = no_prmb;
    with_prmb.prmbSlots = 32;
    const DenseRun with = runDense(with_prmb);

    EXPECT_LT(with.mmu.walks, without.mmu.walks);
    EXPECT_GT(with.mmu.prmbMerges, 0u);
    EXPECT_GT(without.mmu.redundantWalks, 0u);
    EXPECT_EQ(with.mmu.redundantWalks, 0u);
}

TEST(DenseIntegration, TpRegCutsWalkMemoryAccesses)
{
    MmuConfig no_tpreg = neuMmuConfig();
    no_tpreg.pathCache = MmuCacheKind::None;
    const DenseRun without = runDense(no_tpreg);

    const DenseRun with = runDense(neuMmuConfig());

    // Same walks, fewer DRAM accesses (Section IV-C: >2.5x).
    EXPECT_GT(double(without.mmu.walkMemAccesses) /
                  double(with.mmu.walkMemAccesses),
              2.0);
    EXPECT_LT(with.translationEnergyNj, without.translationEnergyNj);
}

TEST(DenseIntegration, TpRegUpperLevelsHitAlmostAlways)
{
    // Fig. 13: L4/L3 tag hit rates ~99.5%.
    const DenseRun r =
        runDense(neuMmuConfig(), fullWorkload(WorkloadId::CNN1));
    ASSERT_GT(r.tpreg.consults, 0u);
    const double l4 = double(r.tpreg.hits[0]) / double(r.tpreg.consults);
    const double l3 = double(r.tpreg.hits[1]) / double(r.tpreg.consults);
    const double l2 = double(r.tpreg.hits[2]) / double(r.tpreg.consults);
    EXPECT_GT(l4, 0.95);
    EXPECT_GT(l3, 0.95);
    EXPECT_LT(l2, l3); // streaming erodes the 2 MB-granular L2 tag
}

TEST(DenseIntegration, NeuMmuUsesLessEnergyThanIommu)
{
    // Section IV-D: 16.3x energy reduction; assert a large factor.
    const DenseRun iommu = runDense(baselineIommuConfig());
    const DenseRun neummu = runDense(neuMmuConfig());
    EXPECT_GT(iommu.translationEnergyNj /
                  neummu.translationEnergyNj,
              4.0);
    EXPECT_GT(double(iommu.mmu.walkMemAccesses) /
                  double(neummu.mmu.walkMemAccesses),
              4.0);
}

TEST(DenseIntegration, LargePagesShrinkTranslationCountForDenseLayers)
{
    SystemConfig large;
    large.pageShift = largePageShift;
    const DenseRun rs = runDense(baselineIommuConfig());
    const DenseRun rl = runDense(baselineIommuConfig(largePageShift),
                                 smallWorkload(), large);
    // Fewer distinct pages -> far fewer walks (Section VI-A).
    EXPECT_LT(rl.mmu.walks * 10, rs.mmu.walks);
    EXPECT_LT(rl.totalCycles, rs.totalCycles);
}

TEST(DenseIntegration, SpatialNpuAlsoBenefitsFromNeuMmu)
{
    // Section VI-B: NeuMMU's conclusions transfer to spatial arrays.
    // Use a memory-bound workload; compute-bound conv layers hide
    // translation latency on any substrate.
    const DenseDnnWorkloadConfig wl = fullWorkload(WorkloadId::RNN2);
    SystemConfig spatial;
    spatial.npu.compute = ComputeKind::Spatial;
    const double neummu = normalizedToOracle(neuMmuConfig(), wl, spatial);
    const double iommu =
        normalizedToOracle(baselineIommuConfig(), wl, spatial);
    EXPECT_GT(neummu, 0.9);
    EXPECT_LT(iommu, 0.6);
}

TEST(DenseIntegration, ResultsAreDeterministic)
{
    const DenseRun a = runDense(neuMmuConfig());
    const DenseRun b = runDense(neuMmuConfig());
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.mmu.walks, b.mmu.walks);
    EXPECT_EQ(a.mmu.walkMemAccesses, b.mmu.walkMemAccesses);
}

TEST(DenseIntegration, PerLayerResultsSumToTotalActivity)
{
    const DenseRun r = runDense(neuMmuConfig());
    std::uint64_t translations = 0;
    for (const LayerResult &lr : r.layers) {
        EXPECT_GT(lr.cycles, 0u);
        EXPECT_GT(lr.tiles, 0u);
        translations += lr.translations;
    }
    EXPECT_EQ(translations, r.mmu.requests);
}

TEST(DenseIntegration, SramCostMatchesSectionFourE)
{
    const NeuMmuSramCost cost;
    EXPECT_EQ(cost.prmbBytes(), 32u * KiB);
    EXPECT_EQ(cost.tpregTotalBytes(), 2u * KiB);
    EXPECT_EQ(cost.ptsBytes(), 768u);
}

TEST(DenseIntegrationDeath, MismatchedPageShiftIsCaught)
{
    SystemConfig cfg;
    cfg.pageShift = largePageShift; // mmu still expects 4 KB
    EXPECT_DEATH(runDense(baselineIommuConfig(), smallWorkload(), cfg),
                 "page size");
}
