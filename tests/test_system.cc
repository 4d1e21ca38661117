/**
 * @file
 * Tests for the System composition layer: config resolution, machine
 * topology (single NPU, multi-NPU routed, shared memory), the run
 * loop, and the central StatsRegistry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "system/system.hh"

using namespace neummu;

TEST(SystemConfig, ResolvesNamedMmuKinds)
{
    SystemConfig cfg;
    cfg.pageShift = largePageShift;

    cfg.mmuKind = MmuKind::Oracle;
    EXPECT_TRUE(cfg.resolvedMmuConfig().oracle);
    EXPECT_EQ(cfg.resolvedMmuConfig().pageShift, largePageShift);

    cfg.mmuKind = MmuKind::BaselineIommu;
    EXPECT_EQ(cfg.resolvedMmuConfig().numPtws, 8u);
    EXPECT_EQ(cfg.resolvedMmuConfig().prmbSlots, 0u);

    cfg.mmuKind = MmuKind::NeuMmu;
    EXPECT_EQ(cfg.resolvedMmuConfig().numPtws, 128u);
    EXPECT_EQ(cfg.resolvedMmuConfig().prmbSlots, 32u);

    // Custom defers to the explicit config verbatim.
    cfg.mmuKind = MmuKind::Custom;
    cfg.mmu = neuMmuConfig(largePageShift);
    cfg.mmu.numPtws = 17;
    EXPECT_EQ(cfg.resolvedMmuConfig().numPtws, 17u);
}

TEST(System, SingleNpuHasNoRouter)
{
    System sys(SystemConfig{});
    EXPECT_EQ(sys.numNpus(), 1u);
    EXPECT_FALSE(sys.hasRouter());
    // The NPU's translation port is the MMU itself.
    EXPECT_EQ(&sys.translationPort(0),
              static_cast<TranslationEngine *>(&sys.mmu()));
}

TEST(System, MultiNpuSharesOneMmuThroughRouter)
{
    SystemConfig cfg;
    cfg.numNpus = 3;
    cfg.mmuKind = MmuKind::NeuMmu;
    System sys(cfg);

    EXPECT_EQ(sys.numNpus(), 3u);
    ASSERT_TRUE(sys.hasRouter());
    EXPECT_EQ(sys.router().numClients(), 3u);
    // Distinct ports per NPU, none of them the raw MMU.
    EXPECT_NE(&sys.translationPort(0), &sys.translationPort(1));
    EXPECT_NE(&sys.translationPort(0),
              static_cast<TranslationEngine *>(&sys.mmu()));
    // Private memory per NPU by default.
    EXPECT_NE(&sys.memory(0), &sys.memory(1));
    EXPECT_NE(&sys.hbmNode(0), &sys.hbmNode(1));
}

TEST(System, SharedMemoryTopologyUsesOneNode)
{
    SystemConfig cfg;
    cfg.numNpus = 2;
    cfg.sharedMemory = true;
    System sys(cfg);
    EXPECT_EQ(&sys.memory(0), &sys.memory(1));
    EXPECT_EQ(&sys.hbmNode(0), &sys.hbmNode(1));
}

TEST(System, RunDrivesAFetchToCompletion)
{
    SystemConfig cfg;
    cfg.mmuKind = MmuKind::NeuMmu;
    System sys(cfg);

    const Segment seg = sys.addressSpace().allocateBacked(
        "t", 64 * KiB, sys.hbmNode(0), cfg.pageShift);
    Tick done = 0;
    sys.dma(0).fetch({VaRun{seg.base, seg.bytes}},
                     [&](Tick at) { done = at; });
    sys.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(sys.now(), done);
    EXPECT_GT(sys.mmu().counts().requests, 0u);
}

TEST(System, RunChargesTheWaitsOfDmasWokenOnItsLastTick)
{
    // Four routed DMAs contend for the baseline IOMMU's walkers. A
    // woken DMA retries from a round one tick after its wake; a run
    // that stops on the wake tick must still charge the wait up to
    // the wake, so a further charge finds nothing left.
    SystemConfig cfg;
    cfg.numNpus = 4;
    cfg.mmuKind = MmuKind::BaselineIommu;
    System sys(cfg);
    unsigned done = 0;
    for (unsigned i = 0; i < 4; i++) {
        const Segment seg = sys.addressSpace().allocateBacked(
            "t" + std::to_string(i), 64 * KiB, sys.hbmNode(i),
            cfg.pageShift);
        sys.dma(i).fetch({VaRun{seg.base, seg.bytes}},
                         [&done](Tick) { done++; });
    }
    const auto stalls = [&sys] {
        std::uint64_t total = 0;
        for (unsigned i = 0; i < 4; i++)
            total += sys.dma(i).stallCycles();
        return total;
    };
    Tick limit = 0;
    while (done < 4) {
        sys.run(limit++);
        const std::uint64_t charged = stalls();
        sys.router().chargePendingWaits();
        ASSERT_EQ(stalls(), charged) << "wait left uncharged at "
                                     << sys.now();
    }
    EXPECT_GT(stalls(), 0u);
}

TEST(System, ProfiledRunCountsTheRoutersAdmitReports)
{
    // Four routed DMAs refused by the baseline IOMMU's busy walkers:
    // the profiled dump's fastpath group carries the router's admit
    // reports and the scans that passed its refused-page filter.
    SystemConfig cfg;
    cfg.name = "m";
    cfg.numNpus = 4;
    cfg.mmuKind = MmuKind::BaselineIommu;
    cfg.sim.profile = true;
    System sys(cfg);
    for (unsigned i = 0; i < 4; i++) {
        const Segment seg = sys.addressSpace().allocateBacked(
            "t" + std::to_string(i), 256 * KiB, sys.hbmNode(i),
            cfg.pageShift);
        sys.dma(i).fetch({VaRun{seg.base, seg.bytes}}, [](Tick) {});
    }
    sys.run();
    std::ostringstream os;
    sys.dumpStatsText(os);

    const TranslationRouter &router = sys.router();
    EXPECT_GT(router.admitScans(), 0u);
    EXPECT_LT(router.admitScans(), router.admitReports());
    const auto &fast = sys.statsRegistry().group("m.fastpath").scalars();
    EXPECT_EQ(fast.at("routerAdmitReports").value(),
              double(router.admitReports()));
    EXPECT_EQ(fast.at("routerAdmitScans").value(),
              double(router.admitScans()));
}

namespace {

/** What a profiled paged run's dump and MMU report. */
struct PagedProfile
{
    double respondScopes;
    std::uint64_t responses;
    double registerHitsDumped;
    std::uint64_t registerHits;
};

PagedProfile
pagedProfile(MmuKind kind)
{
    SystemConfig cfg;
    cfg.name = "m";
    cfg.numNpus = 2;
    cfg.mmuKind = kind;
    cfg.sim.profile = true;
    cfg.paging.enabled = true;
    System sys(cfg);
    for (unsigned i = 0; i < 2; i++) {
        const Segment seg = sys.addressSpace().allocateBacked(
            "t" + std::to_string(i), 64 * KiB, sys.hbmNode(i),
            cfg.pageShift);
        sys.dma(i).fetch({VaRun{seg.base, seg.bytes}}, [](Tick) {});
    }
    sys.run();
    std::ostringstream os;
    sys.dumpStatsText(os);
    const auto &prof = sys.statsRegistry().group("m.prof").scalars();
    const auto &fast = sys.statsRegistry().group("m.fastpath").scalars();
    return {prof.at("mmuRespondScopes").value(),
            sys.mmu().counts().responses,
            fast.at("xlateRegisterHits").value(),
            sys.mmu().xlateRegisterHits()};
}

} // namespace

TEST(System, PagedRunChargesEveryResponseToMmuRespond)
{
    // With paging on, responses take the page-lifecycle delivery
    // path, which must carry the same profiler scope as the plain one.
    // The fastpath group reports the channel-register hits of every
    // design, POM-TLB's L1 registers included, not only the walker
    // core's.
    for (const MmuKind kind : {MmuKind::BaselineIommu, MmuKind::RangeMmu,
                               MmuKind::PomTlb}) {
        const PagedProfile run = pagedProfile(kind);
        EXPECT_GT(run.responses, 0u) << mmuKindName(kind);
        EXPECT_EQ(run.respondScopes, double(run.responses))
            << mmuKindName(kind);
        EXPECT_EQ(run.registerHitsDumped, double(run.registerHits))
            << mmuKindName(kind);
        if (kind == MmuKind::PomTlb) {
            EXPECT_GT(run.registerHits, 0u);
        }
    }
}

TEST(System, StatsRegistryHoldsEveryComponentGroup)
{
    SystemConfig cfg;
    cfg.name = "m";
    cfg.numNpus = 2;
    System sys(cfg);

    const stats::StatsRegistry &reg = sys.statsRegistry();
    EXPECT_NE(reg.find("m.mmu"), nullptr);
    EXPECT_NE(reg.find("m.router.client0"), nullptr);
    EXPECT_NE(reg.find("m.router.client1"), nullptr);
    EXPECT_NE(reg.find("m.npu0.dma"), nullptr);
    EXPECT_NE(reg.find("m.npu1.mem"), nullptr);
    EXPECT_NE(reg.find("m.sim"), nullptr);
    EXPECT_EQ(reg.find("m.nonexistent"), nullptr);
}

TEST(System, StatsJsonDumpContainsLiveCounters)
{
    SystemConfig cfg;
    cfg.name = "j";
    System sys(cfg);
    const Segment seg = sys.addressSpace().allocateBacked(
        "t", 16 * KiB, sys.hbmNode(0), cfg.pageShift);
    sys.dma(0).fetch({VaRun{seg.base, seg.bytes}}, [](Tick) {});
    sys.run();

    std::ostringstream json;
    sys.dumpStatsJson(json);
    const std::string out = json.str();
    EXPECT_NE(out.find("\"j.npu0.dma\""), std::string::npos);
    EXPECT_NE(out.find("\"translationsIssued\""), std::string::npos);
    EXPECT_NE(out.find("\"j.sim\""), std::string::npos);
    EXPECT_NE(out.find("\"simTicks\""), std::string::npos);
    // Balanced braces: one object per group plus the outer one.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(SystemDeath, MismatchedPageShiftIsCaught)
{
    SystemConfig cfg;
    cfg.mmuKind = MmuKind::Custom;
    cfg.mmu = baselineIommuConfig(smallPageShift);
    cfg.pageShift = largePageShift;
    EXPECT_DEATH(System{cfg}, "page size");
}
