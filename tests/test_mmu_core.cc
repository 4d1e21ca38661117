/**
 * @file
 * Unit tests for MmuCore: oracle behavior, TLB interaction, PTS/PRMB
 * merging, walker-pool backpressure, TPreg level skipping, redundant
 * walks in the baseline IOMMU, and fault handling.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/units.hh"
#include "mmu/mmu_core.hh"
#include "sim/event_queue.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

using namespace neummu;

namespace {

/** Test fixture wiring an MmuCore to a small mapped region. */
class MmuCoreTest : public ::testing::Test
{
  protected:
    MmuCoreTest() : node("host", Addr(1) << 40, 4 * GiB), pt(node) {}

    void
    build(MmuConfig cfg, std::uint64_t pages = 64)
    {
        base = Addr(0x80) << 30;
        for (std::uint64_t i = 0; i < pages; i++) {
            pt.map(base + i * 4096, node.allocate(4096, 4096),
                   smallPageShift);
        }
        mmu = std::make_unique<MmuCore>("mmu", eq, pt, cfg);
        mmu->setResponseCallback([this](const TranslationResponse &r) {
            responses.push_back({eq.now(), r});
        });
        mmu->setWakeCallback([this] { wakes++; });
    }

    FrameAllocator node;
    PageTable pt;
    EventQueue eq;
    std::unique_ptr<MmuCore> mmu;
    Addr base = 0;
    std::vector<std::pair<Tick, TranslationResponse>> responses;
    unsigned wakes = 0;
};

} // namespace

TEST_F(MmuCoreTest, OracleRespondsInstantly)
{
    build(oracleMmuConfig());
    ASSERT_TRUE(mmu->translate(base + 0x123, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].first, 0u); // zero latency
    EXPECT_EQ(responses[0].second.id, 1u);
    EXPECT_EQ(responses[0].second.pa & 0xfff, 0x123u);
    EXPECT_EQ(mmu->counts().walks, 0u);
    EXPECT_EQ(mmu->counts().walkMemAccesses, 0u);
}

TEST_F(MmuCoreTest, ColdMissWalksFourLevels)
{
    build(baselineIommuConfig());
    ASSERT_TRUE(mmu->translate(base, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    // 5 cycles TLB miss detection + 4 x 100 cycles of walk.
    EXPECT_EQ(responses[0].first, 405u);
    EXPECT_EQ(mmu->counts().walks, 1u);
    EXPECT_EQ(mmu->counts().walkMemAccesses, 4u);
    EXPECT_EQ(mmu->counts().tlbMisses, 1u);
}

TEST_F(MmuCoreTest, WalkFillsTlbForLaterHits)
{
    build(baselineIommuConfig());
    ASSERT_TRUE(mmu->translate(base, 1));
    eq.run();
    ASSERT_TRUE(mmu->translate(base + 8, 2));
    const Tick t0 = eq.now();
    eq.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].first - t0, 5u); // TLB hit latency
    EXPECT_EQ(mmu->counts().tlbHits, 1u);
    EXPECT_EQ(mmu->counts().walks, 1u);
}

TEST_F(MmuCoreTest, BaselineIommuDoesRedundantWalksForSamePage)
{
    build(baselineIommuConfig());
    // Both requests target the same page before any walk finishes:
    // the IOMMU has no PTS, so both burn a walker.
    ASSERT_TRUE(mmu->translate(base + 0, 1));
    ASSERT_TRUE(mmu->translate(base + 64, 2));
    EXPECT_EQ(mmu->busyWalkers(), 2u);
    eq.run();
    EXPECT_EQ(mmu->counts().walks, 2u);
    EXPECT_EQ(mmu->counts().redundantWalks, 1u);
    EXPECT_EQ(mmu->counts().prmbMerges, 0u);
}

TEST_F(MmuCoreTest, NeuMmuMergesSamePageIntoPrmb)
{
    build(neuMmuConfig());
    ASSERT_TRUE(mmu->translate(base + 0, 1));
    ASSERT_TRUE(mmu->translate(base + 64, 2));
    ASSERT_TRUE(mmu->translate(base + 128, 3));
    EXPECT_EQ(mmu->busyWalkers(), 1u); // one walk, two merges
    eq.run();
    EXPECT_EQ(mmu->counts().walks, 1u);
    EXPECT_EQ(mmu->counts().prmbMerges, 2u);
    ASSERT_EQ(responses.size(), 3u);
    // Initiator answered at walk completion; merged requests drain
    // one per cycle after it.
    std::map<std::uint64_t, Tick> at;
    for (const auto &[tick, resp] : responses)
        at[resp.id] = tick;
    EXPECT_EQ(at[2], at[1] + 1);
    EXPECT_EQ(at[3], at[1] + 2);
}

TEST_F(MmuCoreTest, MergedResponsesCarryTheirOwnOffsets)
{
    build(neuMmuConfig());
    ASSERT_TRUE(mmu->translate(base + 0x10, 1));
    ASSERT_TRUE(mmu->translate(base + 0x20, 2));
    eq.run();
    for (const auto &[tick, resp] : responses) {
        EXPECT_EQ(resp.pa & 0xfff, resp.va & 0xfff);
    }
}

TEST_F(MmuCoreTest, ReentrantTranslateReusesWalkerDuringPrmbDrain)
{
    // The only walker is released at walk completion, while the two
    // merged responses are still scheduled. The initiator's response
    // issues a walk on another page, which reuses that walker and
    // refills its pending list; the merged responses must not see it.
    MmuConfig cfg = neuMmuConfig();
    cfg.numPtws = 1;
    build(cfg);
    const Addr frame = pt.walk(base).pa & ~Addr(0xfff);
    const Addr other = base + 5 * 4096;
    bool reissued = false;
    mmu->setResponseCallback([&](const TranslationResponse &r) {
        responses.push_back({eq.now(), r});
        if (r.id == 1) {
            reissued = mmu->translate(other + 0x40, 4);
            EXPECT_EQ(mmu->busyWalkers(), 1u);
        }
    });
    ASSERT_TRUE(mmu->translate(base + 0x10, 1));
    ASSERT_TRUE(mmu->translate(base + 0x20, 2));
    ASSERT_TRUE(mmu->translate(base + 0x30, 3));
    eq.run();

    EXPECT_TRUE(reissued);
    ASSERT_EQ(responses.size(), 4u);
    std::map<std::uint64_t, std::pair<Tick, Addr>> got;
    for (const auto &[tick, resp] : responses)
        got[resp.id] = {tick, resp.pa};
    const Tick t = got[1].first;
    EXPECT_EQ(got[1].second, frame | 0x10);
    EXPECT_EQ(got[2], std::make_pair(t + 1, frame | 0x20));
    EXPECT_EQ(got[3], std::make_pair(t + 2, frame | 0x30));
    EXPECT_EQ(got[4].second, pt.walk(other).pa + 0x40);
    EXPECT_EQ(mmu->counts().walks, 2u);
}

TEST_F(MmuCoreTest, PrmbCapacityBlocksFurtherSamePageRequests)
{
    MmuConfig cfg = neuMmuConfig();
    cfg.prmbSlots = 2;
    build(cfg);
    ASSERT_TRUE(mmu->translate(base + 0, 1));
    ASSERT_TRUE(mmu->translate(base + 8, 2));
    ASSERT_TRUE(mmu->translate(base + 16, 3));
    // PRMB(2) is now full: the 4th same-page request is rejected.
    EXPECT_FALSE(mmu->translate(base + 24, 4));
    EXPECT_EQ(mmu->counts().blockedIssues, 1u);
    eq.run();
    EXPECT_EQ(responses.size(), 3u);
}

TEST_F(MmuCoreTest, WalkerPoolExhaustionBlocks)
{
    MmuConfig cfg = baselineIommuConfig();
    cfg.numPtws = 2;
    build(cfg);
    ASSERT_TRUE(mmu->translate(base + 0 * 4096, 1));
    ASSERT_TRUE(mmu->translate(base + 1 * 4096, 2));
    EXPECT_FALSE(mmu->translate(base + 2 * 4096, 3));
    EXPECT_EQ(mmu->counts().blockedIssues, 1u);
    eq.run();
    // A wake fired when walkers freed up.
    EXPECT_GT(wakes, 0u);
}

TEST_F(MmuCoreTest, WakeFiresOnEveryWalkCompletion)
{
    build(baselineIommuConfig());
    ASSERT_TRUE(mmu->translate(base, 1));
    ASSERT_TRUE(mmu->translate(base + 4096, 2));
    eq.run();
    EXPECT_EQ(wakes, 2u);
}

TEST_F(MmuCoreTest, TpRegSkipsSharedPathLevels)
{
    MmuConfig cfg = neuMmuConfig();
    cfg.numPtws = 1; // single walker => sequential TPreg reuse
    build(cfg);
    ASSERT_TRUE(mmu->translate(base, 1));
    eq.run();
    EXPECT_EQ(mmu->counts().walkMemAccesses, 4u);
    // Next page shares L4/L3/L2: only the final level is read.
    ASSERT_TRUE(mmu->translate(base + 4096, 2));
    eq.run();
    EXPECT_EQ(mmu->counts().walkMemAccesses, 5u);
    EXPECT_EQ(mmu->counts().pathCacheSkippedLevels, 3u);
    // And the walk was 1 level: 5 (TLB) + 100 cycles.
    EXPECT_EQ(responses[1].first - responses[0].first, 105u);
}

TEST_F(MmuCoreTest, SharedTpcModeSkipsAcrossWalkers)
{
    MmuConfig cfg = neuMmuConfig();
    cfg.pathCache = MmuCacheKind::Tpc;
    cfg.sharedCacheEntries = 8;
    build(cfg);
    ASSERT_TRUE(mmu->translate(base, 1));
    eq.run();
    ASSERT_TRUE(mmu->translate(base + 4096, 2));
    eq.run();
    ASSERT_NE(mmu->sharedCacheStats(), nullptr);
    EXPECT_EQ(mmu->counts().walkMemAccesses, 5u);
}

TEST_F(MmuCoreTest, SharedUptcModeSkipsAcrossWalkers)
{
    MmuConfig cfg = neuMmuConfig();
    cfg.pathCache = MmuCacheKind::Uptc;
    cfg.sharedCacheEntries = 64;
    build(cfg);
    ASSERT_TRUE(mmu->translate(base, 1));
    eq.run();
    ASSERT_TRUE(mmu->translate(base + 4096, 2));
    eq.run();
    EXPECT_EQ(mmu->counts().walkMemAccesses, 5u);
    EXPECT_GT(mmu->uptcEntryHitRate(), 0.0);
}

TEST_F(MmuCoreTest, FaultHandlerMapsAndDelaysWalk)
{
    build(baselineIommuConfig(), 1);
    const Addr unmapped = base + 16 * 4096;
    unsigned faults = 0;
    mmu->setFaultHandler([&](Addr va, Tick now) -> Tick {
        faults++;
        pt.map(pageBase(va, smallPageShift),
               node.allocate(4096, 4096), smallPageShift);
        return now + 1000; // page resident 1000 cycles later
    });
    ASSERT_TRUE(mmu->translate(unmapped + 4, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(faults, 1u);
    EXPECT_EQ(mmu->counts().faults, 1u);
    // Walk starts only after the page is resident: 1000 + 400.
    EXPECT_EQ(responses[0].first, 1400u);
    EXPECT_TRUE(pt.isMapped(unmapped));
}

TEST_F(MmuCoreTest, OracleFaultStillPaysResidencyLatency)
{
    MmuConfig cfg = oracleMmuConfig();
    build(cfg, 1);
    const Addr unmapped = base + 32 * 4096;
    mmu->setFaultHandler([&](Addr va, Tick now) -> Tick {
        pt.map(pageBase(va, smallPageShift),
               node.allocate(4096, 4096), smallPageShift);
        return now + 777;
    });
    ASSERT_TRUE(mmu->translate(unmapped, 9));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].first, 777u);
}

TEST_F(MmuCoreTest, CountsAreConsistent)
{
    build(neuMmuConfig());
    for (unsigned i = 0; i < 32; i++)
        ASSERT_TRUE(mmu->translate(base + i * 256, i));
    eq.run();
    const MmuCounts &c = mmu->counts();
    EXPECT_EQ(c.requests, 32u);
    EXPECT_EQ(c.responses, 32u);
    EXPECT_EQ(c.tlbHits + c.tlbMisses, c.requests);
    EXPECT_EQ(c.walks + c.prmbMerges, c.tlbMisses);
    EXPECT_EQ(responses.size(), 32u);
}

// --- pool lifecycle -------------------------------------------------
// The PTS scoreboard and in-flight-VPN table live in pooled
// open-addressing slabs; these tests pin that every walk returns its
// entries (no leak), no entry is released twice (the FlatMap erase
// would return false and the live counts would underflow), and the
// high-water marks stay bounded by the walker pool.

TEST_F(MmuCoreTest, PoolsDrainAfterMergedTraffic)
{
    build(neuMmuConfig());
    const unsigned pages = 16, per_page = 4;
    std::uint64_t id = 0;
    for (unsigned p = 0; p < pages; p++)
        for (unsigned r = 0; r < per_page; r++)
            ASSERT_TRUE(mmu->translate(base + p * 4096 + r * 64, id++));
    EXPECT_EQ(mmu->ptsLiveEntries(), pages);
    EXPECT_EQ(mmu->inflightLiveEntries(), pages);
    eq.run();
    EXPECT_EQ(responses.size(), std::size_t(pages) * per_page);
    // Every scoreboard entry and walker came back.
    EXPECT_EQ(mmu->ptsLiveEntries(), 0u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 0u);
    EXPECT_EQ(mmu->busyWalkers(), 0u);
    EXPECT_EQ(mmu->freeWalkers(), mmu->config().numPtws);
    // High-water marks: one entry per concurrently walked page,
    // never more than the walker pool.
    EXPECT_EQ(mmu->ptsHighWater(), pages);
    EXPECT_EQ(mmu->inflightHighWater(), pages);
    EXPECT_LE(mmu->ptsHighWater(), mmu->config().numPtws);
}

TEST_F(MmuCoreTest, PoolsDrainAcrossBlockedPortRejections)
{
    MmuConfig cfg = neuMmuConfig();
    cfg.numPtws = 2;
    cfg.prmbSlots = 1;
    build(cfg);
    // Saturate both walkers and the PRMB, then bounce rejections off
    // the blocked port: rejected issues must not leave entries
    // behind.
    ASSERT_TRUE(mmu->translate(base + 0 * 4096, 1));
    ASSERT_TRUE(mmu->translate(base + 1 * 4096, 2));
    ASSERT_TRUE(mmu->translate(base + 1 * 4096 + 64, 3)); // PRMB merge
    EXPECT_FALSE(mmu->translate(base + 2 * 4096, 4));     // no walker
    EXPECT_FALSE(mmu->translate(base + 1 * 4096 + 96, 5)); // PRMB full
    EXPECT_EQ(mmu->counts().blockedIssues, 2u);
    EXPECT_EQ(mmu->ptsLiveEntries(), 2u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 2u);
    eq.run();
    EXPECT_EQ(mmu->ptsLiveEntries(), 0u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 0u);
    EXPECT_EQ(mmu->freeWalkers(), 2u);
    EXPECT_EQ(mmu->ptsHighWater(), 2u);
    // Retrying the rejected requests after the wake drains cleanly.
    ASSERT_TRUE(mmu->translate(base + 2 * 4096, 4));
    eq.run();
    EXPECT_EQ(mmu->ptsLiveEntries(), 0u);
    EXPECT_EQ(mmu->busyWalkers(), 0u);
}

TEST_F(MmuCoreTest, PoolsDrainAcrossDemandPagingFaults)
{
    MmuConfig cfg = neuMmuConfig();
    cfg.numPtws = 4;
    build(cfg, 1);
    unsigned faults = 0;
    mmu->setFaultHandler([&](Addr va, Tick now) -> Tick {
        faults++;
        pt.map(pageBase(va, smallPageShift),
               node.allocate(4096, 4096), smallPageShift);
        return now + 5000; // long residency gap (far-heap path)
    });
    // Fault on three distinct unmapped pages, with same-page merges
    // riding each faulting walk.
    std::uint64_t id = 0;
    for (unsigned p = 0; p < 3; p++) {
        const Addr va = base + (64 + p) * 4096;
        ASSERT_TRUE(mmu->translate(va, id++));
        ASSERT_TRUE(mmu->translate(va + 128, id++));
    }
    EXPECT_EQ(mmu->inflightLiveEntries(), 3u);
    eq.run();
    EXPECT_EQ(faults, 3u);
    EXPECT_EQ(mmu->counts().faults, 3u);
    EXPECT_EQ(responses.size(), 6u);
    EXPECT_EQ(mmu->ptsLiveEntries(), 0u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 0u);
    EXPECT_EQ(mmu->busyWalkers(), 0u);
    EXPECT_EQ(mmu->freeWalkers(), 4u);
    EXPECT_EQ(mmu->inflightHighWater(), 3u);
}

TEST_F(MmuCoreTest, RedundantWalksShareOneInflightEntry)
{
    // Baseline IOMMU: two walkers can walk the same VPN; the
    // in-flight table must hold ONE entry with multiplicity two and
    // release it exactly once per walk completion.
    build(baselineIommuConfig());
    ASSERT_TRUE(mmu->translate(base + 0, 1));
    ASSERT_TRUE(mmu->translate(base + 64, 2));
    EXPECT_EQ(mmu->busyWalkers(), 2u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 1u); // one VPN, count 2
    eq.run();
    EXPECT_EQ(mmu->counts().redundantWalks, 1u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 0u);
    EXPECT_EQ(mmu->inflightHighWater(), 1u);
    EXPECT_EQ(mmu->freeWalkers(), mmu->config().numPtws);
}

// --- walk-vs-unmap races (shootdown protocol) -----------------------
// A mapping removed while a walk for its page is in flight must never
// let that walk install or return the stale PA: the shootdown marks
// the walker squashed and finishWalk() retries against the current
// page table (squash-or-retry, the subtle half of the coherence
// protocol).

TEST_F(MmuCoreTest, PrmbMergedRequestsSurviveMidWalkUnmap)
{
    build(neuMmuConfig());
    const Addr va = base;
    const Addr old_pa = pt.walk(va).pa;
    // Initiator plus two PRMB merges on the same page.
    ASSERT_TRUE(mmu->translate(va + 0x10, 1));
    ASSERT_TRUE(mmu->translate(va + 0x20, 2));
    ASSERT_TRUE(mmu->translate(va + 0x30, 3));
    EXPECT_EQ(mmu->busyWalkers(), 1u);

    // Let the walk get partway (completion is at 405), then migrate
    // the page: unmap, shoot down, and remap to a fresh frame.
    eq.run(200);
    const UnmapResult um = pt.unmap(va);
    ASSERT_TRUE(um.unmapped);
    mmu->shootdown(va, um);
    const Addr new_frame = node.allocate(4096, 4096);
    pt.map(va, new_frame, smallPageShift);
    ASSERT_NE(new_frame, old_pa & ~Addr(0xfff));

    eq.run();
    ASSERT_EQ(responses.size(), 3u);
    for (const auto &[tick, resp] : responses) {
        // Every merged request resolves to the page's current frame.
        EXPECT_EQ(resp.pa, new_frame | (resp.va & 0xfff));
    }
    EXPECT_EQ(mmu->counts().shootdowns, 1u);
    EXPECT_EQ(mmu->counts().squashedWalks, 1u);
    EXPECT_EQ(mmu->counts().prmbMerges, 2u);
    // The retried walk costs extra page-table reads, never a second
    // logical walk.
    EXPECT_EQ(mmu->counts().walks, 1u);
    EXPECT_EQ(mmu->ptsLiveEntries(), 0u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 0u);
    EXPECT_EQ(mmu->busyWalkers(), 0u);
}

TEST_F(MmuCoreTest, MidWalkUnmapFaultsBackInThroughTheHandler)
{
    build(neuMmuConfig());
    const Addr va = base + 4096;
    Addr refetched_frame = invalidAddr;
    unsigned faults = 0;
    mmu->setFaultHandler([&](Addr fva, Tick now) -> Tick {
        faults++;
        refetched_frame = node.allocate(4096, 4096);
        pt.map(pageBase(fva, smallPageShift), refetched_frame,
               smallPageShift);
        return now + 500;
    });
    ASSERT_TRUE(mmu->translate(va + 8, 7));
    eq.run(200);
    // The page vanishes mid-walk and nobody remaps it: the squashed
    // walk's retry takes the demand-paging path.
    mmu->shootdown(va, pt.unmap(va));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(faults, 1u);
    ASSERT_NE(refetched_frame, invalidAddr);
    EXPECT_EQ(responses[0].second.pa, refetched_frame | 0x8u);
    EXPECT_EQ(mmu->counts().squashedWalks, 1u);
    EXPECT_EQ(mmu->counts().faults, 1u);
}

TEST_F(MmuCoreTest, RedundantWalksAreBothSquashedAndRetried)
{
    // Baseline IOMMU: two walkers redundantly walk the same VPN; the
    // shootdown must squash both, and both retries must resolve to
    // the new frame.
    build(baselineIommuConfig());
    const Addr va = base + 2 * 4096;
    ASSERT_TRUE(mmu->translate(va + 4, 1));
    ASSERT_TRUE(mmu->translate(va + 8, 2));
    EXPECT_EQ(mmu->busyWalkers(), 2u);
    EXPECT_EQ(mmu->counts().redundantWalks, 1u);

    eq.run(100);
    const UnmapResult um = pt.unmap(va);
    mmu->shootdown(va, um);
    const Addr new_frame = node.allocate(4096, 4096);
    pt.map(va, new_frame, smallPageShift);

    eq.run();
    ASSERT_EQ(responses.size(), 2u);
    for (const auto &[tick, resp] : responses)
        EXPECT_EQ(resp.pa, new_frame | (resp.va & 0xfff));
    EXPECT_EQ(mmu->counts().squashedWalks, 2u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 0u);
    EXPECT_EQ(mmu->freeWalkers(), mmu->config().numPtws);
}

TEST_F(MmuCoreTest, ShootdownInvalidatesTlbEntry)
{
    build(baselineIommuConfig());
    const Addr va = base + 3 * 4096;
    ASSERT_TRUE(mmu->translate(va, 1));
    eq.run();
    EXPECT_TRUE(mmu->tlb().probe(va >> smallPageShift));

    const UnmapResult um = pt.unmap(va);
    mmu->shootdown(va, um);
    EXPECT_FALSE(mmu->tlb().probe(va >> smallPageShift));
    pt.map(va, node.allocate(4096, 4096), smallPageShift);

    // The next access misses and re-walks against the new mapping.
    ASSERT_TRUE(mmu->translate(va, 2));
    eq.run();
    EXPECT_EQ(mmu->counts().tlbMisses, 2u);
    EXPECT_EQ(mmu->counts().walks, 2u);
    EXPECT_EQ(responses[1].second.pa, pt.walk(va).pa);
}

TEST_F(MmuCoreTest, SquashedPrefetchWalkOfVanishedPageIsDropped)
{
    MmuConfig cfg = neuMmuConfig();
    cfg.prefetchDepth = 1;
    cfg.numPtws = 2;
    cfg.pathCache = MmuCacheKind::None; // keep walk timing 4-level
    build(cfg);
    // The demand walk for page 0 completes at 405 and launches a
    // speculative walk of page 1 (done at 810).
    ASSERT_TRUE(mmu->translate(base, 1));
    eq.run(600);
    EXPECT_EQ(mmu->busyWalkers(), 1u);
    EXPECT_EQ(mmu->counts().prefetchWalks, 1u);

    // Page 1 vanishes mid-prefetch and nothing remaps it: the retry
    // path drops the speculative walk instead of faulting it back in.
    const Addr pf_page = base + 4096;
    mmu->shootdown(pf_page, pt.unmap(pf_page));
    eq.run();
    EXPECT_EQ(mmu->counts().squashedWalks, 1u);
    EXPECT_EQ(mmu->counts().faults, 0u);
    EXPECT_EQ(mmu->busyWalkers(), 0u);
    EXPECT_EQ(mmu->freeWalkers(), 2u);
    EXPECT_EQ(mmu->inflightLiveEntries(), 0u);
    EXPECT_EQ(responses.size(), 1u);
    EXPECT_FALSE(mmu->tlb().probe(pf_page >> smallPageShift));
}

TEST_F(MmuCoreTest, LifecycleTracksResponseDeliveryWindow)
{
    build(baselineIommuConfig());
    mmu->enableLifecycle();
    const Addr va = base + 5 * 4096;
    const Addr vpn = va >> smallPageShift;
    // Fill the TLB, drain, then issue a hit: during the 5-cycle hit
    // latency the VPN counts as busy so the paging engine will not
    // migrate a page whose translated response is still on the wire.
    ASSERT_TRUE(mmu->translate(va, 1));
    eq.run();
    EXPECT_FALSE(mmu->vpnBusy(vpn));
    ASSERT_TRUE(mmu->translate(va, 2));
    EXPECT_TRUE(mmu->vpnBusy(vpn));
    eq.run();
    EXPECT_FALSE(mmu->vpnBusy(vpn));
    EXPECT_EQ(responses.size(), 2u);
}

TEST_F(MmuCoreTest, VpnBusyCoversInFlightWalks)
{
    build(neuMmuConfig());
    const Addr va = base + 6 * 4096;
    ASSERT_TRUE(mmu->translate(va, 1));
    EXPECT_TRUE(mmu->vpnBusy(va >> smallPageShift));
    EXPECT_FALSE(mmu->vpnBusy((base + 9 * 4096) >> smallPageShift));
    eq.run();
    EXPECT_FALSE(mmu->vpnBusy(va >> smallPageShift));
}

TEST_F(MmuCoreTest, ShootdownScrubsUptcParentSlotOfReclaimedSubtree)
{
    MmuConfig cfg = neuMmuConfig();
    cfg.pathCache = MmuCacheKind::Uptc;
    cfg.sharedCacheEntries = 64;
    build(cfg);
    // A page alone in its own L4 subtree: unmapping it reclaims the
    // whole chain, and the surviving root slot's cached PTE points at
    // a recycled frame.
    const Addr lone = Addr(0x123) << 39;
    pt.map(lone, node.allocate(4096, 4096), smallPageShift);
    ASSERT_TRUE(mmu->translate(lone, 1));
    eq.run();
    EXPECT_EQ(mmu->counts().walkMemAccesses, 4u);

    const UnmapResult um = pt.unmap(lone);
    ASSERT_EQ(um.freedNodes, 3u);
    mmu->shootdown(lone, um);
    pt.map(lone, node.allocate(4096, 4096), smallPageShift);

    // The rebuilt subtree shares no cached PTEs with the old one:
    // the re-walk must read all four levels from memory (a stale
    // root-slot entry would wrongly skip the top level).
    ASSERT_TRUE(mmu->translate(lone, 2));
    eq.run();
    EXPECT_EQ(mmu->counts().walkMemAccesses, 8u);
    EXPECT_EQ(responses[1].second.pa, pt.walk(lone).pa);
}

TEST_F(MmuCoreTest, DoubleShootdownSquashesOnce)
{
    build(neuMmuConfig());
    const Addr va = base + 10 * 4096;
    ASSERT_TRUE(mmu->translate(va, 1));
    eq.run(100);
    const UnmapResult um = pt.unmap(va);
    mmu->shootdown(va, um);
    mmu->shootdown(va, um); // e.g., two tenants racing on the page
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    eq.run();
    EXPECT_EQ(mmu->counts().shootdowns, 2u);
    EXPECT_EQ(mmu->counts().squashedWalks, 1u);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].second.pa, pt.walk(va).pa);
}

TEST_F(MmuCoreTest, LargePageMmuWalksThreeLevels)
{
    // Separate setup: 2 MB mappings.
    base = Addr(0x90) << 30;
    pt.map(base, node.allocate(2 * MiB, 2 * MiB), largePageShift);
    MmuConfig cfg = baselineIommuConfig(largePageShift);
    mmu = std::make_unique<MmuCore>("mmu", eq, pt, cfg);
    mmu->setResponseCallback([this](const TranslationResponse &r) {
        responses.push_back({eq.now(), r});
    });
    ASSERT_TRUE(mmu->translate(base + 0x12345, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].first, 305u); // 5 + 3 x 100
    EXPECT_EQ(mmu->counts().walkMemAccesses, 3u);
    EXPECT_EQ(responses[0].second.pa & pageOffsetMask(largePageShift),
              0x12345u);
}
