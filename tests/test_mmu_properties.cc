/**
 * @file
 * Property tests: MmuCore bookkeeping invariants must hold across the
 * whole configuration space the benches sweep. Each parameterized
 * case drives a mixed translation stream (sequential bursts + strided
 * rows + repeats) through one configuration and checks the
 * conservation laws between requests, TLB events, walks, merges, and
 * responses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"
#include "mmu/mmu_core.hh"
#include "sim/event_queue.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

using namespace neummu;

namespace {

/** (numPtws, prmbSlots, pathCache, tlbEntries, prefetchDepth) */
using MmuParams =
    std::tuple<unsigned, unsigned, MmuCacheKind, std::size_t, unsigned>;

class MmuInvariants : public ::testing::TestWithParam<MmuParams>
{
  protected:
    void
    SetUp() override
    {
        responses.clear();
        node = std::make_unique<FrameAllocator>("host", Addr(1) << 40,
                                                8 * GiB);
        pt = std::make_unique<PageTable>(*node);
        eq = std::make_unique<EventQueue>();
        base = Addr(0x50) << 30;
        for (unsigned i = 0; i < 1024; i++) {
            pt->map(base + Addr(i) * 4096, node->allocate(4096, 4096),
                    smallPageShift);
        }

        const auto [ptws, prmb, cache, tlb, prefetch] = GetParam();
        MmuConfig cfg;
        cfg.numPtws = ptws;
        cfg.prmbSlots = prmb;
        cfg.pathCache = cache;
        cfg.sharedCacheEntries = 8;
        cfg.tlb = TlbConfig{tlb, 0, 5};
        cfg.prefetchDepth = prefetch;
        mmu = std::make_unique<MmuCore>("mmu", *eq, *pt, cfg);
        mmu->setResponseCallback([this](const TranslationResponse &r) {
            responses.push_back(r);
        });
    }

    /** Issue @p va, retrying through backpressure until accepted. */
    void
    issue(Addr va, std::uint64_t id)
    {
        while (!mmu->translate(va, id)) {
            // Blocked: progress simulated time until capacity frees.
            ASSERT_TRUE(eq->step()) << "deadlock while blocked";
        }
    }

    std::unique_ptr<FrameAllocator> node;
    std::unique_ptr<PageTable> pt;
    std::unique_ptr<EventQueue> eq;
    std::unique_ptr<MmuCore> mmu;
    std::vector<TranslationResponse> responses;
    Addr base = 0;
};

} // namespace

TEST_P(MmuInvariants, ConservationLawsHoldOnMixedStream)
{
    std::uint64_t id = 0;
    // Sequential burst: 8 sub-page accesses per page over 32 pages.
    for (unsigned p = 0; p < 32; p++)
        for (unsigned b = 0; b < 8; b++)
            issue(base + Addr(p) * 4096 + b * 512, id++);
    // Strided rows: one access every 4 pages.
    for (unsigned r = 0; r < 64; r++)
        issue(base + Addr(r) * 4 * 4096 + 64, id++);
    // Repeat pass over the first pages (TLB reuse window).
    for (unsigned p = 0; p < 16; p++)
        issue(base + Addr(p) * 4096 + 2048, id++);
    eq->run();

    const MmuCounts &c = mmu->counts();
    // Every accepted request is answered exactly once.
    EXPECT_EQ(responses.size(), id);
    EXPECT_EQ(c.responses, id);
    // Requests = accepted issues + rejected issues (each retry of a
    // blocked request counts as a fresh request and TLB re-probe).
    EXPECT_EQ(c.requests, id + c.blockedIssues);
    EXPECT_EQ(c.tlbHits + c.tlbMisses, c.requests);
    // Every miss either starts a demand walk, merges, or bounces.
    EXPECT_EQ((c.walks - c.prefetchWalks) + c.prmbMerges,
              c.tlbMisses - c.blockedIssues);
    // No walker is left busy after drain.
    EXPECT_EQ(mmu->busyWalkers(), 0u);
    // Walk memory traffic is bounded by the radix depth.
    EXPECT_LE(c.walkMemAccesses, c.walks * pageTableLevels);
    EXPECT_GE(c.walkMemAccesses + c.pathCacheSkippedLevels,
              c.walks); // each walk reads >= 1 level or fully skips
}

TEST_P(MmuInvariants, EveryResponseCarriesTheRightFrame)
{
    for (unsigned p = 0; p < 24; p++)
        issue(base + Addr(p) * 4096 + (p * 97) % 4096, p);
    eq->run();
    for (const TranslationResponse &r : responses) {
        const WalkResult wr = pt->walk(r.va);
        ASSERT_TRUE(wr.valid);
        EXPECT_EQ(r.pa, wr.pa) << "va " << r.va;
    }
}

TEST_P(MmuInvariants, ReplayOfSameStreamIsDeterministic)
{
    for (unsigned p = 0; p < 16; p++)
        for (unsigned b = 0; b < 4; b++)
            issue(base + Addr(p) * 4096 + b * 1024,
                  p * 4 + b);
    eq->run();
    const MmuCounts first = mmu->counts();
    const std::size_t first_responses = responses.size();

    SetUp(); // fresh identical stack
    for (unsigned p = 0; p < 16; p++)
        for (unsigned b = 0; b < 4; b++)
            issue(base + Addr(p) * 4096 + b * 1024,
                  p * 4 + b);
    eq->run();
    EXPECT_EQ(mmu->counts().walks, first.walks);
    EXPECT_EQ(mmu->counts().walkMemAccesses, first.walkMemAccesses);
    EXPECT_EQ(mmu->counts().prmbMerges, first.prmbMerges);
    EXPECT_EQ(responses.size(), first_responses);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, MmuInvariants,
    ::testing::Values(
        // Baseline IOMMU and neighbors.
        MmuParams{8, 0, MmuCacheKind::None, 2048, 0},
        MmuParams{1, 0, MmuCacheKind::None, 16, 0},
        MmuParams{8, 0, MmuCacheKind::None, 1, 0},
        // PRMB-only points (Fig. 10).
        MmuParams{8, 1, MmuCacheKind::None, 2048, 0},
        MmuParams{8, 32, MmuCacheKind::None, 2048, 0},
        // Throughput points (Fig. 11).
        MmuParams{128, 32, MmuCacheKind::None, 2048, 0},
        MmuParams{1024, 32, MmuCacheKind::None, 2048, 0},
        // Full NeuMMU and cache variants (Section IV-C/D).
        MmuParams{128, 32, MmuCacheKind::TpReg, 2048, 0},
        MmuParams{128, 32, MmuCacheKind::Tpc, 2048, 0},
        MmuParams{128, 32, MmuCacheKind::Uptc, 2048, 0},
        MmuParams{4, 2, MmuCacheKind::TpReg, 64, 0},
        // Prefetcher variants (extension).
        MmuParams{8, 0, MmuCacheKind::None, 2048, 4},
        MmuParams{128, 32, MmuCacheKind::TpReg, 2048, 8}));

namespace {

/**
 * Drives one MmuCore with a seeded random stream -- bursts of up to
 * 200 requests per tick on a few hot and many cold pages, over four
 * channels, with hot pages shot down now and then -- and checks the
 * admission probe against the translate() right after it, and the
 * refusal watch against later probes. With @p access_hook, a paging
 * access hook is installed too, and each accepted request must touch
 * it once and each refused one not at all.
 */
void
checkAdmissionProbe(const MmuConfig &cfg, std::uint64_t seed,
                    bool access_hook = false)
{
    FrameAllocator node("host", Addr(1) << 40, 8 * GiB);
    PageTable pt(node);
    EventQueue eq;
    const Addr base = Addr(0x50) << 30;
    const unsigned pages = 4096;
    for (unsigned i = 0; i < pages; i++)
        pt.map(base + Addr(i) * 4096, node.allocate(4096, 4096),
               smallPageShift);
    MmuCore mmu("mmu", eq, pt, cfg);
    mmu.setResponseCallback([](const TranslationResponse &) {});
    std::uint64_t touches = 0;
    if (access_hook)
        mmu.setAccessHook([&touches](Addr) { touches++; });

    // Recent refusals, each with "its page was reported since".
    std::vector<std::pair<Addr, bool>> refused;
    mmu.setAdmitWatch([&refused](Addr vpn, unsigned page_shift) {
        for (auto &[va, reported] : refused) {
            if ((va >> page_shift) == vpn)
                reported = true;
        }
    });
    std::uint64_t holds_checked = 0;
    const auto check_holds = [&] {
        if (!mmu.refusalsHold())
            return;
        for (const auto &[va, reported] : refused) {
            if (!reported) {
                holds_checked++;
                EXPECT_FALSE(mmu.admits(va)) << "va " << va;
            }
        }
    };

    Rng rng(seed);
    std::uint64_t id = 0, accepted = 0, rejected = 0;
    for (unsigned round = 0; round < 400; round++) {
        const std::uint64_t burst = rng.range(200);
        for (std::uint64_t i = 0; i < burst; i++) {
            const Addr page = rng.range(4) == 0 ? rng.range(8)
                                                : rng.range(pages);
            const Addr va = base + page * 4096 + rng.range(4096);
            const std::uint64_t tagged = (rng.range(4) << 56) | id++;
            const bool admits = mmu.admits(va);
            const std::uint64_t touched_before = touches;
            const bool took = mmu.translate(va, tagged);
            ASSERT_EQ(admits, took) << "round " << round << " va " << va;
            if (access_hook) {
                ASSERT_EQ(touches - touched_before, took ? 1u : 0u)
                    << "round " << round << " va " << va;
            }
            if (took) {
                accepted++;
                continue;
            }
            rejected++;
            refused.erase(std::remove_if(refused.begin(), refused.end(),
                                         [va](const auto &r) {
                                             return r.first == va;
                                         }),
                          refused.end());
            if (refused.size() == 64)
                refused.erase(refused.begin());
            refused.emplace_back(va, false);
            check_holds();
        }
        // Shoot down a hot page now and then: its re-walk fills up
        // with merges and squashes in-flight walks.
        if (rng.range(4) == 0)
            mmu.invalidate(base + rng.range(8) * 4096);
        // Advance the clock even when no event is due before then.
        const Tick next = eq.now() + 1 + rng.range(120);
        eq.schedule(next, [] {});
        eq.run(next);
        check_holds();
    }
    eq.run();

    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(holds_checked, 0u);
    if (access_hook) {
        EXPECT_EQ(touches, accepted);
    }
    if (cfg.prmbSlots > 0) {
        EXPECT_GT(mmu.counts().prmbMerges, 0u);
    }
    if (cfg.prefetchDepth > 0) {
        EXPECT_GT(mmu.counts().prefetchWalks, 0u);
    }
}

} // namespace

TEST(AdmissionProbe, AgreesWithTranslateOnBaseline)
{
    checkAdmissionProbe(baselineIommuConfig(), 1);
}

TEST(AdmissionProbe, AgreesWithTranslateOnNeuMmu)
{
    checkAdmissionProbe(neuMmuConfig(), 2);
}

TEST(AdmissionProbe, AgreesWithTranslateOnPrefetchingCustomCore)
{
    MmuConfig cfg;
    cfg.numPtws = 16;
    cfg.prmbSlots = 4;
    cfg.pathCache = MmuCacheKind::TpReg;
    cfg.tlb = TlbConfig{64, 4, 5};
    cfg.prefetchDepth = 2;
    checkAdmissionProbe(cfg, 3);
}

TEST(AdmissionProbe, AgreesWithTranslateUnderAccessHook)
{
    // A refused request touches no page recency, so the probe and the
    // refusal watch stay exact with the paging engine's hook in place.
    checkAdmissionProbe(baselineIommuConfig(), 4, true);
    checkAdmissionProbe(neuMmuConfig(), 5, true);
}

TEST(AdmissionProbe, AlwaysAdmitsForOracle)
{
    FrameAllocator node("host", Addr(1) << 40, 8 * GiB);
    PageTable pt(node);
    EventQueue eq;
    const Addr base = Addr(0x50) << 30;
    for (unsigned i = 0; i < 16; i++)
        pt.map(base + Addr(i) * 4096, node.allocate(4096, 4096),
               smallPageShift);

    // No walkers at all: the oracle never needs one.
    MmuConfig oracle_cfg = oracleMmuConfig();
    oracle_cfg.numPtws = 0;
    MmuCore oracle("oracle", eq, pt, oracle_cfg);
    oracle.setResponseCallback([](const TranslationResponse &) {});
    oracle.setAdmitWatch([](Addr, unsigned) {});
    unsigned touched = 0;
    oracle.setAccessHook([&touched](Addr) { touched++; });
    for (unsigned i = 0; i < 16; i++) {
        const Addr va = base + Addr(i) * 4096;
        EXPECT_TRUE(oracle.admits(va));
        EXPECT_TRUE(oracle.translate(va, i));
    }
    EXPECT_FALSE(oracle.refusalsHold());
    // Every oracle request is accepted, so every one touches recency.
    EXPECT_EQ(touched, 16u);
}
