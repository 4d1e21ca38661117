/**
 * @file
 * Unit tests for the TPreg and the shared TPC/UPTC MMU caches
 * (Section IV-C design space).
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "mmu/mmu_cache.hh"
#include "mmu/tpreg.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

using namespace neummu;

namespace {

Addr
makeVa(unsigned l4, unsigned l3, unsigned l2, unsigned l1)
{
    return (Addr(l4) << 39) | (Addr(l3) << 30) | (Addr(l2) << 21) |
           (Addr(l1) << 12);
}

class PathCacheTest : public ::testing::Test
{
  protected:
    PathCacheTest() : node("host", Addr(1) << 40, 4 * GiB), pt(node) {}

    WalkResult
    mapAndWalk(Addr va)
    {
        if (!pt.isMapped(va))
            pt.map(pageBase(va, smallPageShift),
                   node.allocate(4096, 4096), smallPageShift);
        return pt.walk(va);
    }

    FrameAllocator node;
    PageTable pt;
};

} // namespace

TEST_F(PathCacheTest, TpRegStartsInvalid)
{
    TpReg reg;
    TpReg::MatchStats st;
    EXPECT_FALSE(reg.valid());
    EXPECT_EQ(reg.match(makeVa(1, 2, 3, 4), 3, st), 0u);
    EXPECT_EQ(st.consults, 1u);
    EXPECT_EQ(st.hits[0], 0u);
}

TEST_F(PathCacheTest, TpRegFullPrefixMatchSkipsThreeLevels)
{
    TpReg reg;
    TpReg::MatchStats st;
    const Addr va = makeVa(1, 2, 3, 4);
    reg.update(va, mapAndWalk(va));
    // Same 2 MB region, different L1 index: full L4/L3/L2 match.
    EXPECT_EQ(reg.match(makeVa(1, 2, 3, 9), 3, st), 3u);
    EXPECT_EQ(st.hits[0], 1u);
    EXPECT_EQ(st.hits[1], 1u);
    EXPECT_EQ(st.hits[2], 1u);
}

TEST_F(PathCacheTest, TpRegPartialPrefixes)
{
    TpReg reg;
    TpReg::MatchStats st;
    const Addr va = makeVa(1, 2, 3, 4);
    reg.update(va, mapAndWalk(va));

    EXPECT_EQ(reg.match(makeVa(1, 2, 9, 0), 3, st), 2u); // L4+L3
    EXPECT_EQ(reg.match(makeVa(1, 9, 3, 0), 3, st), 1u); // L4 only
    EXPECT_EQ(reg.match(makeVa(9, 2, 3, 0), 3, st), 0u); // nothing
    EXPECT_EQ(st.hits[0], 2u);
    EXPECT_EQ(st.hits[1], 1u);
    EXPECT_EQ(st.hits[2], 0u);
}

TEST_F(PathCacheTest, TpRegClampsToMaxSkippable)
{
    TpReg reg;
    TpReg::MatchStats st;
    const Addr va = makeVa(1, 2, 3, 4);
    reg.update(va, mapAndWalk(va));
    // 2 MB mappings walk 3 levels, so at most 2 are skippable.
    EXPECT_EQ(reg.match(makeVa(1, 2, 3, 7), 2, st), 2u);
}

TEST_F(PathCacheTest, TpRegIgnoresFailedWalks)
{
    TpReg reg;
    WalkResult invalid;
    invalid.valid = false;
    reg.update(makeVa(1, 2, 3, 4), invalid);
    EXPECT_FALSE(reg.valid());
}

TEST_F(PathCacheTest, TpRegUpdatesToLatestWalk)
{
    TpReg reg;
    TpReg::MatchStats st;
    reg.update(makeVa(1, 2, 3, 4), mapAndWalk(makeVa(1, 2, 3, 4)));
    reg.update(makeVa(5, 6, 7, 8), mapAndWalk(makeVa(5, 6, 7, 8)));
    EXPECT_EQ(reg.match(makeVa(1, 2, 3, 0), 3, st), 0u);
    EXPECT_EQ(reg.match(makeVa(5, 6, 7, 0), 3, st), 3u);
}

TEST_F(PathCacheTest, TpcPrefixMatchAcrossEntries)
{
    TranslationPathCache tpc(4);
    tpc.update(makeVa(1, 2, 3, 4), mapAndWalk(makeVa(1, 2, 3, 4)));
    tpc.update(makeVa(1, 5, 6, 7), mapAndWalk(makeVa(1, 5, 6, 7)));

    EXPECT_EQ(tpc.lookup(makeVa(1, 2, 3, 9), 3), 3u); // exact path
    EXPECT_EQ(tpc.lookup(makeVa(1, 5, 9, 0), 3), 2u); // via 2nd entry
    EXPECT_EQ(tpc.lookup(makeVa(1, 9, 9, 0), 3), 1u); // L4 only
    EXPECT_EQ(tpc.lookup(makeVa(8, 8, 8, 8), 3), 0u);
}

TEST_F(PathCacheTest, TpcLruEviction)
{
    TranslationPathCache tpc(2);
    tpc.update(makeVa(1, 1, 1, 0), mapAndWalk(makeVa(1, 1, 1, 0)));
    tpc.update(makeVa(2, 2, 2, 0), mapAndWalk(makeVa(2, 2, 2, 0)));
    // Touch (1,1,1) so (2,2,2) is LRU, then insert a third path.
    EXPECT_EQ(tpc.lookup(makeVa(1, 1, 1, 5), 3), 3u);
    tpc.update(makeVa(3, 3, 3, 0), mapAndWalk(makeVa(3, 3, 3, 0)));
    EXPECT_EQ(tpc.size(), 2u);
    EXPECT_EQ(tpc.lookup(makeVa(2, 2, 2, 5), 3), 0u); // evicted
    EXPECT_EQ(tpc.lookup(makeVa(1, 1, 1, 5), 3), 3u);
}

TEST_F(PathCacheTest, TpcDuplicateUpdateDoesNotGrow)
{
    TranslationPathCache tpc(4);
    const Addr va = makeVa(1, 2, 3, 4);
    tpc.update(va, mapAndWalk(va));
    tpc.update(makeVa(1, 2, 3, 9), mapAndWalk(makeVa(1, 2, 3, 9)));
    EXPECT_EQ(tpc.size(), 1u); // same L4/L3/L2 path
}

TEST_F(PathCacheTest, UptcChainRequiresConsecutiveHits)
{
    UnifiedPageTableCache uptc(16);
    const Addr va = makeVa(1, 2, 3, 4);
    const WalkResult wr = mapAndWalk(va);
    uptc.update(wr, pt.entryPath(va), 3);
    // Same walk now chains through L4/L3/L2 entries.
    EXPECT_EQ(uptc.lookup(wr, pt.entryPath(va), 3), 3u);

    // A walk sharing only L4 with the cached path chains one level.
    const Addr other_va = makeVa(1, 7, 7, 7);
    const WalkResult other = mapAndWalk(other_va);
    EXPECT_EQ(uptc.lookup(other, pt.entryPath(other_va), 3), 1u);
}

TEST_F(PathCacheTest, UptcMissAtRootSkipsNothing)
{
    UnifiedPageTableCache uptc(16);
    const Addr va_a = makeVa(1, 2, 3, 4), va_b = makeVa(9, 2, 3, 4);
    const WalkResult a = mapAndWalk(va_a);
    const WalkResult b = mapAndWalk(va_b);
    uptc.update(a, pt.entryPath(va_a), 3);
    EXPECT_EQ(uptc.lookup(b, pt.entryPath(va_b), 3), 0u);
    // Per-entry hit-rate accounting: 1 lookup, 0 hits so far...
    EXPECT_EQ(uptc.entryLookups(), 1u);
    EXPECT_EQ(uptc.entryHits(), 0u);
}

TEST_F(PathCacheTest, UptcCapacityEviction)
{
    UnifiedPageTableCache uptc(3); // holds exactly one 3-entry path
    const Addr va_a = makeVa(1, 2, 3, 4), va_b = makeVa(4, 5, 6, 7);
    const WalkResult a = mapAndWalk(va_a);
    uptc.update(a, pt.entryPath(va_a), 3);
    EXPECT_EQ(uptc.lookup(a, pt.entryPath(va_a), 3), 3u);
    const WalkResult b = mapAndWalk(va_b);
    uptc.update(b, pt.entryPath(va_b), 3);
    EXPECT_EQ(uptc.size(), 3u);
    EXPECT_EQ(uptc.lookup(b, pt.entryPath(va_b), 3), 3u);
    EXPECT_EQ(uptc.lookup(a, pt.entryPath(va_a), 3), 0u); // fully evicted
}

TEST_F(PathCacheTest, UptcNeedsThreeEntriesPerPathTpcNeedsOne)
{
    // The capacity asymmetry that makes TPC the better design
    // (Section IV-C): one path costs TPC 1 entry but UPTC 3.
    TranslationPathCache tpc(1);
    UnifiedPageTableCache uptc(1);
    const Addr va = makeVa(1, 2, 3, 4);
    const WalkResult wr = mapAndWalk(va);
    tpc.update(va, wr);
    uptc.update(wr, pt.entryPath(va), 3);
    EXPECT_EQ(tpc.lookup(makeVa(1, 2, 3, 8), 3), 3u);
    // UPTC kept only the most recent entry (L2); the chain from the
    // root misses immediately.
    EXPECT_EQ(uptc.lookup(wr, pt.entryPath(va), 3), 0u);
}

TEST_F(PathCacheTest, UptcCachesLeafEntriesToo)
{
    // Barr-style unified caches mix all levels, including the L1 PTE:
    // a full chain hit resolves the walk with zero memory accesses.
    UnifiedPageTableCache uptc(16);
    const Addr va = makeVa(1, 2, 3, 4);
    const WalkResult wr = mapAndWalk(va);
    uptc.update(wr, pt.entryPath(va), wr.levels);
    EXPECT_EQ(uptc.lookup(wr, pt.entryPath(va), wr.levels), 4u);
}

TEST_F(PathCacheTest, UptcLeafChurnWastesCapacity)
{
    // Sequential pages insert a fresh L1 entry per walk; a small FIFO
    // unified cache loses its upper-level entries to that churn,
    // while the path-tagged TPC is immune (one entry per path).
    UnifiedPageTableCache uptc(4, MmuCacheReplacement::Fifo);
    TranslationPathCache tpc(4, MmuCacheReplacement::Fifo);

    std::uint64_t uptc_skips = 0, tpc_skips = 0, walks = 0;
    for (unsigned page = 0; page < 64; page++) {
        const Addr va = makeVa(1, 2, 3, page);
        const WalkResult wr = mapAndWalk(va);
        const EntryPath path = pt.entryPath(va);
        uptc_skips += uptc.lookup(wr, path, wr.levels);
        tpc_skips += tpc.lookup(va, wr.levels - 1);
        uptc.update(wr, path, wr.levels);
        tpc.update(va, wr);
        walks++;
    }
    // TPC skips L4/L3/L2 on every walk after the first.
    EXPECT_EQ(tpc_skips, (walks - 1) * 3);
    // The UPTC loses its upper entries to L1 churn and skips less.
    EXPECT_LT(uptc_skips, tpc_skips);
}

TEST_F(PathCacheTest, FifoTpcEvictsInInsertionOrder)
{
    TranslationPathCache tpc(2, MmuCacheReplacement::Fifo);
    tpc.update(makeVa(1, 1, 1, 0), mapAndWalk(makeVa(1, 1, 1, 0)));
    tpc.update(makeVa(2, 2, 2, 0), mapAndWalk(makeVa(2, 2, 2, 0)));
    // A hit on the older entry must NOT rescue it under FIFO.
    EXPECT_EQ(tpc.lookup(makeVa(1, 1, 1, 5), 3), 3u);
    tpc.update(makeVa(3, 3, 3, 0), mapAndWalk(makeVa(3, 3, 3, 0)));
    EXPECT_EQ(tpc.lookup(makeVa(1, 1, 1, 5), 3), 0u); // evicted
    EXPECT_EQ(tpc.lookup(makeVa(2, 2, 2, 5), 3), 3u);
}
