/**
 * @file
 * Unit tests for the TLB, including parameterized geometry sweeps.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "tlb/tlb.hh"

using namespace neummu;

TEST(Tlb, MissThenHit)
{
    Tlb tlb(TlbConfig{16, 0, 5});
    Addr pfn = 0;
    EXPECT_FALSE(tlb.lookup(100, pfn));
    tlb.insert(100, 7);
    ASSERT_TRUE(tlb.lookup(100, pfn));
    EXPECT_EQ(pfn, 7u);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEvictionInFullyAssociative)
{
    Tlb tlb(TlbConfig{4, 0, 1});
    for (Addr v = 0; v < 4; v++)
        tlb.insert(v, v + 100);
    Addr pfn = 0;
    // Touch 0 so 1 becomes LRU.
    EXPECT_TRUE(tlb.lookup(0, pfn));
    tlb.insert(99, 1);
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_FALSE(tlb.probe(1)); // evicted
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(3));
    EXPECT_TRUE(tlb.probe(99));
}

TEST(Tlb, InsertRefreshesExistingEntry)
{
    Tlb tlb(TlbConfig{2, 0, 1});
    tlb.insert(1, 10);
    tlb.insert(2, 20);
    tlb.insert(1, 11); // refresh, making 2 the LRU
    tlb.insert(3, 30); // evicts 2
    Addr pfn = 0;
    ASSERT_TRUE(tlb.lookup(1, pfn));
    EXPECT_EQ(pfn, 11u);
    EXPECT_FALSE(tlb.probe(2));
}

TEST(Tlb, SetAssociativeMapsVpnsToSets)
{
    // 4 entries, 2 ways => 2 sets; even VPNs -> set 0, odd -> set 1.
    Tlb tlb(TlbConfig{4, 2, 1});
    tlb.insert(0, 1);
    tlb.insert(2, 2);
    tlb.insert(4, 3); // evicts VPN 0 from set 0
    EXPECT_FALSE(tlb.probe(0));
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(4));
    tlb.insert(1, 4);
    EXPECT_TRUE(tlb.probe(1)); // set 1 unaffected
}

TEST(Tlb, InvalidateAndFlush)
{
    Tlb tlb(TlbConfig{8, 0, 1});
    tlb.insert(5, 50);
    tlb.insert(6, 60);
    tlb.invalidate(5);
    EXPECT_FALSE(tlb.probe(5));
    EXPECT_TRUE(tlb.probe(6));
    tlb.flush();
    EXPECT_FALSE(tlb.probe(6));
    EXPECT_EQ(tlb.size(), 0u);
}

// --- invalidate vs. the intrusive LRU chain ---------------------------
// The slot-array rewrite threads every entry into a per-set intrusive
// recency list; invalidate() must unlink cleanly from any position
// (head/middle/tail) and leave the remaining chain evicting in true
// LRU order. Insert order 1,2,3,4 makes 4 the MRU head and 1 the LRU
// tail in a 4-entry fully associative TLB.

TEST(Tlb, InvalidateLruHeadKeepsChainOrder)
{
    Tlb tlb(TlbConfig{4, 0, 1});
    for (Addr v = 1; v <= 4; v++)
        tlb.insert(v, v + 100);
    tlb.invalidate(4); // MRU head
    EXPECT_EQ(tlb.size(), 3u);
    // The freed slot is reused without disturbing recency: 1 is
    // still the oldest, then 2.
    tlb.insert(5, 105);
    tlb.insert(6, 106); // now full again: 6,5,3,2,1 minus head... 4 gone
    EXPECT_FALSE(tlb.probe(1)); // evicted as true LRU
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(3));
    EXPECT_TRUE(tlb.probe(5));
    EXPECT_TRUE(tlb.probe(6));
}

TEST(Tlb, InvalidateLruMiddleKeepsChainOrder)
{
    Tlb tlb(TlbConfig{4, 0, 1});
    for (Addr v = 1; v <= 4; v++)
        tlb.insert(v, v + 100);
    tlb.invalidate(2); // middle of the chain
    EXPECT_EQ(tlb.size(), 3u);
    tlb.insert(5, 105); // refill the freed slot (no eviction)
    EXPECT_EQ(tlb.size(), 4u);
    tlb.insert(6, 106); // evicts true LRU = 1
    EXPECT_FALSE(tlb.probe(1));
    tlb.insert(7, 107); // evicts next LRU = 3 (2 is gone)
    EXPECT_FALSE(tlb.probe(3));
    EXPECT_TRUE(tlb.probe(4));
    EXPECT_TRUE(tlb.probe(5));
    EXPECT_TRUE(tlb.probe(6));
    EXPECT_TRUE(tlb.probe(7));
}

TEST(Tlb, InvalidateLruTailKeepsChainOrder)
{
    Tlb tlb(TlbConfig{4, 0, 1});
    for (Addr v = 1; v <= 4; v++)
        tlb.insert(v, v + 100);
    tlb.invalidate(1); // LRU tail
    EXPECT_EQ(tlb.size(), 3u);
    tlb.insert(5, 105);
    tlb.insert(6, 106); // evicts the new tail = 2
    EXPECT_FALSE(tlb.probe(2));
    tlb.insert(7, 107); // then 3
    EXPECT_FALSE(tlb.probe(3));
    EXPECT_TRUE(tlb.probe(4));
    EXPECT_TRUE(tlb.probe(5));
    EXPECT_TRUE(tlb.probe(6));
    EXPECT_TRUE(tlb.probe(7));
}

TEST(Tlb, InvalidateSingletonAndMissingVpn)
{
    Tlb tlb(TlbConfig{4, 0, 1});
    tlb.invalidate(9); // absent: no-op
    tlb.insert(9, 90);
    tlb.invalidate(9); // head == tail case
    EXPECT_EQ(tlb.size(), 0u);
    // The set is fully usable again.
    for (Addr v = 1; v <= 4; v++)
        tlb.insert(v, v);
    EXPECT_EQ(tlb.size(), 4u);
    tlb.insert(5, 5);
    EXPECT_FALSE(tlb.probe(1));
    EXPECT_TRUE(tlb.probe(5));
}

TEST(Tlb, InvalidateInSetAssociativeGeometry)
{
    // 4 entries, 2 ways => 2 sets; even VPNs -> set 0.
    Tlb tlb(TlbConfig{4, 2, 1});
    tlb.insert(0, 1);
    tlb.insert(2, 2);
    tlb.invalidate(0);
    tlb.insert(4, 3); // fits in the freed way: no eviction
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(4));
    tlb.insert(6, 4); // now evicts set 0's LRU = 2
    EXPECT_FALSE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(4));
    EXPECT_TRUE(tlb.probe(6));
}

TEST(Tlb, ProbeDoesNotPerturbLruOrStats)
{
    Tlb tlb(TlbConfig{2, 0, 1});
    tlb.insert(1, 10);
    tlb.insert(2, 20);
    // Probing 1 must NOT make it MRU.
    EXPECT_TRUE(tlb.probe(1));
    tlb.insert(3, 30); // evicts true-LRU = 1
    EXPECT_FALSE(tlb.probe(1));
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.0); // probes don't count
}

TEST(Tlb, StatsCountEvictions)
{
    Tlb tlb(TlbConfig{2, 0, 1});
    tlb.insert(1, 1);
    tlb.insert(2, 2);
    tlb.insert(3, 3);
    EXPECT_EQ(tlb.evictions(), 1u);
}

/** Property sweep: capacity is respected for many geometries. */
class TlbGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{
};

TEST_P(TlbGeometry, NeverExceedsCapacityAndKeepsRecentEntries)
{
    const auto [entries, ways] = GetParam();
    Tlb tlb(TlbConfig{entries, ways, 1});
    const std::size_t inserts = entries * 4;
    for (Addr v = 0; v < inserts; v++)
        tlb.insert(v, v);
    EXPECT_LE(tlb.size(), entries);
    // The most recent VPN of every set must still be resident.
    const std::size_t sets = (ways == 0) ? 1 : entries / ways;
    for (Addr v = inserts - sets; v < inserts; v++)
        EXPECT_TRUE(tlb.probe(v)) << "vpn " << v;
}

TEST_P(TlbGeometry, HitsAndInvalidationsFindTheirSet)
{
    const auto [entries, ways] = GetParam();
    const std::size_t sets = (ways == 0) ? 1 : entries / ways;
    if (entries / sets < 2)
        GTEST_SKIP() << "one way per set: a hit cannot save an entry";
    Tlb tlb(TlbConfig{entries, ways, 1});
    const Addr inserts = entries * 4;
    for (Addr v = 0; v < inserts; v++)
        tlb.insert(v, v + 7);
    // Resident: the last `entries` VPNs; the first `sets` of them are
    // their sets' LRU entries. A hit makes each its set's MRU, so one
    // more insert per set evicts the next-oldest entry instead.
    const Addr oldest = inserts - entries;
    for (Addr v = oldest; v < oldest + sets; v++) {
        Addr pfn = 0;
        ASSERT_TRUE(tlb.lookup(v, pfn)) << "vpn " << v;
        EXPECT_EQ(pfn, v + 7);
    }
    for (Addr v = inserts; v < inserts + sets; v++)
        tlb.insert(v, v + 7);
    for (Addr v = oldest; v < oldest + sets; v++) {
        EXPECT_TRUE(tlb.probe(v)) << "vpn " << v;
        EXPECT_FALSE(tlb.probe(v + sets)) << "vpn " << v + sets;
    }
    // Invalidating the hit entries frees one way in every set: the
    // next insert per set evicts nothing.
    for (Addr v = oldest; v < oldest + sets; v++)
        tlb.invalidate(v);
    EXPECT_EQ(tlb.size(), entries - sets);
    const std::uint64_t evictions = tlb.evictions();
    for (Addr v = inserts + sets; v < inserts + 2 * sets; v++)
        tlb.insert(v, v + 7);
    EXPECT_EQ(tlb.size(), entries);
    EXPECT_EQ(tlb.evictions(), evictions);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Values(std::make_tuple(1, 0), std::make_tuple(8, 0),
                      std::make_tuple(16, 4), std::make_tuple(64, 8),
                      std::make_tuple(128, 0), std::make_tuple(2048, 0),
                      std::make_tuple(2048, 16), std::make_tuple(48, 4)));

/** Streaming sweep: a working set larger than the TLB thrashes it. */
TEST(Tlb, StreamingDefeatsAnyCapacity)
{
    for (const std::size_t entries : {64ul, 256ul, 2048ul}) {
        Tlb tlb(TlbConfig{entries, 0, 1});
        Addr pfn;
        const Addr stream = Addr(entries) * 4;
        for (int pass = 0; pass < 2; pass++) {
            for (Addr v = 0; v < stream; v++) {
                if (!tlb.lookup(v, pfn))
                    tlb.insert(v, v);
            }
        }
        // A cyclic stream 4x the capacity under LRU never hits.
        EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.0) << entries;
    }
}

// --- reference model --------------------------------------------------
// Tlb against the plainest TLB there is: per set, a std::list of
// (vpn, pfn) in MRU-first order, found through a std::map. Seeded
// sequences of every operation must agree on each hit and PFN, on
// size(), on the eviction count, and on when generation() moves: on a
// hit that relinks, on every insert (a refresh rewrites the PFN), on
// an invalidate that drops an entry, and on a flush.

namespace {

class ReferenceTlb
{
  public:
    ReferenceTlb(std::size_t entries, std::size_t ways)
        : _ways(ways == 0 ? entries : ways), _sets(entries / _ways)
    {
    }

    /** Returns hit; @p moved reports whether the MRU order changed. */
    bool
    lookup(Addr vpn, Addr &pfn, bool &moved)
    {
        moved = false;
        const auto it = _where.find(vpn);
        if (it == _where.end())
            return false;
        Set &set = setOf(vpn);
        moved = it->second != set.begin();
        set.splice(set.begin(), set, it->second);
        pfn = it->second->second;
        return true;
    }

    bool probe(Addr vpn) const { return _where.count(vpn) != 0; }

    void
    insert(Addr vpn, Addr pfn)
    {
        Set &set = setOf(vpn);
        const auto it = _where.find(vpn);
        if (it != _where.end()) {
            it->second->second = pfn;
            set.splice(set.begin(), set, it->second);
            return;
        }
        if (set.size() == _ways) {
            _where.erase(set.back().first);
            set.pop_back();
            _evictions++;
        }
        set.emplace_front(vpn, pfn);
        _where[vpn] = set.begin();
    }

    /** Returns whether an entry was dropped. */
    bool
    invalidate(Addr vpn)
    {
        const auto it = _where.find(vpn);
        if (it == _where.end())
            return false;
        setOf(vpn).erase(it->second);
        _where.erase(it);
        return true;
    }

    void
    flush()
    {
        for (Set &set : _sets)
            set.clear();
        _where.clear();
    }

    std::size_t size() const { return _where.size(); }
    std::uint64_t evictions() const { return _evictions; }

    /** A resident VPN picked by @p r (the TLB must be non-empty). */
    Addr
    residentVpn(std::uint64_t r) const
    {
        return std::next(_where.begin(), long(r % _where.size()))->first;
    }

  private:
    using Set = std::list<std::pair<Addr, Addr>>;

    Set &setOf(Addr vpn) { return _sets[vpn % _sets.size()]; }

    std::size_t _ways;
    std::vector<Set> _sets;
    std::map<Addr, Set::iterator> _where;
    std::uint64_t _evictions = 0;
};

/** Seeded operation mix on a Tlb and the reference, step by step. */
void
runAgainstReference(std::size_t entries, std::size_t ways, unsigned seed,
                    unsigned steps)
{
    SCOPED_TRACE("entries " + std::to_string(entries) + " ways " +
                 std::to_string(ways) + " seed " + std::to_string(seed));
    Tlb tlb(TlbConfig{entries, ways, 1});
    ReferenceTlb ref(entries, ways);
    std::mt19937_64 rng(seed);

    // A VPN pool three times the capacity keeps hits, misses and
    // evictions all common; it spans the whole 36-bit VPN space of a
    // 48-bit VA under 4 KB pages, both ends included.
    const Addr vpn_limit = Addr(1) << 36;
    std::vector<Addr> pool{0, vpn_limit - 1};
    while (pool.size() < 3 * entries)
        pool.push_back(rng() % vpn_limit);
    const auto anyVpn = [&] { return pool[rng() % pool.size()]; };

    for (unsigned step = 0; step < steps; step++) {
        SCOPED_TRACE("step " + std::to_string(step));
        const std::uint64_t gen = tlb.generation();
        bool moved = false;
        const unsigned op = unsigned(rng() % 1000);
        if (op < 400) {
            const Addr vpn = anyVpn();
            Addr pfn = invalidAddr, ref_pfn = invalidAddr;
            const bool hit = tlb.lookup(vpn, pfn);
            ASSERT_EQ(hit, ref.lookup(vpn, ref_pfn, moved)) << vpn;
            if (hit) {
                ASSERT_EQ(pfn, ref_pfn) << vpn;
            }
        } else if (op < 500) {
            const Addr vpn = anyVpn();
            ASSERT_EQ(tlb.probe(vpn), ref.probe(vpn)) << vpn;
        } else if (op < 850) {
            const Addr vpn = anyVpn();
            const Addr pfn = rng() % vpn_limit;
            tlb.insert(vpn, pfn);
            ref.insert(vpn, pfn);
            moved = true;
        } else if (op < 930) {
            // Refresh: a resident VPN gets a new frame.
            if (ref.size() > 0) {
                const Addr vpn = ref.residentVpn(rng());
                const Addr pfn = rng() % vpn_limit;
                tlb.insert(vpn, pfn);
                ref.insert(vpn, pfn);
                moved = true;
            }
        } else if (op < 999) {
            // Half the invalidations hit a resident VPN.
            const Addr vpn = (op % 2 == 0 && ref.size() > 0)
                                 ? ref.residentVpn(rng())
                                 : anyVpn();
            tlb.invalidate(vpn);
            moved = ref.invalidate(vpn);
        } else {
            tlb.flush();
            ref.flush();
            moved = true;
        }
        ASSERT_EQ(tlb.generation() != gen, moved);
        ASSERT_EQ(tlb.size(), ref.size());
        ASSERT_EQ(tlb.evictions(), ref.evictions());
    }
    // Every pool VPN agrees at the end, resident or not.
    for (const Addr vpn : pool)
        EXPECT_EQ(tlb.probe(vpn), ref.probe(vpn)) << vpn;
}

} // namespace

TEST(TlbReference, FullyAssociative2048)
{
    for (unsigned seed = 1; seed <= 3; seed++)
        runAgainstReference(2048, 0, seed, 60000);
}

TEST(TlbReference, SetAssociativePowerOfTwoSets)
{
    // 128 sets of 16 ways, 8 sets of 4, and 4 direct-mapped sets.
    for (unsigned seed = 1; seed <= 3; seed++) {
        runAgainstReference(2048, 16, seed, 40000);
        runAgainstReference(32, 4, seed, 20000);
        runAgainstReference(4, 1, seed, 5000);
    }
}

TEST(TlbReference, SetAssociativeOddSetCounts)
{
    // 12 sets of 4 ways, 3 sets of 32, 5 direct-mapped sets.
    for (unsigned seed = 1; seed <= 3; seed++) {
        runAgainstReference(48, 4, seed, 20000);
        runAgainstReference(96, 32, seed, 20000);
        runAgainstReference(5, 1, seed, 5000);
    }
}

TEST(TlbReference, SingleEntry)
{
    for (unsigned seed = 1; seed <= 3; seed++)
        runAgainstReference(1, 0, seed, 5000);
}
