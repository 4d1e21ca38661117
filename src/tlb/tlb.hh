/**
 * @file
 * Translation lookaside buffer with LRU replacement. The baseline
 * IOMMU's IOTLB (Table I: 2048 entries, 5-cycle hit latency) and the
 * NeuMMU-local TLB are both instances of this class.
 */

#ifndef NEUMMU_TLB_TLB_HH
#define NEUMMU_TLB_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace neummu {

/** TLB geometry and timing. */
struct TlbConfig
{
    /** Total entries (Table I default: 2048). */
    std::size_t entries = 2048;
    /** Associativity; 0 means fully associative. */
    std::size_t ways = 0;
    /** Hit latency in cycles (Table I default: 5). */
    Tick hitLatency = 5;
};

/**
 * Set-associative (or fully associative) VPN->PFN cache with true-LRU
 * replacement per set. Entries live in a fixed slot array linked into
 * per-set intrusive recency lists and indexed by one open-addressing
 * map, so lookups, inserts, and evictions are O(1) with zero heap
 * traffic -- this sits on the per-request translation path.
 */
class Tlb
{
  public:
    Tlb(std::string name, TlbConfig cfg);

    /**
     * Probe for @p vpn; on a hit the entry becomes most recently used.
     * @param[out] pfn_out Receives the cached frame number on a hit.
     * @return True on hit.
     */
    bool lookup(Addr vpn, Addr &pfn_out);

    /**
     * Probe without updating recency or statistics (used by tests and
     * by components that only need occupancy information).
     */
    bool probe(Addr vpn) const;

    /** Install (or refresh) a translation. */
    void insert(Addr vpn, Addr pfn);

    /** Drop one translation if present. */
    void invalidate(Addr vpn);

    /** Drop everything. */
    void flush();

    /**
     * Mutation stamp: changes whenever any cached state changes --
     * inserts, evictions, invalidations, flushes, and recency
     * relinks. A caller that snapshots (vpn, pfn, generation()) right
     * after a hit can, while the stamp is unchanged, service repeat
     * hits on that vpn without consulting the TLB at all: the entry
     * is provably still resident, still mapped to the same frame, and
     * still at the MRU head (so lookup() would not even relink).
     * Starts at 1; 0 never matches, so zero-initialized snapshot
     * registers start cold.
     */
    std::uint64_t generation() const { return _gen; }

    /**
     * Account a hit served from a caller's snapshot register (see
     * generation()) so hit statistics stay identical to the
     * equivalent lookup() call.
     */
    void
    noteRegisterHit()
    {
        _hits++;
        ++_sHits;
    }

    std::size_t size() const;
    const TlbConfig &config() const { return _cfg; }
    stats::Group &stats() { return _stats; }

    double
    hitRate() const
    {
        const double h = _hits, m = _misses;
        return (h + m) > 0 ? h / (h + m) : 0.0;
    }

  private:
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    /** One cached translation, threaded into its set's LRU list. */
    struct Slot
    {
        Addr vpn = invalidAddr;
        Addr pfn = invalidAddr;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
    };

    struct Set
    {
        /** Most recently used slot. */
        std::uint32_t head = npos;
        /** Least recently used slot (the eviction victim). */
        std::uint32_t tail = npos;
        std::size_t size = 0;
    };

    /** Where a resident VPN lives: its slot and its set. */
    struct Entry
    {
        std::uint32_t slot = npos;
        std::uint32_t set = 0;
    };

    /** The set a new VPN goes to (insert only: the one division). */
    std::uint32_t setOf(Addr vpn) const;
    void unlink(Set &set, std::uint32_t idx);
    void linkFront(Set &set, std::uint32_t idx);

    TlbConfig _cfg;
    std::size_t _numSets;
    std::size_t _waysPerSet;
    std::vector<Slot> _slots;
    std::vector<Set> _sets;
    /** Unused slot indices (all sets draw from one slab). */
    std::vector<std::uint32_t> _freeSlots;
    /**
     * VPN -> slot and set across all sets. Keeping the set here lets
     * lookup() and invalidate() reach it without dividing by the set
     * count; the entry is no larger than a bare slot index would be.
     */
    FlatMap64<Entry> _index;
    stats::Group _stats;
    /** Cached counters: lookup() runs per request, so no per-call
     *  string-keyed stats lookups on the hot path. */
    stats::Scalar &_sHits;
    stats::Scalar &_sMisses;
    stats::Scalar &_sEvictions;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    /** See generation(). */
    std::uint64_t _gen = 1;
};

} // namespace neummu

#endif // NEUMMU_TLB_TLB_HH
