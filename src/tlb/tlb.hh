/**
 * @file
 * Translation lookaside buffer with LRU replacement. The baseline
 * IOMMU's IOTLB (Table I: 2048 entries, 5-cycle hit latency) and the
 * NeuMMU-local TLB are both instances of this class.
 */

#ifndef NEUMMU_TLB_TLB_HH
#define NEUMMU_TLB_TLB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"

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
 * array of packed words, so lookups, inserts, and evictions are O(1)
 * with zero heap traffic -- this sits on the per-request translation
 * path.
 *
 * Each index word is (vpn << slotBits) | (slot + 1), 0 meaning empty.
 * The index has at least 4 words per entry, so a full TLB probes it
 * at load 1/4 or less; deletion is backward-shift (no tombstones).
 * A VPN's set is a mask of the VPN for a power-of-two set count (0
 * for a fully associative TLB) and a remainder otherwise.
 */
class Tlb
{
  public:
    /** Low bits of an index word that hold slot + 1. */
    static constexpr unsigned slotBits = 28;
    /** Most entries a TLB can have: slot + 1 must fit slotBits. */
    static constexpr std::size_t maxEntries =
        (std::size_t(1) << slotBits) - 1;
    /** Every inserted VPN is below this: the word's upper bits. */
    static constexpr Addr vpnLimit = Addr(1) << (64 - slotBits);
    static_assert(64 - slotBits >= vaBits - smallPageShift,
                  "the index word must hold every VPN of the VA space");

    /** @pre 0 < cfg.entries <= maxEntries. */
    explicit Tlb(TlbConfig cfg);

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

    /** Install (or refresh) a translation. @pre vpn < vpnLimit. */
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
    void noteRegisterHit() { _hits++; }

    std::size_t size() const { return _cfg.entries - _freeSlots.size(); }
    const TlbConfig &config() const { return _cfg; }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    /** Valid entries replaced by an insert into a full set. */
    std::uint64_t evictions() const { return _evictions; }

    double
    hitRate() const
    {
        const double h = _hits, m = _misses;
        return (h + m) > 0 ? h / (h + m) : 0.0;
    }

  private:
    static constexpr std::uint32_t npos = ~std::uint32_t(0);
    /** _setMask of a set count that is not a power of two. */
    static constexpr std::size_t oddSetCount = ~std::size_t(0);

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

    static constexpr std::uint64_t slotMask =
        (std::uint64_t(1) << slotBits) - 1;

    /** The set @p vpn maps to; divides only for odd set counts. */
    Set &
    setOf(Addr vpn)
    {
        return _sets[_setMask != oddSetCount
                         ? std::size_t(vpn & _setMask)
                         : std::size_t(vpn % _sets.size())];
    }
    /** The index word's home position for @p vpn. */
    std::size_t
    home(Addr vpn) const
    {
        return std::size_t((vpn * 0x9E3779B97F4A7C15ull) >> _homeShift);
    }
    /** Position of @p vpn's word, or of the empty word ending its
     *  probe sequence. */
    std::size_t
    probeFor(Addr vpn) const
    {
        std::size_t pos = home(vpn);
        while (_index[pos] != 0 && (_index[pos] >> slotBits) != vpn)
            pos = (pos + 1) & _indexMask;
        return pos;
    }
    /** The slot of the word at @p pos; an empty word reads npos. */
    std::uint32_t
    slotAt(std::size_t pos) const
    {
        return std::uint32_t(_index[pos] & slotMask) - 1;
    }
    /** Empty the index word at @p pos (backward-shift deletion). */
    void eraseAt(std::size_t pos);
    void unlink(Set &set, std::uint32_t idx);
    void linkFront(Set &set, std::uint32_t idx);
    /** Put every slot on the free list; inserts take them from 0 up. */
    void freeAllSlots();

    TlbConfig _cfg;
    std::size_t _waysPerSet;
    /** Set count - 1 when it is a power of two, else oddSetCount. */
    std::size_t _setMask;
    std::vector<Slot> _slots;
    std::vector<Set> _sets;
    /** Unused slot indices (all sets draw from one slab). */
    std::vector<std::uint32_t> _freeSlots;
    /** VPN -> slot words (see the class comment); 0 is empty. */
    std::vector<std::uint64_t> _index;
    std::size_t _indexMask;
    /** 64 - log2(index size): home() keeps the hash's top bits. */
    unsigned _homeShift;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
    /** See generation(). */
    std::uint64_t _gen = 1;
};

} // namespace neummu

#endif // NEUMMU_TLB_TLB_HH
