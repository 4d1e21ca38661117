/**
 * @file
 * Per-node resident-page tracking with pluggable victim selection.
 *
 * The paging engine keeps one ResidentSet per managed memory node:
 * pages enter on fetch, are touched on every translation request the
 * MMU accepts (its lifecycle access hook; a rejected request touches
 * nothing), and leave through remove() or victim selection. Two classic policies, as explored by the MMU
 * design-space studies in PAPERS.md:
 *
 * - LRU: true recency order (touch moves to MRU; victim is the LRU
 *   tail) -- the upper bound a hardware node rarely affords.
 * - CLOCK: one reference bit per page and a sweeping hand -- the
 *   cheap second-chance approximation real OS/driver reclaim uses.
 */

#ifndef NEUMMU_VM_RESIDENT_SET_HH
#define NEUMMU_VM_RESIDENT_SET_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace neummu {

/** Victim-selection policy for resident-page reclaim. */
enum class EvictionPolicy
{
    Clock,
    Lru,
};

std::string evictionPolicyName(EvictionPolicy policy);
/** Inverse of evictionPolicyName (case-insensitive); fatal on junk. */
EvictionPolicy evictionPolicyFromName(const std::string &name);

/**
 * The set of resident page base addresses of one memory node,
 * ordered for victim selection. All operations are O(1) except
 * victim selection, which skips pinned (non-evictable) pages.
 */
class ResidentSet
{
  public:
    /** False to pin a candidate (skip it this selection). */
    using VictimFilter = std::function<bool(Addr)>;

    explicit ResidentSet(EvictionPolicy policy);

    /** Track @p page as resident (MRU / referenced). @pre absent. */
    void insert(Addr page);

    /** Record an access: LRU moves to MRU, CLOCK sets the reference
     *  bit. No-op when the page is not tracked. */
    void touch(Addr page);

    /** Stop tracking @p page. @return False when it was not tracked. */
    bool remove(Addr page);

    bool contains(Addr page) const { return _index.contains(page); }
    std::size_t size() const { return _index.size(); }
    EvictionPolicy policy() const { return _policy; }

    /**
     * Select the next victim per policy, remove it from the set, and
     * return it; pages failing @p evictable are skipped (LRU) or
     * passed over without losing their reference bit (CLOCK).
     * @return invalidAddr when every resident page is pinned.
     */
    Addr evictVictim(const VictimFilter &evictable = {});

  private:
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    /** One resident page, threaded into the recency/ring list. */
    struct Slot
    {
        Addr page = invalidAddr;
        bool referenced = false;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
    };

    void unlink(std::uint32_t idx);
    void linkFront(std::uint32_t idx);
    std::uint32_t slotOf(Addr page) const;

    EvictionPolicy _policy;
    std::vector<Slot> _slots;
    std::vector<std::uint32_t> _freeSlots;
    /** Head = MRU (LRU) / most recently inserted (CLOCK). */
    std::uint32_t _head = npos;
    /** Tail = LRU victim end; CLOCK's hand starts sweeping here. */
    std::uint32_t _tail = npos;
    /** CLOCK hand: next slot the sweep examines. */
    std::uint32_t _hand = npos;
    FlatMap64<std::uint32_t> _index;
};

} // namespace neummu

#endif // NEUMMU_VM_RESIDENT_SET_HH
