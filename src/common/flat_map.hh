/**
 * @file
 * Open-addressing hash map from a 64-bit key to a small value,
 * built for the simulator's hot-path bookkeeping: the in-flight-VPN
 * table (which doubles as the PTS scoreboard) and the pending-response
 * table churn one entry per request, and the node-per-entry
 * std::unordered_map they used to live in made that churn a
 * malloc/free pair per translation. (The TLB keeps its own index of
 * packed 8-byte words; see tlb.hh.)
 *
 * Linear probing over a power-of-two slot array with multiplicative
 * hashing, backward-shift deletion (no tombstones, so load never
 * degrades), and a reserved sentinel key marking empty slots. The
 * slot array is the slab: erase/insert reuses slots with zero
 * allocation in steady state (the array only reallocates on growth,
 * which doubles), and highWater() exposes the peak live-entry count
 * so tests can pin pool lifecycle behavior.
 */

#ifndef NEUMMU_COMMON_FLAT_MAP_HH
#define NEUMMU_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace neummu {

/**
 * Hash map keyed by std::uint64_t. The key ~0 is reserved as the
 * empty-slot sentinel and must never be inserted; the simulator's
 * keys (VPNs, request ids) can never take that value.
 */
template <typename V>
class FlatMap64
{
  public:
    static constexpr std::uint64_t emptyKey = ~std::uint64_t(0);

    explicit FlatMap64(std::size_t min_capacity = 64)
    {
        std::size_t cap = 16;
        while (cap < min_capacity)
            cap <<= 1;
        _slots.assign(cap, Slot{});
        _mask = cap - 1;
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    std::size_t capacity() const { return _slots.size(); }
    /** Peak live-entry count over the map's lifetime. */
    std::size_t highWater() const { return _highWater; }
    /**
     * Times the slot array grew (and rehashed every live entry).
     * A map sized from a correct capacity hint reports zero: its
     * steady state never touches the allocator.
     */
    std::size_t rehashCount() const { return _rehashes; }

    /** Pointer to the value stored under @p key; nullptr if absent. */
    V *
    find(std::uint64_t key)
    {
        std::size_t idx = idealSlot(key);
        while (_slots[idx].key != emptyKey) {
            if (_slots[idx].key == key)
                return &_slots[idx].value;
            idx = (idx + 1) & _mask;
        }
        return nullptr;
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap64 *>(this)->find(key);
    }

    bool contains(std::uint64_t key) const { return find(key); }

    /**
     * Insert @p value under @p key if absent. Returns the stored
     * value (existing one if present) and whether insertion happened.
     * The reference stays valid until the next insert (growth).
     */
    std::pair<V &, bool>
    insert(std::uint64_t key, V value)
    {
        NEUMMU_ASSERT(key != emptyKey,
                      "the all-ones key is the empty-slot sentinel");
        if ((_size + 1) * 4 > capacity() * 3)
            grow();
        std::size_t idx = idealSlot(key);
        while (_slots[idx].key != emptyKey) {
            if (_slots[idx].key == key)
                return {_slots[idx].value, false};
            idx = (idx + 1) & _mask;
        }
        _slots[idx].key = key;
        _slots[idx].value = std::move(value);
        _size++;
        if (_size > _highWater)
            _highWater = _size;
        return {_slots[idx].value, true};
    }

    /** Remove @p key; false when absent. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t idx = idealSlot(key);
        while (_slots[idx].key != key) {
            if (_slots[idx].key == emptyKey)
                return false;
            idx = (idx + 1) & _mask;
        }
        // Backward-shift deletion: pull every displaced follower of
        // the probe chain one step back so lookups never need
        // tombstones.
        std::size_t hole = idx;
        std::size_t next = (hole + 1) & _mask;
        while (_slots[next].key != emptyKey) {
            const std::size_t ideal = idealSlot(_slots[next].key);
            if (((next - ideal) & _mask) >= ((next - hole) & _mask)) {
                _slots[hole] = std::move(_slots[next]);
                hole = next;
            }
            next = (next + 1) & _mask;
        }
        _slots[hole] = Slot{};
        _size--;
        return true;
    }

    void
    clear()
    {
        for (Slot &s : _slots)
            s = Slot{};
        _size = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key = emptyKey;
        V value{};
    };

    std::size_t
    idealSlot(std::uint64_t key) const
    {
        // Multiplicative (Fibonacci) hashing: the simulator's keys
        // are sequential ids and densely clustered VPNs, so spread
        // them before masking.
        return std::size_t((key * 0x9E3779B97F4A7C15ull) >> 32) &
               _mask;
    }

    void
    grow()
    {
        _rehashes++;
        std::vector<Slot> old = std::move(_slots);
        _slots.assign(old.size() * 2, Slot{});
        _mask = _slots.size() - 1;
        for (Slot &s : old) {
            if (s.key == emptyKey)
                continue;
            std::size_t idx = idealSlot(s.key);
            while (_slots[idx].key != emptyKey)
                idx = (idx + 1) & _mask;
            _slots[idx] = std::move(s);
        }
    }

    std::vector<Slot> _slots;
    std::size_t _mask = 0;
    std::size_t _size = 0;
    std::size_t _highWater = 0;
    std::size_t _rehashes = 0;
};

} // namespace neummu

#endif // NEUMMU_COMMON_FLAT_MAP_HH
