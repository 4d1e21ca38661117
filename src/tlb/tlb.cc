#include "tlb/tlb.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neummu {

Tlb::Tlb(TlbConfig cfg) : _cfg(cfg)
{
    NEUMMU_ASSERT(cfg.entries > 0, "TLB needs at least one entry");
    NEUMMU_ASSERT(cfg.entries <= maxEntries,
                  "TLB entries exceed the index word's slot field (" +
                      std::to_string(maxEntries) + ")");
    _waysPerSet = (cfg.ways == 0) ? cfg.entries : cfg.ways;
    NEUMMU_ASSERT(cfg.entries % _waysPerSet == 0,
                  "TLB entries must divide evenly into sets");
    const std::size_t num_sets = cfg.entries / _waysPerSet;
    _setMask =
        (num_sets & (num_sets - 1)) == 0 ? num_sets - 1 : oddSetCount;
    _slots.resize(cfg.entries);
    _sets.resize(num_sets);
    unsigned bits = 2;
    while ((std::size_t(1) << bits) < 4 * cfg.entries)
        bits++;
    _index.resize(std::size_t(1) << bits);
    _indexMask = _index.size() - 1;
    _homeShift = 64 - bits;
    _freeSlots.reserve(cfg.entries);
    freeAllSlots();
}

void
Tlb::freeAllSlots()
{
    _freeSlots.clear();
    for (std::size_t i = 0; i < _cfg.entries; i++)
        _freeSlots.push_back(std::uint32_t(_cfg.entries - 1 - i));
}

void
Tlb::eraseAt(std::size_t hole)
{
    // Pull every displaced follower of the probe chain one step back
    // so lookups never need tombstones.
    for (std::size_t next = (hole + 1) & _indexMask; _index[next] != 0;
         next = (next + 1) & _indexMask) {
        const std::size_t ideal = home(_index[next] >> slotBits);
        if (((next - ideal) & _indexMask) >= ((next - hole) & _indexMask)) {
            _index[hole] = _index[next];
            hole = next;
        }
    }
    _index[hole] = 0;
}

void
Tlb::unlink(Set &set, std::uint32_t idx)
{
    Slot &s = _slots[idx];
    if (s.prev != npos)
        _slots[s.prev].next = s.next;
    else
        set.head = s.next;
    if (s.next != npos)
        _slots[s.next].prev = s.prev;
    else
        set.tail = s.prev;
    s.prev = s.next = npos;
    set.size--;
}

void
Tlb::linkFront(Set &set, std::uint32_t idx)
{
    Slot &s = _slots[idx];
    s.prev = npos;
    s.next = set.head;
    if (set.head != npos)
        _slots[set.head].prev = idx;
    set.head = idx;
    if (set.tail == npos)
        set.tail = idx;
    set.size++;
}

bool
Tlb::lookup(Addr vpn, Addr &pfn_out)
{
    const std::uint32_t slot = slotAt(probeFor(vpn));
    if (slot == npos) {
        _misses++;
        return false;
    }
    // Move to MRU position.
    Set &set = setOf(vpn);
    if (set.head != slot) {
        unlink(set, slot);
        linkFront(set, slot);
        _gen++;
    }
    pfn_out = _slots[slot].pfn;
    _hits++;
    return true;
}

bool
Tlb::probe(Addr vpn) const
{
    return _index[probeFor(vpn)] != 0;
}

void
Tlb::insert(Addr vpn, Addr pfn)
{
    NEUMMU_ASSERT(vpn < vpnLimit, "VPN " + std::to_string(vpn) +
                                      " does not fit the TLB index word");
    _gen++;
    Set &set = setOf(vpn);
    const std::size_t pos = probeFor(vpn);
    if (_index[pos] != 0) {
        const std::uint32_t slot = slotAt(pos);
        _slots[slot].pfn = pfn;
        if (set.head != slot) {
            unlink(set, slot);
            linkFront(set, slot);
        }
        return;
    }
    // Fill the empty word the probe stopped at before erasing the
    // victim's, whose backward shift may then move it.
    const bool evict = set.size >= _waysPerSet;
    std::uint32_t idx;
    if (evict) {
        // Recycle the true-LRU victim's slot in place.
        idx = set.tail;
        unlink(set, idx);
        _evictions++;
    } else {
        idx = _freeSlots.back();
        _freeSlots.pop_back();
    }
    _index[pos] = (vpn << slotBits) | (std::uint64_t(idx) + 1);
    if (evict)
        eraseAt(probeFor(_slots[idx].vpn));
    _slots[idx].vpn = vpn;
    _slots[idx].pfn = pfn;
    linkFront(set, idx);
}

void
Tlb::invalidate(Addr vpn)
{
    const std::size_t pos = probeFor(vpn);
    if (_index[pos] == 0)
        return;
    const std::uint32_t slot = slotAt(pos);
    unlink(setOf(vpn), slot);
    eraseAt(pos);
    _freeSlots.push_back(slot);
    _gen++;
}

void
Tlb::flush()
{
    _gen++;
    std::fill(_index.begin(), _index.end(), 0);
    std::fill(_sets.begin(), _sets.end(), Set{});
    freeAllSlots();
}

} // namespace neummu
