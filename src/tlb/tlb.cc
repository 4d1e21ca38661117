#include "tlb/tlb.hh"

#include "common/logging.hh"

namespace neummu {

Tlb::Tlb(std::string name, TlbConfig cfg)
    : _cfg(cfg), _index(2 * cfg.entries), _stats(std::move(name)),
      _sHits(_stats.scalar("hits")), _sMisses(_stats.scalar("misses")),
      _sEvictions(_stats.scalar("evictions"))
{
    NEUMMU_ASSERT(cfg.entries > 0, "TLB needs at least one entry");
    _waysPerSet = (cfg.ways == 0) ? cfg.entries : cfg.ways;
    NEUMMU_ASSERT(cfg.entries % _waysPerSet == 0,
                  "TLB entries must divide evenly into sets");
    _numSets = cfg.entries / _waysPerSet;
    _slots.resize(cfg.entries);
    _sets.resize(_numSets);
    _freeSlots.reserve(cfg.entries);
    for (std::size_t i = 0; i < cfg.entries; i++)
        _freeSlots.push_back(std::uint32_t(cfg.entries - 1 - i));
}

std::uint32_t
Tlb::setOf(Addr vpn) const
{
    return std::uint32_t(vpn % _numSets);
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
    const Entry *e = _index.find(vpn);
    if (!e) {
        _misses++;
        ++_sMisses;
        return false;
    }
    // Move to MRU position.
    Set &set = _sets[e->set];
    if (set.head != e->slot) {
        unlink(set, e->slot);
        linkFront(set, e->slot);
        _gen++;
    }
    pfn_out = _slots[e->slot].pfn;
    _hits++;
    ++_sHits;
    return true;
}

bool
Tlb::probe(Addr vpn) const
{
    return _index.contains(vpn);
}

void
Tlb::insert(Addr vpn, Addr pfn)
{
    _gen++;
    if (const Entry *existing = _index.find(vpn)) {
        Set &set = _sets[existing->set];
        _slots[existing->slot].pfn = pfn;
        if (set.head != existing->slot) {
            unlink(set, existing->slot);
            linkFront(set, existing->slot);
        }
        return;
    }
    const std::uint32_t set_idx = setOf(vpn);
    Set &set = _sets[set_idx];
    std::uint32_t idx;
    if (set.size >= _waysPerSet) {
        // Recycle the true-LRU victim's slot in place.
        idx = set.tail;
        unlink(set, idx);
        _index.erase(_slots[idx].vpn);
        ++_sEvictions;
    } else {
        idx = _freeSlots.back();
        _freeSlots.pop_back();
    }
    _slots[idx].vpn = vpn;
    _slots[idx].pfn = pfn;
    linkFront(set, idx);
    _index.insert(vpn, Entry{idx, set_idx});
}

void
Tlb::invalidate(Addr vpn)
{
    const Entry *e = _index.find(vpn);
    if (!e)
        return;
    const std::uint32_t slot = e->slot;
    unlink(_sets[e->set], slot);
    _index.erase(vpn);
    _freeSlots.push_back(slot);
    _gen++;
}

void
Tlb::flush()
{
    _gen++;
    _index.clear();
    for (Set &set : _sets)
        set = Set{};
    _freeSlots.clear();
    for (std::size_t i = 0; i < _cfg.entries; i++)
        _freeSlots.push_back(std::uint32_t(_cfg.entries - 1 - i));
    for (Slot &s : _slots)
        s = Slot{};
}

std::size_t
Tlb::size() const
{
    return _index.size();
}

} // namespace neummu
