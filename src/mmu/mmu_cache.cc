#include "mmu/mmu_cache.hh"

#include "common/logging.hh"

namespace neummu {

// ---------------------------------------------------------------- TPC

TranslationPathCache::TranslationPathCache(std::size_t entries,
                                           MmuCacheReplacement repl)
    : _entries(entries), _repl(repl)
{
    NEUMMU_ASSERT(entries > 0, "TPC needs at least one entry");
}

std::uint64_t
TranslationPathCache::tagOf(const std::array<unsigned, 3> &idx)
{
    // Concatenated L4/L3/L2 indices (27 bits), as in Barr et al.'s
    // translation-path cache.
    return (std::uint64_t(idx[0]) << 18) |
           (std::uint64_t(idx[1]) << 9) | std::uint64_t(idx[2]);
}

std::uint64_t
TranslationPathCache::tagOf(Addr va)
{
    return tagOf({radixIndex(va, 4), radixIndex(va, 3),
                  radixIndex(va, 2)});
}

unsigned
TranslationPathCache::lookup(Addr va, unsigned max_skippable)
{
    _stats.consults++;
    const std::array<unsigned, 3> want{radixIndex(va, 4),
                                       radixIndex(va, 3),
                                       radixIndex(va, 2)};

    // Exact full-tag match is O(1); otherwise find the longest prefix
    // across entries (the TPC supports partial hits on upper indices).
    unsigned best = 0;
    auto best_it = _lru.end();
    const auto exact = _index.find(tagOf(va));
    if (exact != _index.end()) {
        best = 3;
        best_it = exact->second;
    } else {
        for (auto it = _lru.begin(); it != _lru.end(); ++it) {
            unsigned m = 0;
            while (m < 3 && it->idx[m] == want[m])
                m++;
            if (m > best) {
                best = m;
                best_it = it;
            }
        }
    }

    for (unsigned i = 0; i < best; i++)
        _stats.levelHits[i]++;
    if (best_it != _lru.end() && _repl == MmuCacheReplacement::Lru)
        _lru.splice(_lru.begin(), _lru, best_it);

    const unsigned skip = best < max_skippable ? best : max_skippable;
    _stats.skippedLevels += skip;
    return skip;
}

void
TranslationPathCache::update(Addr va, const WalkResult &walk)
{
    if (!walk.valid)
        return;
    const std::uint64_t tag = tagOf(va);
    const auto it = _index.find(tag);
    if (it != _index.end()) {
        if (_repl == MmuCacheReplacement::Lru)
            _lru.splice(_lru.begin(), _lru, it->second);
        return;
    }
    if (_lru.size() >= _entries) {
        _index.erase(tagOf(_lru.back().idx));
        _lru.pop_back();
    }
    _lru.push_front(Entry{{radixIndex(va, 4), radixIndex(va, 3),
                           radixIndex(va, 2)}});
    _index[tag] = _lru.begin();
}

void
TranslationPathCache::invalidate(Addr va, unsigned match_levels)
{
    const std::array<unsigned, 3> want{radixIndex(va, 4),
                                       radixIndex(va, 3),
                                       radixIndex(va, 2)};
    const unsigned levels = match_levels < 3 ? match_levels : 3;
    for (auto it = _lru.begin(); it != _lru.end();) {
        unsigned m = 0;
        while (m < levels && it->idx[m] == want[m])
            m++;
        if (m < levels) {
            ++it;
            continue;
        }
        _index.erase(tagOf(it->idx));
        it = _lru.erase(it);
    }
}

// --------------------------------------------------------------- UPTC

UnifiedPageTableCache::UnifiedPageTableCache(std::size_t entries,
                                             MmuCacheReplacement repl)
    : _entries(entries), _repl(repl)
{
    NEUMMU_ASSERT(entries > 0, "UPTC needs at least one entry");
}

bool
UnifiedPageTableCache::touch(Addr entry_pa)
{
    const auto it = _index.find(entry_pa);
    if (it == _index.end())
        return false;
    if (_repl == MmuCacheReplacement::Lru)
        _lru.splice(_lru.begin(), _lru, it->second);
    return true;
}

void
UnifiedPageTableCache::insert(Addr entry_pa)
{
    if (_index.count(entry_pa))
        return;
    if (_lru.size() >= _entries) {
        _index.erase(_lru.back());
        _lru.pop_back();
    }
    _lru.push_front(entry_pa);
    _index[entry_pa] = _lru.begin();
}

void
UnifiedPageTableCache::invalidateEntry(Addr entry_pa)
{
    const auto it = _index.find(entry_pa);
    if (it == _index.end())
        return;
    _lru.erase(it->second);
    _index.erase(it);
}

void
UnifiedPageTableCache::invalidateNode(Addr node_pa)
{
    for (auto it = _lru.begin(); it != _lru.end();) {
        if (pageBase(*it, smallPageShift) == node_pa) {
            _index.erase(*it);
            it = _lru.erase(it);
        } else {
            ++it;
        }
    }
}

unsigned
UnifiedPageTableCache::lookup(const WalkResult &walk,
                              const EntryPath &entry_pa,
                              unsigned max_skippable)
{
    _stats.consults++;
    unsigned chain = 0;
    // The UPTC can only skip a level when every ancestor entry down to
    // it hits; probe root-first and stop at the first miss.
    for (unsigned i = 0; i < max_skippable && i < walk.levels; i++) {
        _entryLookups++;
        if (!touch(entry_pa[i]))
            break;
        _entryHits++;
        _stats.levelHits[i < 3 ? i : 2]++;
        chain++;
    }
    _stats.skippedLevels += chain;
    return chain;
}

void
UnifiedPageTableCache::update(const WalkResult &walk,
                              const EntryPath &entry_pa,
                              unsigned max_cacheable)
{
    if (!walk.valid)
        return;
    // Entries from every level -- L4/L3/L2 *and* the leaf L1 PTE --
    // are mixed inside the unified cache (Barr et al.; Section IV-C).
    // The leaf entries have TLB-like reach and mostly waste capacity,
    // which is exactly the structural weakness the paper's TPC/TPreg
    // avoids by storing one whole path per entry.
    for (unsigned i = 0; i < max_cacheable && i < walk.levels; i++)
        insert(entry_pa[i]);
}

} // namespace neummu
