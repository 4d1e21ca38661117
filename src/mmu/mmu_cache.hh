/**
 * @file
 * Shared MMU-cache design points explored in Section IV-C:
 *
 * - TPC (translation path cache, Intel-style): entries tagged by the
 *   virtual L4/L3/L2 index triple; a single entry covers the whole
 *   upper path of a walk and supports prefix matching.
 * - UPTC (unified page table cache, AMD-style): individual page-table
 *   entries tagged by their physical address; skipping k levels needs
 *   k consecutive hits starting from the root.
 *
 * Both are LRU caches. The paper concludes TPC dominates UPTC for NPU
 * translation streams, motivating the degenerate single-entry TPreg.
 */

#ifndef NEUMMU_MMU_MMU_CACHE_HH
#define NEUMMU_MMU_MMU_CACHE_HH

#include <array>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/types.hh"
#include "common/units.hh"
#include "vm/page_table.hh"

namespace neummu {

/** Which translation path cache a walker consults. */
enum class MmuCacheKind
{
    None,  ///< plain walks (baseline IOMMU)
    TpReg, ///< per-PTW single-entry path register (NeuMMU default)
    Tpc,   ///< shared, VA-tagged translation path cache
    Uptc,  ///< shared, PA-tagged unified page table cache
};

/**
 * Replacement policy for the shared caches. True LRU promotes on
 * every probe hit; FIFO (common for small hardware CAMs) evicts in
 * insertion order, which exposes the capacity asymmetry between the
 * one-entry-per-path TPC and the three-entries-per-path UPTC.
 */
enum class MmuCacheReplacement
{
    Lru,
    Fifo,
};

/** Statistics common to the shared cache designs. */
struct MmuCacheStats
{
    std::uint64_t consults = 0;
    /** Per-level prefix hits (TPC: tag levels; UPTC: chain steps). */
    std::array<std::uint64_t, 3> levelHits{};
    std::uint64_t skippedLevels = 0;
};

/** Intel-style translation path cache with prefix match. */
class TranslationPathCache
{
  public:
    explicit TranslationPathCache(
        std::size_t entries,
        MmuCacheReplacement repl = MmuCacheReplacement::Lru);

    /**
     * Longest matching (L4, L3, L2) index prefix over all entries,
     * clamped to @p max_skippable. The matched entry becomes MRU.
     */
    unsigned lookup(Addr va, unsigned max_skippable);

    /** Insert/update the path of a completed walk. */
    void update(Addr va, const WalkResult &walk);

    /**
     * Shootdown: drop every entry whose leading @p match_levels
     * indices equal @p va's (its skip chain runs through a reclaimed
     * tree node). 0 matches vacuously and clears the whole cache.
     */
    void invalidate(Addr va, unsigned match_levels);

    const MmuCacheStats &stats() const { return _stats; }
    std::size_t size() const { return _lru.size(); }

  private:
    struct Entry
    {
        std::array<unsigned, 3> idx;
    };

    static std::uint64_t tagOf(Addr va);
    static std::uint64_t tagOf(const std::array<unsigned, 3> &idx);

    std::size_t _entries;
    MmuCacheReplacement _repl;
    std::list<Entry> _lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> _index;
    MmuCacheStats _stats;
};

/** AMD-style unified page table cache (PA-tagged PTE cache). */
class UnifiedPageTableCache
{
  public:
    explicit UnifiedPageTableCache(
        std::size_t entries,
        MmuCacheReplacement repl = MmuCacheReplacement::Lru);

    /**
     * Number of walk levels skippable for @p walk, whose entry PAs
     * are @p entry_pa: the count of consecutive entry-PA hits starting
     * at the root, clamped to @p max_skippable. Each probed entry
     * counts as one consult for hit-rate accounting (the 92.4%
     * figure).
     */
    unsigned lookup(const WalkResult &walk, const EntryPath &entry_pa,
                    unsigned max_skippable);

    /** Cache the upper-level entries @p entry_pa a completed @p walk
     *  touched. */
    void update(const WalkResult &walk, const EntryPath &entry_pa,
                unsigned max_cacheable);

    /** Shootdown: drop the cached PTE at @p entry_pa (if present). */
    void invalidateEntry(Addr entry_pa);

    /**
     * Shootdown: drop every cached PTE living inside the (reclaimed)
     * page-table node frame at @p node_pa.
     */
    void invalidateNode(Addr node_pa);

    const MmuCacheStats &stats() const { return _stats; }
    std::uint64_t entryLookups() const { return _entryLookups; }
    std::uint64_t entryHits() const { return _entryHits; }
    std::size_t size() const { return _lru.size(); }

  private:
    std::size_t _entries;
    MmuCacheReplacement _repl;
    std::list<Addr> _lru;
    std::unordered_map<Addr, std::list<Addr>::iterator> _index;
    MmuCacheStats _stats;
    std::uint64_t _entryLookups = 0;
    std::uint64_t _entryHits = 0;

    bool touch(Addr entry_pa);
    void insert(Addr entry_pa);
};

} // namespace neummu

#endif // NEUMMU_MMU_MMU_CACHE_HH
