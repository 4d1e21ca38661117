/**
 * @file
 * Near-memory translation (after Picorel et al., "Near-Memory Address
 * Translation"): translation happens at the memory side with a flat,
 * index-based segment table instead of a radix walk near the core.
 * Virtual pages are grouped into aligned segments; a memory-side
 * segment cache answers repeat traffic at interconnect latency, and a
 * segment miss costs exactly ONE near-memory index fetch (the table
 * is flat -- no pointer chasing), bounded by a pool of concurrent
 * fetch units.
 *
 * The win over a radix design is the miss cost: one access instead of
 * four dependent levels. The cost is segment-granular reach -- a
 * sparse demand-paged footprint burns one cache entry per touched
 * segment regardless of how few of its pages are resident.
 */

#ifndef NEUMMU_MMU_NMT_HH
#define NEUMMU_MMU_NMT_HH

#include <cstdint>
#include <map>

#include "common/units.hh"
#include "mmu/mmu_engine.hh"

namespace neummu {

/** NMT design knobs (ConfigBinder group mmu.nmt.*). */
struct NmtConfig
{
    /** log2 pages per segment (9 = 512 pages = 2 MB at 4 KB). */
    unsigned segmentShift = 9;
    /** Memory-side segment-cache entries. */
    std::size_t cacheEntries = 128;
    /** Concurrent near-memory fetch units (outstanding misses). */
    unsigned numUnits = 8;
    /** Segment-cache hit latency (the memory-side hop). */
    Tick hitLatency = 4;
    /** Flat index-table fetch latency on a segment miss. */
    Tick fetchLatency = 200;
};

class Nmt : public MmuEngine
{
  public:
    Nmt(std::string name, EventQueue &eq, PageTable &pt,
        unsigned page_shift, NmtConfig cfg);

    bool translate(Addr va, std::uint64_t id) override;
    unsigned walkerBudget() const override { return _cfg.numUnits; }

    const NmtConfig &config() const { return _cfg; }
    /** Live segment-cache entries (tests/diagnostics). */
    std::size_t liveSegments() const { return _segments.size(); }

  protected:
    void dropCached(Addr va, const UnmapResult &unmapped) override;
    void refreshDesignStats() override;

  private:
    void finishFetch(Addr va, std::uint64_t id);
    Addr segmentOf(Addr vpn) const { return vpn >> _cfg.segmentShift; }

    NmtConfig _cfg;
    /** Segment -> last-use tick (ordered, so LRU eviction scans
     *  deterministically). */
    std::map<Addr, std::uint64_t> _segments;
    std::uint64_t _useTick = 0;

    std::uint64_t _segInstalls = 0;
    std::uint64_t _segEvictions = 0;
    std::uint64_t _segDrops = 0;
};

} // namespace neummu

#endif // NEUMMU_MMU_NMT_HH
