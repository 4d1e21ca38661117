/**
 * @file
 * Range-based translation (after RMM, Karakostas et al., ISCA 2015):
 * a small fully-associative range TLB whose entries map arbitrarily
 * long runs of contiguous virtual pages onto contiguous physical
 * frames. A hit covers the whole run at near-register latency; a miss
 * pays a full radix walk, then eagerly probes the page table outward
 * from the missing page to construct the largest contiguous range (up
 * to maxRangePages) before caching it.
 *
 * This design shines exactly when the allocator produces contiguity
 * -- the bump-allocating FrameAllocator does for dense tensors -- and
 * degrades toward a tiny TLB under fragmented demand-paged mappings.
 * Shootdowns SPLIT the covering range around the dead page rather
 * than dropping it, so paging churn erodes ranges instead of
 * flushing them.
 */

#ifndef NEUMMU_MMU_RANGE_MMU_HH
#define NEUMMU_MMU_RANGE_MMU_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "mmu/mmu_engine.hh"

namespace neummu {

/** RangeMMU design knobs (ConfigBinder group mmu.range.*). */
struct RangeMmuConfig
{
    /** Fully-associative range-TLB entries. */
    std::size_t entries = 64;
    /** Eager range-construction cap, in pages. */
    unsigned maxRangePages = 512;
    /** Concurrent range-table walkers (outstanding misses). */
    unsigned numWalkers = 8;
    /** Range-TLB hit latency in cycles. */
    Tick hitLatency = 2;
    /** Cycles per radix level on the miss path. */
    Tick walkLatencyPerLevel = 100;
};

class RangeMmu : public MmuEngine
{
  public:
    RangeMmu(std::string name, EventQueue &eq, PageTable &pt,
             unsigned page_shift, RangeMmuConfig cfg);

    bool translate(Addr va, std::uint64_t id) override;
    unsigned walkerBudget() const override { return _cfg.numWalkers; }

    const RangeMmuConfig &config() const { return _cfg; }
    /** Cached ranges (tests/diagnostics). */
    std::size_t liveRanges() const { return _ranges.size(); }
    /** Lookups served by the last-hit fast path (diagnostics). */
    std::uint64_t rangeFastHits() const { return _rangeFastHits; }

  protected:
    void dropCached(Addr va, const UnmapResult &unmapped) override;
    void refreshDesignStats() override;

  private:
    /** One cached run: pages [vpnBase, vpnBase+pages) map onto frames
     *  [pfnBase, pfnBase+pages). */
    struct Range
    {
        Addr vpnBase;
        std::uint64_t pages;
        Addr pfnBase;
        std::uint64_t lastUse;
    };

    void finishWalk(Addr va, std::uint64_t id);
    void installRange(Addr vpn, Addr pfn);
    Range *lookupRange(Addr vpn);

    RangeMmuConfig _cfg;
    std::vector<Range> _ranges;
    std::uint64_t _useTick = 0;

    /** Last-hit lookup cache: valid while _lastHitGen == _rangeGen
     *  (the generation bumps on every table mutation). */
    std::size_t _lastHitIdx = 0;
    std::uint64_t _rangeGen = 1;
    std::uint64_t _lastHitGen = 0;
    std::uint64_t _rangeFastHits = 0;

    std::uint64_t _rangeInstalls = 0;
    std::uint64_t _rangeEvictions = 0;
    std::uint64_t _rangeSplits = 0;
    /** Pages covered by installed ranges (avg length = /installs). */
    std::uint64_t _rangePagesInstalled = 0;
};

} // namespace neummu

#endif // NEUMMU_MMU_RANGE_MMU_HH
