/**
 * @file
 * Page lifecycle engine: demand fetch, eviction, and migration for
 * one memory node, with system-wide translation shootdown.
 *
 * The paper's motivating scenarios (Section I, Figs. 15-16) --
 * oversubscribed HBM, steady-state demand paging, host<->NPU page
 * migration -- need mappings that change over time. This engine
 * services the MmuCore demand-paging hook: a fault allocates a frame
 * on the managed node (evicting cold resident pages when the node or
 * the configured residency cap is exhausted), maps the page, and
 * charges the transfer through the host link and the node's memory
 * model. Every eviction runs the full coherence protocol: unmap with
 * page-table-node reclaim, then MmuCore::shootdown so no cached or
 * in-flight translation can resolve to the stale frame.
 *
 * Counters land in the registry as "<system>.paging.*".
 */

#ifndef NEUMMU_SYSTEM_PAGING_ENGINE_HH
#define NEUMMU_SYSTEM_PAGING_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/interconnect.hh"
#include "vm/resident_set.hh"

namespace neummu {

class System;

namespace trace {
class TraceBuffer;
}

/** Page lifecycle / oversubscription knobs (SystemConfig.paging). */
struct PagingConfig
{
    /**
     * Master switch. Off (the default) keeps mappings immutable and
     * every legacy run byte-identical; on, the System owns a
     * PagingEngine, installs it as the MMU's fault handler, and
     * enables the MmuCore lifecycle bookkeeping.
     */
    bool enabled = false;
    /** Victim selection for resident-page reclaim. */
    EvictionPolicy policy = EvictionPolicy::Clock;
    /**
     * Cap on bytes of demand-paged data resident on the managed node;
     * 0 uses the node's full capacity. Setting this below a
     * workload's footprint is the oversubscription knob: the engine
     * then evicts/fetches at steady state.
     */
    std::uint64_t residentLimitBytes = 0;
    /** NPU slot whose memory node the engine manages. */
    unsigned homeNode = 0;
    /** OS/runtime fault-handling overhead per miss, in cycles. */
    Tick faultLatency = 10000;
    /** Host link pages migrate over (Table I PCIe by default). */
    LinkConfig link = pcieLinkConfig();
    /**
     * Charge an HBM read plus a link transfer for every eviction
     * (write-back migration); off models clean/discardable pages.
     */
    bool writebackOnEvict = true;
};

/**
 * Owned by System when SystemConfig.paging.enabled. All mutation of
 * the page table after construction time is expected to flow through
 * this engine (or to replicate its unmap -> shootdown discipline).
 */
class PagingEngine
{
  public:
    /**
     * Installs itself as @p system's MMU fault handler and access
     * hook. Construct after the System's nodes exist; one engine per
     * System.
     */
    PagingEngine(System &system, const PagingConfig &cfg);

    PagingEngine(const PagingEngine &) = delete;
    PagingEngine &operator=(const PagingEngine &) = delete;

    /**
     * Demand-fault entry point (the MmuCore FaultHandler): fetch the
     * page containing @p va onto the managed node, evicting victims
     * as needed, and return the tick its data is resident. Faults on
     * a page whose fetch is already in flight coalesce onto it.
     */
    Tick handleFault(Addr va, Tick now);

    /**
     * Map the page containing @p page_va right now (setup-time
     * pre-population of a working set): allocates and maps like a
     * fault -- evicting if over cap -- but charges no transfer time.
     * No-op when the page is already resident.
     */
    void installResident(Addr page_va);

    /**
     * Permanently release the page containing @p page_va (its VA
     * region is being destroyed, not evicted): unmap, shoot down, and
     * recycle the frame with no write-back -- the data has no owner
     * to write back for. The tenant-retirement path.
     * @return False when the page is not under this engine's
     *         management (caller handles it, or it was never mapped).
     */
    bool releasePage(Addr page_va);

    const PagingConfig &config() const { return _cfg; }
    const ResidentSet &residentSet() const { return _resident; }
    std::uint64_t maxResidentPages() const { return _maxResidentPages; }

    // --- Counters (also mirrored into the "<sys>.paging" group) ----
    std::uint64_t faults() const { return _faults; }
    /** Faults that waited on an already-in-flight fetch. */
    std::uint64_t coalescedFaults() const { return _coalescedFaults; }
    /** Soft-cap overshoots (no quiet victim at fault time). */
    std::uint64_t overcommits() const { return _overcommits; }
    std::uint64_t evictions() const { return _evictions; }
    /** Pages released through segment teardown (tenant churn). */
    std::uint64_t releasedPages() const { return _released; }
    std::uint64_t shootdowns() const { return _shootdowns; }
    std::uint64_t fetchedBytes() const { return _fetchedBytes; }
    std::uint64_t writebackBytes() const { return _writebackBytes; }
    std::uint64_t stallCycles() const { return _stallCycles; }
    std::uint64_t residentPeakPages() const { return _residentPeak; }

    stats::Group &stats() { return _stats; }
    stats::Group &linkStats() { return _link.stats(); }

    /**
     * Mirror the live counters into the stats group (the counters
     * live in plain members off the event path); System calls this
     * before every dump, matching MmuEngine::refreshStats.
     */
    void refreshStats();

    /** Attach a lifecycle trace buffer (the hub lane's; System
     *  wiring). Page fetches/evictions trace under page keys. */
    void setTrace(trace::TraceBuffer *buf) { _trace = buf; }

  private:
    /**
     * Evict one cold resident page: unmap (reclaiming empty
     * page-table nodes), shoot the translation down system-wide, and
     * recycle the frame. When @p timed, the write-back transfer is
     * charged and @p when advances to its completion.
     * @return False when every resident page is pinned by in-flight
     *         translation work (caller overshoots the soft cap).
     */
    bool evictOne(bool timed, Tick &when);

    /** Allocate a frame, evicting until one fits under the cap. */
    Addr acquireFrame(bool timed, Tick &when);

    System &_sys;
    PagingConfig _cfg;
    unsigned _pageShift;
    std::uint64_t _pageBytes;
    std::uint64_t _maxResidentPages;
    ResidentSet _resident;
    Link _link;
    /** Page VA -> residency tick of its in-flight fetch. */
    FlatMap64<Tick> _migrating;
    trace::TraceBuffer *_trace = nullptr;

    std::uint64_t _faults = 0;
    std::uint64_t _coalescedFaults = 0;
    std::uint64_t _overcommits = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _released = 0;
    std::uint64_t _shootdowns = 0;
    std::uint64_t _fetchedBytes = 0;
    std::uint64_t _writebackBytes = 0;
    std::uint64_t _stallCycles = 0;
    std::uint64_t _residentPeak = 0;

    stats::Group _stats;
};

} // namespace neummu

#endif // NEUMMU_SYSTEM_PAGING_ENGINE_HH
