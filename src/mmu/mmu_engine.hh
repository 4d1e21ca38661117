/**
 * @file
 * The one base of every translation design: what a System needs from
 * its MMU beyond the raw TranslationEngine issue/response surface,
 * and the plumbing every design shares.
 *
 * TranslationEngine is the DMA-facing port (translate/respond/wake);
 * MmuEngine adds the system-facing lifecycle surface -- demand-fault
 * handling, shootdown coherence, busy-page queries for the paging
 * engine, stats mirroring -- and holds, once, the machinery behind
 * it: response scheduling with lifecycle delivery-window tracking,
 * the fault-resolving functional walk, in-flight VPN bookkeeping for
 * vpnBusy(), the common counter mirror, and the per-channel
 * translation registers in front of a design's TLB. A design (the
 * walker-core MmuCore, RangeMmu, PomTlb, Nmt; see
 * translation_factory.hh) implements only its lookup structures, its
 * timing and its dropCached() rule.
 *
 * Coherence model: every design binds the physical address LATE --
 * the functional walk that produces a responded PA runs at completion
 * time (or is retried there after a shootdown), never at issue time
 * for a miss -- and every outstanding miss registers its VPN, so the
 * paging engine (which refuses to evict vpnBusy pages) can never
 * unmap a page under it. Cached design state is kept coherent by
 * shootdown().
 */

#ifndef NEUMMU_MMU_MMU_ENGINE_HH
#define NEUMMU_MMU_MMU_ENGINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "mmu/energy_model.hh"
#include "mmu/translation.hh"
#include "sim/event_queue.hh"
#include "tlb/tlb.hh"
#include "trace/trace_engine.hh"
#include "vm/page_table.hh"

namespace neummu {

class MmuCore;

/**
 * Abstract MMU design point. Every design the factory registers
 * (walker-core Oracle/IOMMU/NeuMMU, RangeMMU, POM-TLB, NMT, ...)
 * derives from it, so System, PagingEngine, and ServingEngine are
 * design-agnostic.
 */
class MmuEngine : public TranslationEngine
{
  public:
    /**
     * Demand-paging hook: invoked when a translation reaches an
     * unmapped page. The handler must install a mapping immediately
     * (so a re-walk succeeds) and return the tick at which the page
     * data is actually resident.
     */
    using FaultHandler = std::function<Tick(Addr va, Tick now)>;

    /**
     * Observation hook for the page-lifecycle machinery: fired once
     * for every accepted translation request (hit or miss), so the
     * paging engine can maintain access recency for its eviction
     * policy. A rejected request fires nothing: like a request the
     * IOMMU front end refuses, it never reaches the page table.
     * RangeMmu and Nmt are the exceptions and fire it for rejected
     * requests too (see their translate()).
     */
    using AccessHook = std::function<void(Addr va)>;

    /**
     * @param inflight_capacity initial slots of the in-flight VPN map
     *        (it grows on demand; size it to the outstanding misses).
     */
    MmuEngine(std::string name, EventQueue &eq, PageTable &pt,
              unsigned page_shift, std::size_t inflight_capacity = 64);

    void setResponseCallback(ResponseCallback cb) override;
    void setWakeCallback(WakeCallback cb) override;
    const MmuCounts &counts() const override { return _counts; }

    /** Install the demand-paging handler (optional). */
    void setFaultHandler(FaultHandler handler);

    /**
     * Turn on the lifecycle bookkeeping the paging engine needs:
     * per-VPN tracking of scheduled-but-undelivered responses (so
     * vpnBusy() covers the response-delivery window) and the access
     * hook. Off by default: the translate hot path then carries only
     * a dead branch and the stats surface is unchanged.
     */
    void enableLifecycle();
    void setAccessHook(AccessHook hook);

    /** Attach a lifecycle trace buffer (System wiring); the buffer
     *  must be the hub lane's (the engine runs hub-side). */
    void setTraceBuffer(trace::TraceBuffer *buf) { _trace = buf; }

    /**
     * Shootdown for the page containing @p va after (or during) an
     * unmap/migration described by @p unmapped: counts it, then the
     * design drops every cached translation covering the page and
     * makes sure no in-flight work delivers a stale PA (dropCached).
     */
    void shootdown(Addr va, const UnmapResult &unmapped);

    /**
     * TranslationEngine-interface shootdown (router ports forward
     * here): leaf-only coherence -- the caller reclaimed no interior
     * page-table nodes, or calls shootdown() itself when it did.
     */
    void invalidate(Addr va) override;

    /**
     * True while any translation activity on @p vpn is in flight: a
     * lookup/walk, or -- with lifecycle enabled -- a scheduled
     * response not yet delivered. The paging engine refuses to evict
     * busy pages.
     */
    bool
    vpnBusy(Addr vpn) const
    {
        return _inflight.contains(vpn) || _pendingResp.contains(vpn);
    }

    /**
     * No page is busy: no outstanding miss and no response on the
     * wire that lifecycle tracking knows of. Holds whenever the event
     * queue has drained (System::run checks it).
     */
    bool idle() const { return _inflight.empty() && _pendingResp.empty(); }

    /** The design's stats group (registered by System). */
    stats::Group &stats() { return _stats; }

    /**
     * Mirror the live MmuCounts (kept in a plain struct off the hot
     * path) and then the design's own counters into the stats group;
     * call before dumping.
     */
    void refreshStats();

    /**
     * Concurrent-lookup capacity the TranslationRouter partitions
     * across NPUs (walkers, miss registers, or near-memory units --
     * whatever bounds the design's outstanding misses).
     */
    virtual unsigned walkerBudget() const = 0;

    /**
     * Total translation energy in nanojoules under the shared
     * EnergyModel constants. The default prices counts(), which every
     * design maintains; designs whose dominant structures fall outside
     * MmuCounts (range CAMs, DRAM TLBs, near-memory units) override
     * with structure-specific accounting.
     */
    virtual double translationEnergyNj() const
    {
        return EnergyModel{}.translationEnergyNj(counts());
    }

    /** Walker-core downcast for drivers that read core-only stats
     *  (TPreg match rates, shared path caches); null otherwise. */
    virtual MmuCore *asMmuCore() { return nullptr; }

    /** Outstanding misses (busy walkers or miss registers). */
    unsigned busyWalkers() const { return _busy; }
    /** Live in-flight-VPN entries (0 once the queue drains). */
    std::size_t inflightLiveEntries() const { return _inflight.size(); }
    /** Peak in-flight-VPN occupancy (bounded by the walker budget). */
    std::size_t inflightHighWater() const
    {
        return _inflight.highWater();
    }
    /** Requests served by the per-channel translation registers. */
    std::uint64_t xlateRegisterHits() const { return _xlateRegHits; }

  protected:
    /**
     * Drop every cached translation covering the page of @p va, and
     * keep in-flight work on it from delivering a stale PA.
     */
    virtual void dropCached(Addr va, const UnmapResult &unmapped) = 0;
    /** Mirror design-specific counters into the stats group. */
    virtual void refreshDesignStats() {}

    Addr vpnOf(Addr va) const { return va >> _pageShift; }

    /** The PA of @p va inside frame @p pfn. */
    Addr
    frameAddr(Addr pfn, Addr va) const
    {
        return (pfn << _pageShift) | (va & pageOffsetMask(_pageShift));
    }

    /** Schedule a response, tracking the delivery window under
     *  lifecycle so vpnBusy() covers in-wire responses. */
    void respondAt(Tick when, const TranslationResponse &resp);

    /**
     * Functional translate with demand-fault resolution: walks the
     * page table, faulting the page in through the handler when
     * unmapped. @p ready receives the residency tick (== @p now when
     * no fault was taken).
     */
    WalkResult resolve(Addr va, Tick now, Tick &ready);

    static constexpr unsigned noWalker = ~0u;

    /**
     * Register an outstanding miss on @p vpn, walked by @p walker;
     * returns its multiplicity including this one.
     */
    unsigned
    noteInflight(Addr vpn, unsigned walker = noWalker)
    {
        Inflight &entry = _inflight.insert(vpn, Inflight{}).first;
        entry.walker = walker;
        return ++entry.count;
    }
    /** Retire an outstanding miss on @p vpn. */
    void dropInflight(Addr vpn);
    bool inflight(Addr vpn) const { return _inflight.contains(vpn); }
    /**
     * The walker noted by the latest outstanding miss on @p vpn, or
     * null when none is in flight; exact for a design that never
     * walks one VPN twice at once.
     */
    const unsigned *
    inflightWalker(Addr vpn) const
    {
        const Inflight *entry = _inflight.find(vpn);
        return entry ? &entry->walker : nullptr;
    }

    /**
     * Take an issue slot for a miss on @p vpn. False, counted as a
     * blocked issue, when all walkerBudget() slots are busy.
     */
    bool claimMiss(Addr vpn);
    /** Free the slot of a finished miss on @p vpn and wake waiters. */
    void retireMiss(Addr vpn);

    /**
     * The TLB front end: serve @p va from the per-channel register or
     * from @p tlb, answering @p hit_latency later. Returns false, with
     * nothing changed but the TLB's miss count, on a TLB miss.
     *
     * A channel register caches its channel's last TLB hit as (vpn,
     * pfn) plus the TLB generation it was snapshotted at. A register
     * hit is exact: a generation match means the TLB has not changed
     * since the snapshot, so the vpn is still at its set's MRU head
     * and lookup() would hit without relinking -- same response, same
     * counters, no TLB mutation. The registers carry no TLB identity,
     * so an engine fronts exactly one TLB with them.
     */
    bool
    serveFromTlb(Tlb &tlb, Tick hit_latency, Addr va, std::uint64_t id)
    {
        const Addr vpn = vpnOf(va);
        XlateReg &reg = _xlateRegs[std::size_t(id >> 56) % numXlateRegs];
        Addr pfn = invalidAddr;
        if (reg.gen == tlb.generation() && reg.vpn == vpn) {
            tlb.noteRegisterHit();
            _xlateRegHits++;
            pfn = reg.pfn;
        } else if (tlb.lookup(vpn, pfn)) {
            // Snapshot after lookup(): a relink bumps the generation,
            // so the register is stamped with vpn at the MRU head.
            reg = XlateReg{vpn, pfn, tlb.generation()};
        } else {
            return false;
        }
        if (_access)
            _access(va);
        _counts.tlbHits++;
        const Tick now = _eq.now();
        if (_trace)
            _trace->span(id, trace::Stage::TlbHit, now, now + hit_latency);
        respondAt(now + hit_latency,
                  TranslationResponse{id, va, frameAddr(pfn, va)});
        return true;
    }

    std::string _name;
    EventQueue &_eq;
    PageTable &_pt;
    const unsigned _pageShift;
    ResponseCallback _respond;
    WakeCallback _wake;
    FaultHandler _fault;
    AccessHook _access;
    bool _lifecycle = false;
    /** Outstanding misses (issue slots taken). */
    unsigned _busy = 0;
    /** Lifecycle trace buffer; null keeps tracing off this design. */
    trace::TraceBuffer *_trace = nullptr;
    MmuCounts _counts;

  private:
    /** Per-channel last-translation register (see serveFromTlb). */
    struct XlateReg
    {
        Addr vpn = invalidAddr;
        Addr pfn = 0;
        std::uint64_t gen = 0;
    };
    /** Channel registers; indexed by the router's client tag. */
    static constexpr std::size_t numXlateRegs = 16;

    std::array<XlateReg, numXlateRegs> _xlateRegs{};
    std::uint64_t _xlateRegHits = 0;
    /** Outstanding misses on one VPN (see noteInflight()). */
    struct Inflight
    {
        unsigned count = 0;
        unsigned walker = noWalker;
    };

    /** VPN -> outstanding-miss multiplicity and walker. */
    FlatMap64<Inflight> _inflight;
    /** VPN -> scheduled-but-undelivered responses (lifecycle only). */
    FlatMap64<unsigned> _pendingResp;
    stats::Group _stats;
};

} // namespace neummu

#endif // NEUMMU_MMU_MMU_ENGINE_HH
