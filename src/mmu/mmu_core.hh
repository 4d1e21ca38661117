/**
 * @file
 * Configurable cycle-level translation engine. One class covers the
 * whole design space the paper explores:
 *
 * - Oracular MMU: every translation resolves instantly (the paper's
 *   normalization baseline, Fig. 8 caption).
 * - Baseline IOMMU: IOTLB + a pool of hardware PTWs; a TLB-missing
 *   request grabs a free walker even when the same virtual page is
 *   already being walked (redundant walks, Fig. 12b).
 * - NeuMMU: adds the PTS (pending translation scoreboard), per-PTW
 *   PRMB merge slots, a larger walker pool, and a per-PTW TPreg.
 *
 * Requests that find neither a free walker nor a PRMB slot are
 * rejected: the DMA's translation port blocks (Section IV-A). A
 * rejected request changes nothing but rejection counters; in
 * particular it does not fire the access hook.
 */

#ifndef NEUMMU_MMU_MMU_CORE_HH
#define NEUMMU_MMU_MMU_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "mmu/mmu_cache.hh"
#include "mmu/mmu_engine.hh"
#include "mmu/tpreg.hh"
#include "mmu/translation.hh"
#include "sim/event_queue.hh"
#include "tlb/tlb.hh"
#include "vm/page_table.hh"

namespace neummu {

/** Full configuration of an MmuCore instance. */
struct MmuConfig
{
    /** IOTLB geometry/timing (Table I defaults). */
    TlbConfig tlb{};
    /** Hardware page-table walkers (IOMMU: 8; NeuMMU: 128). */
    unsigned numPtws = 8;
    /**
     * PRMB merge slots per PTW, counting requests merged *beyond* the
     * walk-initiating one. 0 disables PTS+PRMB (baseline IOMMU).
     */
    unsigned prmbSlots = 0;
    /** Which translation-path cache walkers consult. */
    MmuCacheKind pathCache = MmuCacheKind::None;
    /** Entry count for the shared Tpc/Uptc design points. */
    std::size_t sharedCacheEntries = 16;
    /** Replacement policy for the shared Tpc/Uptc caches. */
    MmuCacheReplacement sharedCacheReplacement =
        MmuCacheReplacement::Lru;
    /** Cycles per radix level walked (Table I: 100). */
    Tick walkLatencyPerLevel = 100;
    /** Page size the translation stream uses (12 or 21). */
    unsigned pageShift = smallPageShift;
    /** Oracular mode: all translations hit with zero latency. */
    bool oracle = false;
    /**
     * Sequential translation prefetch depth (extension; the paper
     * cites TLB-prefetching work as related art). On walk completion
     * for page p, idle walkers speculatively walk p+1..p+depth into
     * the TLB. 0 disables prefetching.
     */
    unsigned prefetchDepth = 0;
};

/** Canned baseline IOMMU configuration (Table I). */
MmuConfig baselineIommuConfig(unsigned page_shift = smallPageShift);
/** Canned NeuMMU configuration (Section IV-D: 128 PTW, 32 PRMB). */
MmuConfig neuMmuConfig(unsigned page_shift = smallPageShift);
/** Canned oracular MMU configuration. */
MmuConfig oracleMmuConfig(unsigned page_shift = smallPageShift);

/**
 * The registered MMU design points. The first four are the
 * walker-core design space one MmuCore instance covers (the paper's
 * named points plus Custom for a hand-tuned MmuConfig); the rest are
 * architecturally different engines built by the translation factory
 * (see translation_factory.hh) and configured through their own
 * SystemConfig sub-structs, not through MmuConfig.
 */
enum class MmuKind
{
    Oracle,
    BaselineIommu,
    NeuMmu,
    Custom,
    /** Range-based translation (RMM-style range TLB). */
    RangeMmu,
    /** Part-of-memory TLB: huge in-DRAM level under a small L1. */
    PomTlb,
    /** Near-memory translation (Picorel et al.). */
    Nmt,
};

std::string mmuKindName(MmuKind kind);

/** True for the kinds one MmuCore instance covers (an MmuConfig
 *  describes them; mmu.* binder keys edit this space). */
bool isWalkerCoreKind(MmuKind kind);

/**
 * The canned MmuConfig for a named walker-core @p kind at
 * @p page_shift.
 * @pre isWalkerCoreKind(kind) && kind != MmuKind::Custom
 */
MmuConfig mmuConfigFor(MmuKind kind, unsigned page_shift);

/**
 * The translation engine. Timing flows through the shared EventQueue;
 * functional translations come from the (CPU-owned) PageTable the
 * IOMMU has walk privileges for (Section II-B).
 */
class MmuCore : public MmuEngine
{
  public:
    MmuCore(std::string name, EventQueue &eq, PageTable &pt,
            MmuConfig cfg);

    bool translate(Addr va, std::uint64_t id) override;
    void setResponseCallback(ResponseCallback cb) override;
    void setWakeCallback(WakeCallback cb) override;
    const MmuCounts &counts() const override { return _counts; }

    /**
     * Exact admission probe: true on a TLB hit (which the channel
     * register only shortcuts), on a PTS hit with PRMB room, or on a
     * PTS miss with a free walker. Always true for the oracle. Exact
     * under an access hook too: translate() touches recency only on
     * the paths that accept.
     */
    bool admits(Addr va) override;
    /** Reports each page at walk start and at TLB fill. */
    void setAdmitWatch(PageCallback cb) override;
    /**
     * With a watch installed, a refusal stands until its page is
     * reported or a walker frees up.
     */
    bool refusalsHold() const override;

    /** Install the demand-paging handler (optional). */
    void setFaultHandler(FaultHandler handler) override;

    // --- Page lifecycle / translation coherence --------------------
    /**
     * Lifecycle bookkeeping (see MmuEngine::enableLifecycle). Off by
     * default -- the translate hot path then carries only a dead
     * branch and the stats surface is unchanged.
     */
    void enableLifecycle() override;
    void setAccessHook(AccessHook hook) override;

    /**
     * Shootdown for the page containing @p va after (or during) an
     * unmap/migration described by @p unmapped: drops the TLB entry,
     * scrubs TPreg/TPC/UPTC state made stale by reclaimed page-table
     * nodes and the changed leaf PTE, and squashes in-flight walks on
     * the page so they re-walk at completion instead of installing a
     * stale PA.
     */
    void shootdown(Addr va, const UnmapResult &unmapped) override;

    /**
     * TranslationEngine-interface shootdown (router ports forward
     * here): leaf-only coherence -- the caller did not reclaim
     * interior page-table nodes, or calls shootdown() itself with the
     * UnmapResult when it did.
     */
    void invalidate(Addr va) override;

    /**
     * True while any translation activity on @p vpn is in flight: a
     * walk (including a squashed one being retried) or -- with
     * lifecycle enabled -- a scheduled response not yet delivered.
     * The paging engine refuses to evict busy pages.
     */
    bool vpnBusy(Addr vpn) const override;

    const MmuConfig &config() const { return _cfg; }
    Tlb &tlb() { return _tlb; }
    stats::Group &stats() override { return _stats; }

    /** The walker pool is what the router partitions. */
    unsigned walkerBudget() const override { return _cfg.numPtws; }

    MmuCore *asMmuCore() override { return this; }

    /**
     * Mirror the live MmuCounts into the stats group (counters are
     * kept in a plain struct off the hot path); call before dumping.
     */
    void refreshStats() override;

    /** Attach a lifecycle trace buffer (the hub lane's; System wiring). */
    void setTraceBuffer(trace::TraceBuffer *buf) override
    {
        _trace = buf;
    }

    /** Fig. 13: per-level TPreg tag-match statistics (all PTWs). */
    const TpReg::MatchStats &tpregStats() const { return _tpregStats; }
    /** Section IV-C: shared-cache statistics (Tpc/Uptc modes). */
    const MmuCacheStats *sharedCacheStats() const;
    /** Section IV-C: UPTC per-entry hit rate. */
    double uptcEntryHitRate() const;

    /** Walkers currently busy (tests/diagnostics). */
    unsigned busyWalkers() const { return _busyWalkers; }
    /** Walkers currently idle in the free pool (tests/diagnostics). */
    std::size_t freeWalkers() const { return _freeWalkers.size(); }

    // --- Pool lifecycle observability (tests/diagnostics) ----------
    /** Live PTS scoreboard entries (0 once the queue drains). */
    std::size_t ptsLiveEntries() const { return _pts.size(); }
    /** Peak PTS scoreboard occupancy (bounded by the walker pool). */
    std::size_t ptsHighWater() const { return _pts.highWater(); }
    /** Live in-flight-VPN entries (0 once the queue drains). */
    std::size_t inflightLiveEntries() const { return _inflight.size(); }
    /** Peak in-flight-VPN occupancy (bounded by the walker pool). */
    std::size_t inflightHighWater() const
    {
        return _inflight.highWater();
    }
    /** Requests served by the per-channel translation registers. */
    std::uint64_t xlateRegisterHits() const { return _xlateRegHits; }

  private:
    struct Walker
    {
        bool busy = false;
        /**
         * A shootdown hit this walk's page mid-flight: the parked
         * outcome is stale and finishWalk() retries the walk instead
         * of completing it.
         */
        bool squashed = false;
        Addr vpn = invalidAddr;
        /**
         * Requests served by this walk: initiator first, merged PRMB
         * entries after; empty for speculative prefetch walks. Cleared
         * (capacity kept) when the walker is released.
         */
        std::vector<TranslationResponse> pending;
        /**
         * The functional walk outcome, parked here between
         * startWalk() and the walk-completion event so the scheduled
         * continuation captures only the walker index (and stays
         * within the EventCallback inline buffer).
         */
        WalkResult walk;
        TpReg tpreg;
    };

    /**
     * Per-channel last-translation register (not the per-PTW TpReg
     * of Section IV-C, which caches walk paths): caches the
     * channel's last TLB hit as (vpn, pfn) plus the TLB generation it
     * was snapshotted at. A register hit is exact: a generation match
     * means the TLB has not changed since the snapshot, so the vpn is
     * still at its set's MRU head and lookup() would hit without
     * relinking -- same response, same counters, no TLB mutation.
     */
    struct XlateReg
    {
        Addr vpn = invalidAddr;
        Addr pfn = 0;
        std::uint64_t gen = 0;
    };
    /** Channel registers; indexed by the router's client tag. */
    static constexpr std::size_t numXlateRegs = 16;

    void respondAt(Tick when, const TranslationResponse &resp);
    /** The PRMB of walk @p w can absorb one more request. */
    bool prmbRoom(const Walker &w) const;
    void startWalk(unsigned walker_idx, Addr va, std::uint64_t id,
                   bool is_prefetch = false);
    void launchWalk(unsigned walker_idx, Addr va, bool initial);
    void finishWalk(unsigned walker_idx);
    void releaseWalker(unsigned walker_idx);
    void maybePrefetch(Addr vpn);
    unsigned consultPathCache(Walker &w, Addr va, const WalkResult &walk);
    void updatePathCache(Walker &w, Addr va, const WalkResult &walk);
    Addr vpnOf(Addr va) const { return va >> _cfg.pageShift; }

    std::string _name;
    EventQueue &_eq;
    PageTable &_pt;
    MmuConfig _cfg;
    Tlb _tlb;
    std::vector<Walker> _walkers;
    /** Free-walker stack. */
    std::vector<unsigned> _freeWalkers;
    unsigned _busyWalkers = 0;
    /** PTS: in-flight VPN -> walker (only when prmbSlots > 0). */
    FlatMap64<unsigned> _pts;
    /** In-flight VPN multiplicity (redundant-walk accounting). */
    FlatMap64<unsigned> _inflight;
    std::array<XlateReg, numXlateRegs> _xlateRegs{};
    std::uint64_t _xlateRegHits = 0;
    std::unique_ptr<TranslationPathCache> _tpc;
    std::unique_ptr<UnifiedPageTableCache> _uptc;
    ResponseCallback _respond;
    WakeCallback _wake;
    FaultHandler _fault;
    AccessHook _access;
    PageCallback _admitWatch;
    trace::TraceBuffer *_trace = nullptr;
    /** Lifecycle bookkeeping enabled (see enableLifecycle()). */
    bool _lifecycle = false;
    /** VPN -> scheduled-but-undelivered responses (lifecycle only). */
    FlatMap64<unsigned> _pendingResp;
    MmuCounts _counts;
    TpReg::MatchStats _tpregStats;
    stats::Group _stats;
};

} // namespace neummu

#endif // NEUMMU_MMU_MMU_CORE_HH
