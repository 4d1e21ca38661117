/**
 * @file
 * The NPU's DMA unit. It decomposes tile runs into burst-sized,
 * page-bounded memory transactions, requests one address translation
 * per cycle (Section III-C), and launches the data reads as soon as
 * each translation returns, maximizing memory-level parallelism.
 * When the MMU's translation port blocks, the DMA stalls until the
 * MMU signals freed capacity.
 */

#ifndef NEUMMU_NPU_DMA_ENGINE_HH
#define NEUMMU_NPU_DMA_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memory_model.hh"
#include "mmu/translation.hh"
#include "npu/tile.hh"
#include "sim/event_queue.hh"
#include "sim/retry_round.hh"

namespace neummu {

namespace trace {
class TraceBuffer;
}

/** DMA engine configuration. */
struct DmaConfig
{
    /** Maximal bytes per linearized memory transaction. */
    std::uint64_t burstBytes = 1024;
    /** Page size bursts are clipped to (one translation per burst). */
    unsigned pageShift = 12;
    /**
     * Capacity hint for the outstanding-burst ring: an upper bound
     * on the ids one port has issued, answered or not, since its
     * oldest unanswered translation. Sized from the MMU config so
     * the ring never grows in steady state (see burstPoolRehashes()).
     */
    std::size_t inflightHint = 64;
};

/**
 * Fetches one tile at a time; the tile pipeline serializes fetches.
 * Behind a router port it is a deferred-retry client: the port runs
 * its retries (see DeferredRetryClient). Bound straight to an engine,
 * it joins the RetryRound itself on each wake.
 */
class DmaEngine final : private DeferredRetryClient, private RetryMember
{
  public:
    using DoneCallback = std::function<void(Tick)>;
    /** Observation hook: a translation was issued at @p tick for @p va. */
    using IssueHook = std::function<void(Tick, Addr)>;
    /**
     * Trace hook: every translation attempt, including ones the MMU
     * rejected (@p accepted false). Faithful enough to replay the
     * whole translation stream (see TraceRecorder / TraceWorkload).
     */
    using TraceHook =
        std::function<void(Tick, Addr, std::uint64_t, bool)>;

    /**
     * @param retry The retry round shared by every retry member on
     *        @p eq; woken engines retry from its events.
     */
    DmaEngine(std::string name, EventQueue &eq, TranslationEngine &mmu,
              MemoryModel &mem, DmaConfig cfg, RetryRound &retry);

    /**
     * Start fetching @p runs (already ordered: IA first, then W).
     * @p done fires at the tick the last byte lands in the SPM.
     * @pre !busy()
     */
    void fetch(std::vector<VaRun> runs, DoneCallback done);

    bool busy() const { return _active; }

    /** Install an optional per-translation observation hook (Fig. 7). */
    void setIssueHook(IssueHook hook) { _hook = std::move(hook); }

    /**
     * Install an optional per-attempt trace hook (trace recording).
     * @pre The port is not blocked on a wake: a router reads
     *      recordsAttempts() at each refusal, so a hook installed
     *      while the port waits would miss the rounds the router
     *      parks it through.
     */
    void setTraceHook(TraceHook hook);

    /**
     * Attach a lifecycle trace buffer (System wiring). @p key_base is
     * this port's router client tag (client << clientShift), OR'd
     * onto raw DMA ids so trace keys match the tagged ids the MMU
     * sees. Null (the default) keeps tracing fully off this path.
     * @pre As for setTraceHook().
     */
    void setTrace(trace::TraceBuffer *buf, std::uint64_t key_base);

    std::uint64_t translationsIssued() const { return _translations; }
    std::uint64_t bytesFetched() const { return _bytes; }
    /** Cycles the issue port spent blocked on the MMU. */
    std::uint64_t stallCycles() const { return _stallCycles; }
    stats::Group &stats() { return _stats; }

    /** Bursts with a translation in flight (tests/diagnostics). */
    std::size_t inflightBursts() const { return _inflight; }
    /** Peak outstanding-burst count (tests/diagnostics). */
    std::size_t burstPoolHighWater() const { return _inflightHighWater; }
    /** Burst ring growths; 0 when inflightHint was sized right. */
    std::size_t burstPoolRehashes() const { return _ringGrowths; }
    /** Burst ring slots (tests/diagnostics). */
    std::size_t burstRingCapacity() const { return _burstRing.size(); }

  private:
    /**
     * The issue loop: issueStep() now, and again next cycle (its own
     * event) while it asks. Started by fetch().
     */
    void issueLoop();
    /**
     * The RetryRound's entry after onWake() (a DMA bound straight to
     * its engine): the issue loop, with the first attempt probing
     * admits() before it translates.
     */
    void retry() override;
    /**
     * Attempt one burst's translation, first probing admits() when
     * @p probe. Returns true while the issue loop should keep running
     * (one request per cycle); false when done, blocked, or the tile
     * is fully issued.
     */
    bool issueStep(bool probe);
    void onTranslation(const TranslationResponse &resp);
    /**
     * MMU freed capacity. A blocked port charges its stall and joins
     * the RetryRound to retry at now() + 1; otherwise a no-op.
     */
    void onWake();

    // DeferredRetryClient: the router port's calls.
    bool
    awaitingWake() const override
    {
        return _blocked && !_issueScheduled;
    }
    bool recordsAttempts() const override { return _trace || _traceHook; }
    void retryAdmitted(Tick woken) override;
    void retriesRefused(std::uint64_t count, Tick last_woken) override;
    /** Charge the stall since _blockedSince up to @p until, and its
     *  CreditWait span; the port stays blocked from @p until. */
    void chargeWait(Tick until) override;

    /** Record burst @p id of @p len bytes as outstanding. */
    void trackBurst(std::uint64_t id, std::uint64_t len);
    /** Forget answered burst @p id; returns its length. */
    std::uint64_t untrackBurst(std::uint64_t id);
    /** Double the ring until ids up to @p id fit beside _ringBase. */
    void growRing(std::uint64_t id);

    bool currentBurst(Addr &va, std::uint64_t &len) const;
    void advance(std::uint64_t len);
    void finish();

    // What a refused retry touches comes first: under a shared IOMMU
    // most rounds refuse most of their DMAs.
    EventQueue &_eq;
    bool _blocked = false;
    bool _issueScheduled = false;
    Tick _blockedSince = 0;
    std::uint64_t _nextId = 0;
    std::uint64_t _stallCycles = 0;
    trace::TraceBuffer *_trace = nullptr;
    TraceHook _traceHook;
    /** Cached counters (here and after _stats): the issue loop runs
     *  every cycle, so no per-call string-keyed stats lookups on the
     *  hot path. A pointer, as _stats is built after it. */
    stats::Scalar *_sStallCycles = nullptr;

    std::string _name;
    TranslationEngine &_mmu;
    MemoryModel &_mem;
    DmaConfig _cfg;
    RetryRound &_retry;

    // Fetch-in-progress state.
    bool _active = false;
    std::vector<VaRun> _runs;
    std::size_t _runIdx = 0;
    std::uint64_t _runOffset = 0;
    bool _issuedAll = false;
    /**
     * Latest landing tick of the fetch's bursts so far, and the seq
     * reserved for it: where the fetch's finish event runs.
     */
    Tick _landTick = 0;
    std::uint64_t _landSeq = 0;
    DoneCallback _done;
    /**
     * Outstanding bursts: the length of burst id at id & (size - 1),
     * 0 for an id answered or burned (no burst is empty). The ring
     * holds every id from _ringBase, the oldest unanswered one, to
     * the newest. Ids rise by at most one a tick, so that span is at
     * most the oldest burst's age in ticks; the ring's power-of-two
     * size doubles when the span outgrows it.
     */
    std::vector<std::uint64_t> _burstRing;
    std::uint64_t _ringBase = 0;
    std::size_t _inflight = 0;
    std::size_t _inflightHighWater = 0;
    std::size_t _ringGrowths = 0;

    IssueHook _hook;
    std::uint64_t _traceKeyBase = 0;
    std::uint64_t _translations = 0;
    std::uint64_t _bytes = 0;
    stats::Group _stats;
    stats::Scalar &_sTranslationsIssued;
};

} // namespace neummu

#endif // NEUMMU_NPU_DMA_ENGINE_HH
