/**
 * @file
 * Translation-engine interface shared by the oracular MMU, the
 * baseline IOMMU, and NeuMMU. The DMA engine issues one translation
 * request per cycle (Section III-C) and receives completions through a
 * callback; a rejected issue models the blocked translation port
 * ("any further translation requests are blocked until the translation
 * bandwidth is available", Section IV-A).
 */

#ifndef NEUMMU_MMU_TRANSLATION_HH
#define NEUMMU_MMU_TRANSLATION_HH

#include <cstdint>
#include <functional>
#include <type_traits>

#include "common/types.hh"

namespace neummu {

/**
 * Completion of one translation request.
 *
 * In-flight responses are pooled, not allocated: they live in the
 * walkers' preallocated PRMB slabs while a walk is pending and are
 * captured by value in small-buffer event callbacks on the way back
 * to the DMA. Keep this struct small and trivially copyable (the
 * static_assert below guards the pooling contract).
 */
struct TranslationResponse
{
    /** Caller-chosen request token. */
    std::uint64_t id = 0;
    /** Requested virtual address. */
    Addr va = invalidAddr;
    /** Translated physical address. */
    Addr pa = invalidAddr;
};

static_assert(std::is_trivially_copyable_v<TranslationResponse> &&
                  sizeof(TranslationResponse) <= 32,
              "TranslationResponse is pooled in walker slabs and "
              "captured inline in event callbacks; keep it small "
              "and trivially copyable");

/** Aggregate translation-activity counters, one set per engine. */
struct MmuCounts
{
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t walks = 0;
    /** Walks started while the same VPN was already in flight. */
    std::uint64_t redundantWalks = 0;
    /** Requests absorbed by the PRMB. */
    std::uint64_t prmbMerges = 0;
    /** Issue-port rejections (translation bandwidth exhausted). */
    std::uint64_t blockedIssues = 0;
    /** DRAM transactions performed by page-table walks. */
    std::uint64_t walkMemAccesses = 0;
    /** Page faults taken (demand-paging experiments). */
    std::uint64_t faults = 0;
    /** Speculative walks issued by the sequential prefetcher. */
    std::uint64_t prefetchWalks = 0;
    /** PTS probe count (NeuMMU only). */
    std::uint64_t ptsLookups = 0;
    /** TPreg / MMU-cache consults. */
    std::uint64_t pathCacheConsults = 0;
    /** Page-table levels skipped thanks to TPreg / MMU cache. */
    std::uint64_t pathCacheSkippedLevels = 0;
    /** Translation shootdowns received (unmap/migration coherence). */
    std::uint64_t shootdowns = 0;
    /** In-flight walks squashed by a shootdown and retried. */
    std::uint64_t squashedWalks = 0;
};

class RetryRound;

/**
 * A client that retries its one blocked request a cycle after each
 * wake, from the queue's RetryRound (a DMA engine). A port that takes
 * its declaration (declareDeferredRetry()) runs those retries itself.
 *
 * Every wake that finds the client waiting gives it one round, a
 * cycle after the wake. At a round the port either visits the client
 * -- probes admits() with the refused VA and calls exactly one of
 * retryAdmitted() and retriesRefused(1, woken) -- or, when its engine
 * proves the refusal still holds, leaves it parked without a call.
 * Parked rounds are settled in one retriesRefused() call before the
 * client's next visit, or when the run stops. A client that
 * recordsAttempts() is visited at every round, so whatever it records
 * sees each refused round at its own tick.
 */
class DeferredRetryClient
{
  public:
    /** Blocked with no retry scheduled: the state of every client
     *  its port holds waiting or parked. */
    virtual bool awaitingWake() const = 0;

    /**
     * Whether the client records every attempt (a trace), refused
     * rounds included. Read at each refusal: such a client is never
     * parked.
     */
    virtual bool recordsAttempts() const = 0;

    /** The port admits the retry: charge the wait up to @p woken,
     *  the tick of the wake, and issue it now. */
    virtual void retryAdmitted(Tick woken) = 0;

    /**
     * The engine refused @p count rounds in a row, the last one woken
     * at @p last_woken: do their bookkeeping as that many rejected
     * translate() calls would. Each round charges the wait up to its
     * wake and blocks the client again from the round, a tick after
     * the wake, so the rounds charge last_woken - blockedSince -
     * (count - 1) in all and leave the client blocked from
     * last_woken + 1. A client that recordsAttempts() gets count 1.
     */
    virtual void retriesRefused(std::uint64_t count, Tick last_woken) = 0;

    /**
     * Charge the wait up to @p woken now, for a run that stops before
     * the round: the round's own charge then adds nothing.
     */
    virtual void chargeWait(Tick woken) = 0;

  protected:
    ~DeferredRetryClient() = default;
};

/**
 * Abstract address-translation service as seen from the DMA engine.
 */
class TranslationEngine
{
  public:
    using ResponseCallback =
        std::function<void(const TranslationResponse &)>;
    /** Invoked when previously exhausted capacity frees up. */
    using WakeCallback = std::function<void()>;
    /** Reports page @p vpn (of 2^@p page_shift bytes); see
     *  setAdmitWatch(). */
    using PageCallback =
        std::function<void(Addr vpn, unsigned page_shift)>;

    virtual ~TranslationEngine() = default;

    /**
     * Try to issue a translation of @p va with token @p id.
     * @return False when the request is blocked (no PTW and no PRMB
     *         slot available); the caller must retry after a wake.
     */
    virtual bool translate(Addr va, std::uint64_t id) = 0;

    /**
     * Admission probe: false only when translate(@p va, ...) would be
     * rejected right now. A rejection changes nothing but rejection
     * counters (it touches no cached state and no page recency), so
     * a client retrying a blocked request may skip the call. A
     * refusal counts as a rejection for wake purposes: the caller
     * must retry after a wake. Default: true.
     */
    virtual bool admits(Addr va)
    {
        (void)va;
        return true;
    }

    /**
     * Declare that this client's wake callback retries inside the
     * wake call, probing admits() first, and retries nothing but the
     * request last rejected or refused (a hub bridge replaying its
     * parked queue). A router may then skip the wake while its engine
     * proves the refusal still holds. Default: no-op.
     */
    virtual void declareWakeRetry() {}

    /**
     * Declare @p client a deferred-retry client that retries from
     * @p round. A port that runs such retries itself (a router port)
     * then retries for it from @p round in place of calling the wake
     * callback (see DeferredRetryClient). Engines that wake their
     * client directly ignore it.
     */
    virtual void
    declareDeferredRetry(DeferredRetryClient &client, RetryRound &round)
    {
        (void)client;
        (void)round;
    }

    /**
     * Refusal watch: from now on, report through @p cb every page
     * that may newly admit requests -- one a walk starts on or one
     * that enters the TLB. Engines that keep no watch ignore it, and
     * their refusalsHold() stays false.
     */
    virtual void setAdmitWatch(PageCallback cb) { (void)cb; }

    /**
     * True when every refusal still stands for pages not reported to
     * the admit watch since: admits(va) then stays false for any va
     * refused earlier whose page went unreported. Default: false.
     */
    virtual bool refusalsHold() const { return false; }

    /** Register the completion callback (call once, before use). */
    virtual void setResponseCallback(ResponseCallback cb) = 0;

    /** Register the capacity-freed callback. */
    virtual void setWakeCallback(WakeCallback cb) = 0;

    /**
     * Shoot down any cached or in-flight translation state for the
     * page containing @p va (the mapping changed or is about to).
     * Engines with no cached state ignore it; router ports forward it
     * to the shared engine so any client can request invalidation.
     */
    virtual void invalidate(Addr va) { (void)va; }

    /** Activity counters. */
    virtual const MmuCounts &counts() const = 0;
};

} // namespace neummu

#endif // NEUMMU_MMU_TRANSLATION_HH
