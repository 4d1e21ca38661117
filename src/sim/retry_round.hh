/**
 * @file
 * One retry event for the blocked clients woken together on one queue.
 *
 * When the MMU frees capacity, each woken client retries its rejected
 * translation next cycle (Section IV-A). A DMA bound straight to its
 * engine joins the round itself. Behind a router, the router joins
 * for its DMAs: the DMA ports a wake releases go into a member the
 * router owns, which at the round probes the engine's admits() only
 * for the ports the engine could admit (see TranslationRouter). One
 * event per member would draw consecutive seqs for the same tick and
 * so run back to back; a RetryRound runs them from one event instead,
 * in wake order, with the same simulated result and one dispatch per
 * wake.
 */

#ifndef NEUMMU_SIM_RETRY_ROUND_HH
#define NEUMMU_SIM_RETRY_ROUND_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace neummu {

/**
 * Something a RetryRound retries: a DMA engine, or a router's round
 * of the DMA ports one wake released.
 */
class RetryMember
{
  public:
    /** Joined a round whose event has not fired yet. */
    bool inRetryRound() const { return _inRound; }

  protected:
    ~RetryMember() = default;

  private:
    friend class RetryRound;

    /** The round's call, at the tick after the wake. */
    virtual void retry() = 0;

    /** Next member of the pending round this one is in, if any. */
    RetryMember *_nextRetry = nullptr;
    bool _inRound = false;
};

/**
 * Batches next-cycle retries on one EventQueue. Every member on the
 * queue must share the queue's one RetryRound.
 */
class RetryRound
{
  public:
    explicit RetryRound(EventQueue &eq) : _eq(eq) {}

    EventQueue &eventQueue() const { return _eq; }

    /**
     * Run @p member's retry at now() + 1. The member joins the open
     * round when that round is for now() + 1 and nothing has been
     * scheduled on the queue since the round's event: its own event
     * would then have drawn the next seq for the same tick and run
     * right after the round's current members. A reserveSeq() counts
     * as scheduled here, since it draws a seq as schedule() does (a
     * DMA reserves one per landed burst). Otherwise the member opens
     * a new round with a new event.
     * @pre @p member is in no pending round (asserted).
     */
    void
    join(RetryMember &member)
    {
        NEUMMU_ASSERT(!member._inRound, "retry member joined two rounds");
        member._inRound = true;
        const Tick at = _eq.now() + 1;
        if (at == _openTick && _eq.nextSeq() == _openSeq + 1) {
            _openTail->_nextRetry = &member;
        } else {
            _openTick = at;
            _openSeq = _eq.nextSeq();
            RetryMember *first = &member;
            _eq.schedule(at, [first] { fire(first); });
        }
        _openTail = &member;
    }

  private:
    /** Round event: run the round that starts at @p first, in join
     *  order. */
    static void fire(RetryMember *first);

    EventQueue &_eq;
    /** Tick and event seq of the most recently opened round. */
    Tick _openTick = 0;
    std::uint64_t _openSeq = 0;
    /**
     * Last member of the most recently opened round. Each round is a
     * list threaded through its members (RetryMember::_nextRetry),
     * headed by the member its event captured.
     */
    RetryMember *_openTail = nullptr;
};

} // namespace neummu

#endif // NEUMMU_SIM_RETRY_ROUND_HH
