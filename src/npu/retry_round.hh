/**
 * @file
 * One retry event for the DMA engines woken together on one queue.
 *
 * When the MMU frees capacity, the router wakes its waiting ports one
 * after another, and each woken DMA retries its rejected translation
 * next cycle (Section IV-A), probing the MMU's admits() first so a
 * retry the MMU would refuse again costs no translate() call. One event per DMA would draw consecutive
 * seqs for the same tick and so run back to back; a RetryRound runs
 * them from one event instead, in wake order, with the same simulated
 * result and one dispatch per wake.
 */

#ifndef NEUMMU_NPU_RETRY_ROUND_HH
#define NEUMMU_NPU_RETRY_ROUND_HH

#include <cstdint>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace neummu {

class DmaEngine;

/**
 * Batches next-cycle DMA retries on one EventQueue. Every DMA engine
 * on the queue must share the queue's one RetryRound.
 */
class RetryRound
{
  public:
    explicit RetryRound(EventQueue &eq) : _eq(eq) {}

    EventQueue &eventQueue() const { return _eq; }

    /**
     * Run @p dma's retry at now() + 1. The DMA joins the open round
     * when that round is for now() + 1 and nothing has been
     * scheduled on the queue since the round's event: its own event
     * would then have drawn the next seq for the same tick and run
     * right after the round's current members. A reserveSeq() counts
     * as scheduled here, since it draws a seq as schedule() does (a
     * DMA reserves one per landed burst). Otherwise the DMA opens a
     * new round with a new event.
     * @pre @p dma is in no pending round.
     */
    void join(DmaEngine &dma);

  private:
    /** Round event: run the round that starts at @p first, in join
     *  order. */
    static void fire(DmaEngine *first);

    EventQueue &_eq;
    /** Tick and event seq of the most recently opened round. */
    Tick _openTick = 0;
    std::uint64_t _openSeq = 0;
    /**
     * Last member of the most recently opened round. Each round is a
     * list threaded through its members (DmaEngine::_nextRetry),
     * headed by the member its event captured.
     */
    DmaEngine *_openTail = nullptr;
};

} // namespace neummu

#endif // NEUMMU_NPU_RETRY_ROUND_HH
