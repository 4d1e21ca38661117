/**
 * @file
 * Conservative hop-window discrete-event runtime: per-unit event
 * queues advanced serially over fixed-lookahead windows.
 *
 * The model is partitioned into units (for NeuMMU: the hub -- MMU,
 * router, paging engine -- plus one unit per NPU). Every unit that is
 * not co-resident with the hub owns a private calendar EventQueue.
 * All cross-unit interaction travels through per-(receiver queue,
 * sender unit) mailboxes with a fixed minimum latency of hopTicks --
 * the lookahead -- so each queue can execute the whole window
 * [W, W + hopTicks) without observing any other queue: a message
 * posted inside the window is due no earlier than the next window.
 *
 * Each round injects pending messages into, then runs, every queue
 * in index order. Results are deterministic by construction:
 *  - each queue's event stream is its own scheduled events plus
 *    messages injected at round starts;
 *  - injection iterates sender units in ascending unit id, FIFO per
 *    sender, so same-tick cross-sender ties always resolve the same
 *    way (the per-queue insertion seq does the rest);
 *  - the window sequence itself is a pure function of queue state:
 *    after each round the runtime jumps to the hop-aligned window
 *    containing the globally earliest pending event or message.
 */

#ifndef NEUMMU_SIM_DOMAIN_HH
#define NEUMMU_SIM_DOMAIN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

namespace neummu {

/**
 * Owns the per-unit queues, the mailboxes, and the hop-window
 * execution loop. Queue 0 is by convention the hub queue; unit ids
 * are model-wide and need not map 1:1 onto queues (several hub-
 * resident units may share queue 0).
 */
class DomainRuntime
{
  public:
    /**
     * @param num_queues Event queues (>= 1); queue 0 is the hub.
     * @param num_units Sender-unit id space for mailbox slots.
     * @param hop_ticks Cross-unit message latency = lookahead window
     *        width (>= 1). Every post() must honor it.
     */
    DomainRuntime(unsigned num_queues, unsigned num_units,
                  Tick hop_ticks);

    unsigned numQueues() const { return unsigned(_queues.size()); }
    /** Always 1: the runtime is serial. Kept only because the
     *  frozen perfbench runner reads it; drop at the next benchmark
     *  change. */
    unsigned numThreads() const { return 1; }
    Tick hopTicks() const { return _hop; }

    EventQueue &queue(unsigned q);

    /**
     * Declare that @p sender_unit will post to @p to_queue. Channels
     * must be registered before run() (at wiring time);
     * the round loop then scans only live channels instead of the
     * full queues x units slot matrix -- for a 64-NPU hub-and-spoke
     * system that is ~130 slots per window instead of ~4200.
     * Idempotent.
     */
    void addChannel(unsigned to_queue, unsigned sender_unit);

    /**
     * Post a cross-unit message: run @p cb on queue @p to_queue at
     * exactly tick @p deliver. The channel must have been registered
     * with addChannel(). Must be called from an event on
     * @p sender_unit's queue (or before run()), with
     * deliver >= sender now + hopTicks(); the runtime asserts the
     * lookahead on injection.
     */
    void post(unsigned to_queue, unsigned sender_unit, Tick deliver,
              EventCallback cb);

    /**
     * Drain every queue (and mailbox) up to and including @p limit,
     * one hop window per round; returns the final time
     * (max over queues). Not reentrant.
     */
    Tick run(Tick limit = maxTick);

    /** Max of the per-queue clocks (call outside run()). */
    Tick now() const;
    /** Sum of per-queue executed-event counts. */
    std::uint64_t eventsExecuted() const;
    /** Max of the per-queue peak pending-event depths. */
    std::uint64_t peakDepth() const;
    /** Synchronization rounds executed by run() so far. */
    std::uint64_t windowsExecuted() const { return _round; }
    /** Cross-unit messages posted so far. */
    std::uint64_t messagesPosted() const;

  private:
    struct Message
    {
        Tick deliver;
        EventCallback cb;
    };

    /**
     * One (receiver queue, sender unit) mailbox, double-buffered by
     * round parity: during round R the sender appends to buffer
     * [R & 1] while the receiver drains buffer [(R - 1) & 1] at its
     * round start, so every message is injected exactly one round
     * after it was posted. That pins delivery order independently of
     * queue order: a message from a lower-index sender, whose queue
     * ran first this round, cannot jump ahead of same-tick events the
     * receiver schedules later in the same round.
     */
    struct Slot
    {
        std::vector<Message> msgs[2];
        Tick minDeliver[2] = {maxTick, maxTick};
        std::uint64_t posted = 0;
        bool open = false;
    };

    Slot &slot(unsigned q, unsigned u)
    {
        return _slots[std::size_t(q) * _numUnits + u];
    }
    /** Schedule queue @p q's pending messages (ascending unit id). */
    void inject(unsigned q);
    /** Advance _windowEnd to the next nonempty window; false when
     *  nothing is pending up to _limit. */
    bool computeNextWindow();

    std::vector<std::unique_ptr<EventQueue>> _queues;
    unsigned _numUnits;
    Tick _hop;
    std::vector<Slot> _slots;
    /** Registered sender units per queue, ascending (inject order). */
    std::vector<std::vector<unsigned>> _sendersOfQueue;
    /** Flat (queue, unit) list of live channels (window scan). */
    std::vector<std::size_t> _liveSlots;

    // Round state. _round is the 1-based number of the round
    // currently (or last) executed; posts before run() count as
    // round 0, so the first round drains them.
    Tick _limit = maxTick;
    Tick _windowEnd = 0;
    bool _running = false;
    std::uint64_t _round = 0;
};

} // namespace neummu

#endif // NEUMMU_SIM_DOMAIN_HH
