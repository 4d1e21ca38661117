/**
 * @file
 * Discrete-event simulation kernel. All cycle-level components in the
 * simulator (DMA engine, MMU, memory) schedule callbacks on a shared
 * EventQueue; one tick equals one NPU clock cycle (1 GHz, Table I).
 *
 * The queue is a bucketed calendar: a near-term ring of per-tick
 * buckets covering the next nearWindowTicks cycles, plus a far-term
 * binary heap for events beyond the window. Steady-state scheduling
 * (walk completions, burst launches, PRMB drains -- all within a few
 * hundred cycles) is a ring append with no heap allocation: the
 * callback type is small-buffer optimized (sim/callback.hh) and the
 * bucket vectors retain their capacity across reuse. Far events
 * migrate into the ring as the window advances; when the ring drains
 * entirely (e.g. a multi-thousand-cycle page-fault gap), the cursor
 * jumps straight to the next far event instead of scanning the gap.
 */

#ifndef NEUMMU_SIM_EVENT_QUEUE_HH
#define NEUMMU_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/callback.hh"
#include "sim/profiler.hh"

namespace neummu {

/**
 * A time-ordered queue of callbacks. Events scheduled for the same
 * tick execute in (priority, insertion-order) order, which keeps the
 * simulation deterministic -- including events scheduled for the
 * current tick while it is being dispatched, and a lower-priority
 * value scheduled mid-tick preempting already-pending same-tick work.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    /** Default event priority. Lower values execute first. */
    static constexpr int defaultPriority = 0;

    /**
     * Width of the near-term calendar window, in ticks (power of
     * two). Events within now() + nearWindowTicks take the ring fast
     * path; anything farther goes to the far-term heap.
     */
    static constexpr Tick nearWindowTicks = 1024;

    EventQueue();

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @pre when >= now()
     */
    void schedule(Tick when, Callback cb,
                  int priority = defaultPriority);

    /** Schedule @p cb to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb, int priority = defaultPriority)
    {
        schedule(_now + delta, std::move(cb), priority);
    }

    bool empty() const { return _pending == 0; }
    std::size_t size() const { return _pending; }

    /** Time of the next pending event; maxTick when empty. */
    Tick nextEventTick() const;

    /** Execute exactly one event (the earliest); returns false if idle. */
    bool step();

    /**
     * Run until the queue drains or simulated time would exceed
     * @p limit. The limit is inclusive: an event scheduled exactly at
     * @p limit executes; the first event strictly after it stays
     * pending. Returns the final simulated time (which is <= limit,
     * and less when the queue drained early -- now() is never
     * advanced past the last executed event).
     */
    Tick run(Tick limit = maxTick);

    /** Total number of events executed (for simulator stats). */
    std::uint64_t eventsExecuted() const { return _executed; }

    /** High-water mark of pending events (for simulator stats). */
    std::uint64_t peakDepth() const { return _peakDepth; }

    /**
     * Same-tick dispatches that skipped the calendar scan (host-side
     * fast-path counter).
     */
    std::uint64_t
    sameTickShortcuts() const
    {
        return _sameTickShortcuts;
    }

    /**
     * Enable host-side cycle attribution on this queue. The profiler
     * lives for the queue's lifetime; components reach it via
     * profiler() for NEUMMU_PROF_SCOPE.
     */
    void enableProfiling();

    /** The queue's profiler; null unless enableProfiling() ran. */
    SimProfiler *profiler() { return _prof.get(); }

  private:
    struct Event
    {
        int priority;
        std::uint64_t seq;
        Callback cb;
    };

    /**
     * One tick's events. Because the ring covers exactly
     * nearWindowTicks ticks and events are never scheduled into the
     * past, all events in one bucket share one tick. Events append in
     * seq order; dispatch consumes [head, events.size()). The vector
     * is cleared (capacity retained) once fully consumed, so
     * steady-state reuse never reallocates.
     */
    struct Bucket
    {
        std::vector<Event> events;
        std::size_t head = 0;
        /** Tick the pending events belong to (valid when non-empty). */
        Tick when = 0;
        /** Remaining range is not (priority, seq)-sorted. */
        bool needsSort = false;

        bool hasPending() const { return !events.empty(); }
    };

    struct FarEvent
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Callback cb;
    };

    /** Min-heap order on (when, priority, seq). */
    struct FarAfter
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    static constexpr Tick _mask = nearWindowTicks - 1;
    static_assert((nearWindowTicks & _mask) == 0,
                  "near window must be a power of two");

    Bucket &bucketFor(Tick when) { return _buckets[when & _mask]; }
    void appendToBucket(Tick when, int priority, std::uint64_t seq,
                        Callback &&cb);
    void migrateFarIntoWindow();
    /**
     * Earliest tick >= @p from with a pending ring event, via the
     * occupancy bitmap (one lap max).
     * @pre a pending ring event exists in [from, from + window)
     */
    Tick nextOccupiedTick(Tick from) const;
    /**
     * Advance the cursor to the earliest pending event's bucket
     * (migrating far events as the window moves); false when idle or
     * when that event lies strictly after @p limit. The cursor is
     * only ever committed to a tick that is dispatched next, so
     * outside of dispatch _cursor == _now and schedule() window
     * arithmetic never sees a cursor ahead of time.
     */
    bool findNext(Tick limit);
    /** Pop and execute the earliest event of the cursor's bucket. */
    void dispatchOne();

    std::vector<Bucket> _buckets;
    /**
     * One bit per bucket: set while the bucket has pending events,
     * so gap traversal (sparse timelines, e.g. a blocked IOMMU
     * waiting out a 400-cycle walk) skips 64 empty ticks per word
     * instead of probing every bucket.
     */
    std::vector<std::uint64_t> _occupied;
    /**
     * Window start: all ring events lie in [_cursor, _cursor +
     * nearWindowTicks), all far events at or beyond the window end.
     * Never exceeds the earliest pending ring event's tick and never
     * regresses, so bucket scans resume where they left off.
     */
    Tick _cursor = 0;
    std::size_t _ringCount = 0;
    /** Far-term overflow heap (std::push_heap/pop_heap on FarAfter). */
    std::vector<FarEvent> _far;

    Tick _now = 0;
    std::size_t _pending = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _peakDepth = 0;
    std::uint64_t _sameTickShortcuts = 0;

    std::unique_ptr<SimProfiler> _prof;
};

} // namespace neummu

#endif // NEUMMU_SIM_EVENT_QUEUE_HH
