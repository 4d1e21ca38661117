/**
 * @file
 * Discrete-event simulation kernel. All cycle-level components in the
 * simulator (DMA engine, MMU, memory) schedule callbacks on a shared
 * EventQueue; one tick equals one NPU clock cycle (1 GHz, Table I).
 *
 * The queue is a bucketed calendar: a near-term ring of per-tick
 * buckets covering the next nearWindowTicks cycles, plus a far-term
 * binary heap for events beyond the window. Every pending event, ring
 * or far, is a node in one queue-owned pool; a bucket is a linked
 * list of node indices and the far heap orders small keys that point
 * at nodes. The node a dispatch frees is the one the next schedule()
 * reuses (a LIFO free list), so steady-state scheduling (walk
 * completions, burst launches, PRMB drains -- all within a few
 * hundred cycles) writes into cache-hot memory and never allocates:
 * the callback type is small-buffer optimized (sim/callback.hh) and
 * the pool only grows when every node is pending. Far events migrate
 * into the ring as the window advances; when the ring drains entirely
 * (e.g. a multi-thousand-cycle page-fault gap), the cursor jumps
 * straight to the next far event instead of scanning the gap.
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
 *
 * schedule() takes any callable and builds it straight in the pool
 * node the event will occupy; the callable is relocated only once,
 * out of its node when it is dispatched. The common path -- a free
 * node off the LIFO list, a link at an empty bucket or behind the
 * bucket's tail, and finding and dispatching the next event in run()
 * -- is inline; pool growth, out-of-order links (priority preemption,
 * far migration, a reserved seq behind newer same-tick events), the
 * far heap and the occupancy-bitmap scan are not.
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
     * Schedule @p f to run at absolute time @p when. @p f is any
     * callable (an rvalue Callback is moved in); it is built in the
     * event's pool node, after the node is allocated, so it must not
     * refer into the queue's pool.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&f, int priority = defaultPriority)
    {
        NEUMMU_ASSERT(when >= _now, "scheduling into the past");
        insert(when, priority, _nextSeq++, std::forward<F>(f));
    }

    /** Schedule @p f to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f, int priority = defaultPriority)
    {
        schedule(_now + delta, std::forward<F>(f), priority);
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

    /**
     * Seq the next schedule() call will draw. A caller that recorded
     * the seq of its own event can tell whether anything has been
     * scheduled since (see RetryRound).
     */
    std::uint64_t nextSeq() const { return _nextSeq; }

    /**
     * Draw the seq the next schedule() call would, without scheduling
     * anything. scheduleReserved() can later place one event at that
     * seq, so it runs exactly where an event scheduled now (at the
     * default priority) would have run. An unused reservation costs
     * nothing; it only advances nextSeq() as a schedule() would.
     */
    std::uint64_t reserveSeq() { return _nextSeq++; }

    /**
     * Schedule @p f at @p when, at the default priority, under the
     * seq @p seq drew from reserveSeq(). @p f is built in place as
     * for schedule().
     * @pre when >= now(); at now(), the event orders after the one
     *      being (or last) dispatched, so it is still ahead of the
     *      tick's dispatch.
     */
    template <typename F>
    void
    scheduleReserved(Tick when, std::uint64_t seq, F &&f)
    {
        NEUMMU_ASSERT(when >= _now, "scheduling into the past");
        NEUMMU_ASSERT(seq < _nextSeq, "seq was never reserved");
        NEUMMU_ASSERT(when > _now || defaultPriority > _lastPriority ||
                          (defaultPriority == _lastPriority &&
                           seq > _lastSeq),
                      "reserved event behind this tick's dispatch");
        insert(when, defaultPriority, seq, std::forward<F>(f));
    }

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
     * Event nodes ever created (tests/diagnostics). Freed nodes are
     * reused before the pool grows, so this equals peakDepth().
     */
    std::size_t poolSize() const { return _pool.size(); }

    /**
     * Enable host-side cycle attribution on this queue. The profiler
     * lives for the queue's lifetime; components reach it via
     * profiler() for NEUMMU_PROF_SCOPE.
     */
    void enableProfiling();

    /** The queue's profiler; null unless enableProfiling() ran. */
    SimProfiler *profiler() { return _prof.get(); }

  private:
    /** Pool index that names no node (end of a list). */
    static constexpr std::uint32_t nil =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * One pending event, or a free pool slot. @c next links the
     * node's bucket list in (priority, seq) order, or the free list.
     */
    struct Node
    {
        std::uint32_t next;
        int priority;
        std::uint64_t seq;
        Callback cb;
    };

    /**
     * One tick's events: a singly linked list of pool nodes, head
     * dispatched first. Because the ring covers exactly
     * nearWindowTicks ticks and events are never scheduled into the
     * past, all events in one bucket share one tick.
     */
    struct Bucket
    {
        std::uint32_t head = nil;
        /** Last node of the list (valid when non-empty). */
        std::uint32_t tail = nil;
        /** Tick the pending events belong to (valid when non-empty). */
        Tick when = 0;

        bool hasPending() const { return head != nil; }
    };

    /** A far-heap entry; the callback stays in its pool node. */
    struct FarKey
    {
        Tick when;
        std::uint64_t seq;
        int priority;
        std::uint32_t node;
    };

    /** Min-heap order on (when, priority, seq). */
    struct FarAfter
    {
        bool
        operator()(const FarKey &a, const FarKey &b) const
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

    template <typename F>
    void
    insert(Tick when, int priority, std::uint64_t seq, F &&f)
    {
        const std::uint32_t n = allocNode(priority, seq);
        // Built only now: allocNode() may have grown (and so moved)
        // the pool, which is why @p f must not refer into it.
        _pool[n].cb.emplace(std::forward<F>(f));
        if (when - _cursor < nearWindowTicks)
            linkIntoBucket(when, n);
        else
            pushFar(when, priority, seq, n);
        _pending++;
        if (_pending > _peakDepth)
            _peakDepth = _pending;
    }

    /**
     * Take a node off the free list, or grow the pool by one; the
     * node's callback is empty.
     */
    std::uint32_t
    allocNode(int priority, std::uint64_t seq)
    {
        const std::uint32_t n = _freeHead;
        if (n == nil)
            return growPool(priority, seq);
        Node &node = _pool[n];
        _freeHead = node.next;
        node.priority = priority;
        node.seq = seq;
        return n;
    }

    std::uint32_t growPool(int priority, std::uint64_t seq);

    /**
     * Link node @p n into @p when's bucket at its (priority, seq)
     * place. An empty bucket and the common in-order arrival (a tail
     * link) are handled here; anything that orders before the tail
     * goes to linkOutOfOrder().
     */
    void
    linkIntoBucket(Tick when, std::uint32_t n)
    {
        Bucket &b = bucketFor(when);
        Node &node = _pool[n];
        node.next = nil;
        _ringCount++;
        if (!b.hasPending()) {
            b.head = b.tail = n;
            b.when = when;
            const std::size_t idx = std::size_t(when & _mask);
            _occupied[idx >> 6] |= std::uint64_t(1) << (idx & 63);
            return;
        }
        NEUMMU_ASSERT(b.when == when, "calendar bucket tick clash");
        // Seqs rise monotonically with schedule() calls, so the
        // common arrival orders after the whole list.
        if (!ordersBefore(node, _pool[b.tail])) {
            _pool[b.tail].next = n;
            b.tail = n;
            return;
        }
        linkOutOfOrder(b, n);
    }

    /** (priority, seq) order of two nodes of one bucket. */
    static bool
    ordersBefore(const Node &a, const Node &b)
    {
        return a.priority < b.priority ||
               (a.priority == b.priority && a.seq < b.seq);
    }

    /**
     * Link node @p n, which orders before @p b's tail, into its
     * place: a priority preemption, a far migration or a reserved
     * seq behind newer same-tick events.
     */
    void linkOutOfOrder(Bucket &b, std::uint32_t n);
    /** Queue node @p n beyond the window on the far heap. */
    void pushFar(Tick when, int priority, std::uint64_t seq,
                 std::uint32_t n);
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
     * arithmetic never sees a cursor ahead of time. Defined inline
     * in event_queue.cc, for run() and step().
     */
    bool findNext(Tick limit);
    /**
     * Pop and execute the earliest event of the cursor's bucket
     * (defined inline in event_queue.cc, for run() and step()).
     */
    void dispatchOne();

    /** Every event node, pending or free. */
    std::vector<Node> _pool;
    /** Head of the LIFO free list threaded through Node::next. */
    std::uint32_t _freeHead = nil;
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
    std::vector<FarKey> _far;

    Tick _now = 0;
    std::size_t _pending = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _peakDepth = 0;
    std::uint64_t _sameTickShortcuts = 0;
    /** (priority, seq) of the last dispatched event, which bounds
     *  where a reserved event may still land at now(). */
    int _lastPriority = std::numeric_limits<int>::min();
    std::uint64_t _lastSeq = 0;

    std::unique_ptr<SimProfiler> _prof;
};

} // namespace neummu

#endif // NEUMMU_SIM_EVENT_QUEUE_HH
