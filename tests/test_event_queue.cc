/**
 * @file
 * Unit tests for the discrete-event simulation kernel: basic
 * ordering, the run(limit) inclusive-boundary contract, calendar-
 * queue structural paths (bucket wrap, far-horizon overflow, far->
 * ring migration ordering, mid-dispatch priority preemption), seq
 * reservations, the event node pool (reuse, growth while a callback
 * runs, teardown), and a randomized cross-check against a reference
 * priority-queue model.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace neummu;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickRespectsInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; i++)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SameTickRespectsPriority)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, 1);
    eq.schedule(5, [&] { order.push_back(0); }, 0);
    eq.schedule(5, [&] { order.push_back(-1); }, -1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        fired++;
        if (fired < 5)
            eq.scheduleIn(10, chain);
    };
    eq.scheduleIn(10, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(7, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 107u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired++; });
    eq.schedule(20, [&] { fired++; });
    eq.schedule(30, [&] { fired++; });
    eq.run(20);
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 12; i++)
        eq.schedule(Tick(i), [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 12u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, [] {}), "scheduling into the past");
}

TEST(EventQueue, ZeroDelayEventRunsAtCurrentTick)
{
    EventQueue eq;
    Tick seen = maxTick;
    eq.schedule(42, [&] {
        eq.scheduleIn(0, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

// --- run(limit) boundary contract ----------------------------------

TEST(EventQueue, RunLimitIsInclusive)
{
    // The documented contract: an event scheduled exactly at the
    // limit executes; the first event strictly after it stays
    // pending, and now() never advances past the last executed event.
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(9, [&] { fired.push_back(9); });
    eq.schedule(10, [&] { fired.push_back(10); });
    eq.schedule(11, [&] { fired.push_back(11); });
    EXPECT_EQ(eq.run(10), 10u);
    EXPECT_EQ(fired, (std::vector<Tick>{9, 10}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextEventTick(), 11u);
    eq.run();
    EXPECT_EQ(fired.size(), 3u);
}

TEST(EventQueue, RunOnDrainedQueueLeavesTimeUntouched)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 5u);
    // Draining up to a later limit must not teleport time forward.
    EXPECT_EQ(eq.run(1000), 5u);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, ScheduleBetweenLimitAndPendingEventStaysOrdered)
{
    // After run(limit) stops short of a pending event, new events
    // scheduled between now() and that pending event must still run
    // first -- the cursor must not have silently advanced past them.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(150, [&] { order.push_back(3); });
    eq.run(100);
    EXPECT_EQ(eq.now(), 10u);
    eq.schedule(120, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 150u);
}

TEST(EventQueue, ScheduleAfterLimitedRunAcrossFarGapStaysOrdered)
{
    // Same contract when the pending event sits beyond the calendar
    // window (a cursor jump must not strand time forward either).
    const Tick window = EventQueue::nearWindowTicks;
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10 * window, [&] { order.push_back(3); });
    eq.run(100);
    eq.schedule(5 * window, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickEventAtLimitScheduledDuringDispatchRuns)
{
    // An event scheduled *at the limit, from an event at the limit*
    // still belongs to this run() call.
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        fired++;
        eq.scheduleIn(0, [&] { fired++; });
    });
    eq.run(10);
    EXPECT_EQ(fired, 2);
}

// --- calendar-queue structural paths -------------------------------

TEST(EventQueue, BucketWrapKeepsOrderAcrossWindowLaps)
{
    // Ticks congruent modulo the ring size share a bucket; several
    // window laps' worth of events must still run in time order.
    const Tick window = EventQueue::nearWindowTicks;
    EventQueue eq;
    std::vector<Tick> fired;
    const std::vector<Tick> ticks = {
        0,          3,           window - 1, window,
        window + 3, 2 * window,  2 * window + 3,
        5 * window, 5 * window + 1};
    // Schedule in a scrambled order to exercise both ring and far
    // insertion for the same buckets.
    for (const std::size_t i : {4u, 0u, 7u, 2u, 5u, 1u, 8u, 3u, 6u})
        eq.schedule(ticks[i], [&fired, &ticks, i] {
            fired.push_back(ticks[i]);
        });
    eq.run();
    std::vector<Tick> expect = ticks;
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(eq.now(), 5 * window + 1);
}

TEST(EventQueue, FarHorizonEventsSurviveTheOverflowHeap)
{
    // Events far beyond the window (demand-paging style gaps) park
    // in the far heap and fire in order after a cursor jump.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10'000'000, [&] { order.push_back(3); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(2'000'000, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 10'000'000u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

TEST(EventQueue, FarMigrationPreservesSameTickOrdering)
{
    // Two events for one far tick inserted via different routes (far
    // heap first, ring later once the window reaches the tick) must
    // still respect (priority, insertion-order).
    const Tick window = EventQueue::nearWindowTicks;
    const Tick target = 3 * window;
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(target, [&] { order.push_back(0); }); // far, seq 0
    eq.schedule(target - 1, [&] {
        // By now the window covers `target`: these go to the ring.
        eq.scheduleIn(1, [&] { order.push_back(1); });
        eq.schedule(target, [&] { order.push_back(-1); }, -1);
    });
    eq.run();
    // Priority -1 preempts both default-priority events; the far
    // insertion keeps its seq precedence over the later ring one.
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
}

TEST(EventQueue, MidDispatchLowerPriorityPreemptsPendingSameTick)
{
    // While tick T dispatches, scheduling (T, prio -5) must overtake
    // an already-pending (T, prio 0) event -- the reference heap
    // behavior the calendar's ordered bucket insert must reproduce.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] {
        order.push_back(1);
        eq.scheduleIn(0, [&] { order.push_back(3); }, -5);
    });
    eq.schedule(7, [&] { order.push_back(2); });
    eq.schedule(7, [&] { order.push_back(4); }, 1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 4}));
}

TEST(EventQueue, ReservedEventRunsWhereItsReservationWould)
{
    // Ring: the reserved event lands in a bucket that already holds
    // later seqs, and still runs first, as an event scheduled at
    // reservation time would have.
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t seq = eq.reserveSeq();
    EXPECT_EQ(eq.nextSeq(), seq + 1);
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(5, [&] {
        eq.schedule(10, [&] { order.push_back(2); });
        eq.scheduleReserved(10, seq, [&] { order.push_back(0); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.eventsExecuted(), 4u);
}

TEST(EventQueue, ReservedEventKeepsItsPlaceAcrossTheFarHeap)
{
    const Tick target = 3 * EventQueue::nearWindowTicks;
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t early = eq.reserveSeq();
    const std::uint64_t late = eq.reserveSeq();
    eq.schedule(target, [&] { order.push_back(2); }); // far
    // Reserved straight into the far heap, behind a newer far event.
    eq.scheduleReserved(target, early, [&] { order.push_back(0); });
    eq.schedule(target - 1, [&] {
        // The window now covers `target`: the far events migrated
        // into its bucket, and these append to the ring.
        eq.schedule(target, [&] { order.push_back(3); });
        eq.scheduleReserved(target, late, [&] { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, ReservedEventAtNowAheadOfDispatchRuns)
{
    // Reserved by the event being dispatched and scheduled for its
    // own tick: it is still ahead of dispatch, so it runs this tick,
    // before the tick's later seqs.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] {
        const std::uint64_t seq = eq.reserveSeq();
        eq.schedule(7, [&] { order.push_back(2); });
        eq.scheduleReserved(7, seq, [&] { order.push_back(1); });
        order.push_back(0);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueueDeath, ReservedEventBehindThisTicksDispatchPanics)
{
    EventQueue eq;
    const std::uint64_t seq = eq.reserveSeq();
    eq.schedule(10, [] {});
    eq.run();
    // The seq is older than the event that already ran at tick 10.
    EXPECT_DEATH(eq.scheduleReserved(10, seq, [] {}),
                 "reserved event behind this tick's dispatch");
    // Any later tick is still ahead of dispatch.
    eq.scheduleReserved(11, seq, [] {});
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueueDeath, SchedulingAnUnreservedSeqPanics)
{
    EventQueue eq;
    EXPECT_DEATH(eq.scheduleReserved(10, eq.nextSeq(), [] {}),
                 "seq was never reserved");
}

TEST(EventQueue, TracksPendingCountAndPeakDepth)
{
    EventQueue eq;
    for (Tick t = 1; t <= 10; t++)
        eq.schedule(t, [] {});
    EXPECT_EQ(eq.size(), 10u);
    EXPECT_EQ(eq.peakDepth(), 10u);
    EXPECT_EQ(eq.poolSize(), eq.peakDepth());
    eq.run(5);
    EXPECT_EQ(eq.size(), 5u);
    EXPECT_EQ(eq.peakDepth(), 10u); // high-water sticks
    // New events reuse the nodes the dispatched ones freed.
    for (Tick t = 11; t <= 13; t++)
        eq.schedule(t, [] {});
    EXPECT_EQ(eq.size(), 8u);
    EXPECT_EQ(eq.poolSize(), eq.peakDepth());
    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.peakDepth(), 10u);
    EXPECT_EQ(eq.poolSize(), eq.peakDepth());
}

// --- event node pool -----------------------------------------------

namespace {

/** Filler that pushes a capture past the callback's inline buffer. */
using Spill = std::array<std::uint64_t, 8>;

} // namespace

TEST(EventQueue, SpilledCallbackSurvivesPoolGrowthWhileItRuns)
{
    // The running callback's node is the first one its own schedule()
    // calls reuse, and the 2000 events it schedules grow the pool
    // under it; its heap-spilled capture must still be intact after.
    EventQueue eq;
    std::vector<int> order;
    Spill payload{};
    for (std::size_t i = 0; i < payload.size(); i++)
        payload[i] = 0x0101010101010101ull * (i + 1);
    Spill seen{};
    auto grow = [payload, &eq, &order, &seen] {
        for (int i = 0; i < 2000; i++)
            eq.schedule(5, [&order, i] { order.push_back(i); });
        seen = payload;
    };
    static_assert(!EventQueue::Callback::fitsInline<decltype(grow)>(),
                  "the capture must spill to the heap");
    eq.schedule(5, std::move(grow));
    eq.run();
    EXPECT_EQ(seen, payload);
    ASSERT_EQ(order.size(), 2000u);
    for (int i = 0; i < 2000; i++)
        ASSERT_EQ(order[std::size_t(i)], i);
    EXPECT_EQ(eq.peakDepth(), 2000u);
    EXPECT_EQ(eq.poolSize(), eq.peakDepth());
}

TEST(EventQueue, DestroyingTheQueueFreesPendingSpilledCallbacks)
{
    const auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        const Spill pad{};
        const auto make = [&token, &pad] {
            return [token, pad] { (void)pad; };
        };
        static_assert(
            !EventQueue::Callback::fitsInline<decltype(make())>(),
            "the capture must spill to the heap");
        for (Tick t = 10; t < 13; t++)
            eq.schedule(t, make()); // ring
        eq.schedule(10 * EventQueue::nearWindowTicks, make()); // far
        EXPECT_EQ(token.use_count(), 5);
        eq.run(10);
        EXPECT_EQ(token.use_count(), 4); // the dispatched one is gone
    }
    EXPECT_EQ(token.use_count(), 1);
}

// --- randomized cross-check against a reference model --------------

namespace {

/**
 * The pre-calendar reference kernel: a plain priority queue of
 * std::function events ordered by (when, priority, seq). Kept here as
 * the executable specification of dispatch order.
 */
class ReferenceQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return _now; }

    void
    schedule(Tick when, Callback cb, int priority = 0)
    {
        ASSERT_GE(when, _now);
        _events.push(Event{when, priority, _nextSeq++, std::move(cb)});
    }

    std::uint64_t reserveSeq() { return _nextSeq++; }

    void
    scheduleReserved(Tick when, std::uint64_t seq, Callback cb)
    {
        ASSERT_GE(when, _now);
        _events.push(Event{when, 0, seq, std::move(cb)});
    }

    void
    run()
    {
        while (!_events.empty()) {
            Event ev = std::move(const_cast<Event &>(_events.top()));
            _events.pop();
            _now = ev.when;
            ev.cb();
        }
    }

  private:
    struct Event
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Callback cb;
    };
    struct After
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Event, std::vector<Event>, After> _events;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
};

/** Shape of a randomized workload. */
struct WorkloadProfile
{
    /** Events scheduled in total, seeds included. */
    int budget;
    /** Each callback schedules 0..maxFollowUps follow-ups. */
    unsigned maxFollowUps;
    /**
     * Half the deltas are 0, so buckets stay crowded while far
     * migrations and reserved seqs land in them.
     */
    bool sameTickHeavy;
};

constexpr WorkloadProfile baseProfile{600, 2, false};
constexpr WorkloadProfile crowdedProfile{5000, 8, true};

/**
 * Drive @p q through a deterministic pseudo-random workload: seed
 * events whose callbacks keep scheduling follow-ups (same-tick, near,
 * and far deltas, random priorities) until a budget runs out.
 * Callbacks also reserve seqs for a later tick and fill them from
 * later callbacks, out of order, while that tick is still ahead;
 * some reservations go unused. Returns the (id, tick) execution
 * sequence.
 */
template <typename Queue>
std::vector<std::pair<int, Tick>>
runRandomWorkload(Queue &q, unsigned seed,
                  const WorkloadProfile &profile)
{
    std::mt19937_64 rng(seed);
    std::vector<std::pair<int, Tick>> order;
    int budget = profile.budget;
    int next_id = 0;

    // Deltas cross all structural paths: same tick, near ring,
    // window edge, and far heap.
    const auto rand_delta = [&rng, &profile]() -> Tick {
        static const Tick choices[] = {0,    1,    7,    100,
                                       1023, 1024, 1025, 5000};
        if (profile.sameTickHeavy && rng() % 2 == 0)
            return 0;
        return choices[rng() % 8];
    };
    const auto rand_prio = [&rng]() -> int {
        return int(rng() % 5) - 2;
    };

    struct Reservation
    {
        std::uint64_t seq;
        Tick when;
    };
    std::vector<Reservation> reserved;

    std::function<void(int)> body = [&](int id) {
        order.push_back({id, q.now()});
        // Fill a random reservation whose tick is still ahead; one
        // whose tick has come stays unused.
        if (!reserved.empty() && budget > 0) {
            const std::size_t pick = rng() % reserved.size();
            const Reservation r = reserved[pick];
            reserved.erase(reserved.begin() + std::ptrdiff_t(pick));
            if (r.when > q.now()) {
                budget--;
                const int child = next_id++;
                q.scheduleReserved(r.when, r.seq,
                                   [&body, child] { body(child); });
            }
        }
        if (rng() % 3 == 0)
            reserved.push_back(
                {q.reserveSeq(), q.now() + 1 + rand_delta()});
        const unsigned follow_ups =
            unsigned(rng() % (profile.maxFollowUps + 1));
        for (unsigned i = 0; i < follow_ups && budget > 0; i++) {
            budget--;
            const int child = next_id++;
            q.schedule(q.now() + rand_delta(),
                       [&body, child] { body(child); }, rand_prio());
        }
    };

    for (int i = 0; i < 40; i++) {
        budget--;
        const int id = next_id++;
        q.schedule(rand_delta(), [&body, id] { body(id); },
                   rand_prio());
    }
    q.run();
    return order;
}

/** Run one seed on both queues and compare the dispatch order. */
void
checkAgainstReference(unsigned seed, const WorkloadProfile &profile)
{
    ReferenceQueue ref;
    const auto expected = runRandomWorkload(ref, seed, profile);
    EventQueue eq;
    const auto actual = runRandomWorkload(eq, seed, profile);
    ASSERT_EQ(actual, expected) << "seed " << seed;
    ASSERT_GT(actual.size(), 40u) << "seed " << seed;
    // Freed nodes are reused first, so the pool only grew while
    // every node was pending.
    ASSERT_EQ(eq.poolSize(), eq.peakDepth()) << "seed " << seed;
}

} // namespace

TEST(EventQueue, RandomizedDispatchMatchesReferenceModel)
{
    for (unsigned seed = 1; seed <= 8; seed++)
        checkAgainstReference(seed, baseProfile);
}

TEST(EventQueue, CrowdedRandomizedDispatchMatchesReferenceModel)
{
    // Up to 8 follow-ups, half of them same-tick, over a 5000-event
    // budget: far migrations and reserved seqs land in buckets that
    // already hold newer events.
    for (unsigned seed = 101; seed <= 104; seed++)
        checkAgainstReference(seed, crowdedProfile);
}
