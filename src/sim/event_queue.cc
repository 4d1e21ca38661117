#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

namespace neummu {

EventQueue::EventQueue()
    : _buckets(nearWindowTicks), _occupied(nearWindowTicks / 64, 0)
{
}

void
EventQueue::enableProfiling()
{
    if (!_prof)
        _prof = std::make_unique<SimProfiler>();
}

void
EventQueue::appendToBucket(Tick when, int priority, std::uint64_t seq,
                           Callback &&cb)
{
    Bucket &b = bucketFor(when);
    if (!b.hasPending()) {
        b.when = when;
        const std::size_t idx = std::size_t(when & _mask);
        _occupied[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    } else {
        NEUMMU_ASSERT(b.when == when, "calendar bucket tick clash");
        // The pending range stays (priority, seq)-sorted as long as
        // appends arrive in that order -- the common case, since seqs
        // rise monotonically with schedule() calls. A lower-ordered
        // arrival (a priority preemption, or a far-heap migration
        // landing next to newer ring events) forces a deferred sort.
        const Event &last = b.events.back();
        if (priority < last.priority ||
            (priority == last.priority && seq < last.seq)) {
            b.needsSort = true;
        }
    }
    b.events.push_back(Event{priority, seq, std::move(cb)});
    _ringCount++;
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    NEUMMU_ASSERT(when >= _now, "scheduling into the past");
    insert(when, priority, _nextSeq++, std::move(cb));
}

void
EventQueue::scheduleReserved(Tick when, std::uint64_t seq, Callback cb)
{
    NEUMMU_ASSERT(when >= _now, "scheduling into the past");
    NEUMMU_ASSERT(seq < _nextSeq, "seq was never reserved");
    NEUMMU_ASSERT(when > _now || defaultPriority > _lastPriority ||
                      (defaultPriority == _lastPriority &&
                       seq > _lastSeq),
                  "reserved event behind this tick's dispatch");
    insert(when, defaultPriority, seq, std::move(cb));
}

void
EventQueue::insert(Tick when, int priority, std::uint64_t seq,
                   Callback &&cb)
{
    if (when - _cursor < nearWindowTicks) {
        appendToBucket(when, priority, seq, std::move(cb));
    } else {
        _far.push_back(FarEvent{when, priority, seq, std::move(cb)});
        std::push_heap(_far.begin(), _far.end(), FarAfter{});
    }
    _pending++;
    if (_pending > _peakDepth)
        _peakDepth = _pending;
}

void
EventQueue::migrateFarIntoWindow()
{
    while (!_far.empty() &&
           _far.front().when - _cursor < nearWindowTicks) {
        std::pop_heap(_far.begin(), _far.end(), FarAfter{});
        FarEvent fe = std::move(_far.back());
        _far.pop_back();
        appendToBucket(fe.when, fe.priority, fe.seq,
                       std::move(fe.cb));
    }
}

bool
EventQueue::findNext(Tick limit)
{
    if (_pending == 0)
        return false;
    if (_ringCount == 0) {
        // Nothing in the window: jump the gap to the next far event
        // instead of scanning empty buckets tick by tick. The jump
        // target is dispatched immediately below, so the cursor
        // never strands past an undispatched limit.
        NEUMMU_ASSERT(!_far.empty(), "pending-count bookkeeping lost");
        if (_far.front().when > limit)
            return false;
        _cursor = _far.front().when;
        migrateFarIntoWindow();
    }
    // Far events lie at or beyond the window end, so the nearest
    // pending event is always a ring event; advance the cursor to
    // it, then pull far events the window now covers.
    const Tick next = nextOccupiedTick(_cursor);
    if (next > limit)
        return false;
    _cursor = next;
    migrateFarIntoWindow();
    return true;
}

Tick
EventQueue::nextOccupiedTick(Tick from) const
{
    const std::size_t nwords = _occupied.size();
    const std::size_t start = std::size_t(from & _mask);
    std::size_t word = start >> 6;
    // Partial first word: bits at or after the start position.
    std::uint64_t bits = _occupied[word] >> (start & 63);
    if (bits != 0)
        return from + Tick(__builtin_ctzll(bits));
    const Tick to_next_word = Tick(64 - (start & 63));
    for (std::size_t i = 0; i < nwords; i++) {
        word = (word + 1) & (nwords - 1);
        bits = _occupied[word];
        if (bits != 0) {
            return from + to_next_word + Tick(i) * 64 +
                   Tick(__builtin_ctzll(bits));
        }
    }
    NEUMMU_PANIC("ring-count bookkeeping lost");
}

void
EventQueue::dispatchOne()
{
    Bucket &b = _buckets[_cursor & _mask];
    NEUMMU_ASSERT(b.when == _cursor && b.when >= _now,
                  "event queue went backwards");
    if (b.needsSort) {
        std::sort(b.events.begin() +
                      std::ptrdiff_t(b.head),
                  b.events.end(),
                  [](const Event &a, const Event &e) {
                      if (a.priority != e.priority)
                          return a.priority < e.priority;
                      return a.seq < e.seq;
                  });
        b.needsSort = false;
    }

    Event ev = std::move(b.events[b.head]);
    b.head++;
    if (b.head == b.events.size()) {
        // Fully consumed: recycle the storage (capacity retained)
        // before running the callback, which may schedule fresh
        // events into this same bucket.
        b.events.clear();
        b.head = 0;
        b.needsSort = false;
        const std::size_t idx = std::size_t(_cursor & _mask);
        _occupied[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }
    _ringCount--;
    _pending--;

    _now = _cursor;
    _lastPriority = ev.priority;
    _lastSeq = ev.seq;
    _executed++;
    ev.cb();
}

bool
EventQueue::step()
{
    if (!findNext(maxTick))
        return false;
    dispatchOne();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    NEUMMU_PROF_SCOPE(_prof.get(), ProfSubsystem::Kernel);
    while (findNext(limit)) {
        dispatchOne();
        // Anything the dispatched events scheduled for the same tick
        // landed in the cursor's bucket and is globally next (far
        // events sit at or beyond the window end), so drain it
        // without rescanning the calendar.
        while (_buckets[_cursor & _mask].hasPending()) {
            _sameTickShortcuts++;
            dispatchOne();
        }
    }
    return _now;
}

Tick
EventQueue::nextEventTick() const
{
    if (_pending == 0)
        return maxTick;
    // Far events always lie at or beyond the window end, so any
    // pending ring event wins; scan resumes from the cursor.
    if (_ringCount == 0)
        return _far.front().when;
    return nextOccupiedTick(_cursor);
}

} // namespace neummu
