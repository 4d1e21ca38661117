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

std::uint32_t
EventQueue::allocNode(int priority, std::uint64_t seq, Callback &&cb)
{
    std::uint32_t n = _freeHead;
    if (n != nil) {
        Node &node = _pool[n];
        _freeHead = node.next;
        node.priority = priority;
        node.seq = seq;
        node.cb = std::move(cb);
    } else {
        NEUMMU_ASSERT(_pool.size() < nil, "event pool exhausted");
        n = std::uint32_t(_pool.size());
        _pool.push_back(Node{nil, priority, seq, std::move(cb)});
    }
    return n;
}

void
EventQueue::linkIntoBucket(Tick when, std::uint32_t n)
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
    const auto before = [](const Node &a, const Node &e) {
        return a.priority < e.priority ||
               (a.priority == e.priority && a.seq < e.seq);
    };
    // Seqs rise monotonically with schedule() calls, so the common
    // arrival orders after the whole list. A lower-ordered one (a
    // priority preemption, a far migration or a reserved seq behind
    // newer same-tick events) is linked into its place now.
    if (!before(node, _pool[b.tail])) {
        _pool[b.tail].next = n;
        b.tail = n;
        return;
    }
    if (before(node, _pool[b.head])) {
        node.next = b.head;
        b.head = n;
        return;
    }
    std::uint32_t prev = b.head;
    while (!before(node, _pool[_pool[prev].next]))
        prev = _pool[prev].next;
    node.next = _pool[prev].next;
    _pool[prev].next = n;
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
    const std::uint32_t n = allocNode(priority, seq, std::move(cb));
    if (when - _cursor < nearWindowTicks) {
        linkIntoBucket(when, n);
    } else {
        _far.push_back(FarKey{when, seq, priority, n});
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
        const FarKey key = _far.back();
        _far.pop_back();
        linkIntoBucket(key.when, key.node);
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
    const std::uint32_t n = b.head;
    Node &node = _pool[n];
    b.head = node.next;
    if (!b.hasPending()) {
        const std::size_t idx = std::size_t(_cursor & _mask);
        _occupied[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }
    _lastPriority = node.priority;
    _lastSeq = node.seq;
    // The callback leaves its node before the node is recycled: what
    // it schedules may reuse that node, or grow (and so move) the
    // whole pool, while it runs.
    Callback cb = std::move(node.cb);
    node.next = _freeHead;
    _freeHead = n;
    _ringCount--;
    _pending--;

    _now = _cursor;
    _executed++;
    cb();
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
