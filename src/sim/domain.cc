#include "sim/domain.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neummu {

DomainRuntime::DomainRuntime(unsigned num_queues, unsigned num_units,
                             Tick hop_ticks)
    : _numUnits(num_units), _hop(hop_ticks)
{
    NEUMMU_ASSERT(num_queues >= 1, "domain runtime needs a hub queue");
    NEUMMU_ASSERT(num_units >= 1, "domain runtime needs a unit");
    NEUMMU_ASSERT(hop_ticks >= 1,
                  "lookahead (hopTicks) must be at least one tick");

    _queues.reserve(num_queues);
    for (unsigned q = 0; q < num_queues; q++)
        _queues.push_back(std::make_unique<EventQueue>());

    _slots.resize(std::size_t(num_queues) * num_units);
    _sendersOfQueue.resize(num_queues);
}

void
DomainRuntime::addChannel(unsigned to_queue, unsigned sender_unit)
{
    NEUMMU_ASSERT(!_running,
                  "channels must be registered before run()");
    NEUMMU_ASSERT(to_queue < _queues.size(),
                  "channel to unknown queue");
    NEUMMU_ASSERT(sender_unit < _numUnits,
                  "channel from unknown unit");
    Slot &s = slot(to_queue, sender_unit);
    if (s.open)
        return;
    s.open = true;
    std::vector<unsigned> &senders = _sendersOfQueue[to_queue];
    senders.insert(std::lower_bound(senders.begin(), senders.end(),
                                    sender_unit),
                   sender_unit);
    _liveSlots.push_back(std::size_t(to_queue) * _numUnits +
                         sender_unit);
}

EventQueue &
DomainRuntime::queue(unsigned q)
{
    NEUMMU_ASSERT(q < _queues.size(), "queue index out of range");
    return *_queues[q];
}

void
DomainRuntime::post(unsigned to_queue, unsigned sender_unit,
                    Tick deliver, EventCallback cb)
{
    NEUMMU_ASSERT(to_queue < _queues.size(),
                  "message to unknown queue");
    NEUMMU_ASSERT(sender_unit < _numUnits,
                  "message from unknown unit");
    Slot &s = slot(to_queue, sender_unit);
    NEUMMU_ASSERT(s.open, "post on unregistered channel -- call "
                          "addChannel at wiring time");
    const unsigned b = unsigned(_round & 1);
    s.minDeliver[b] = std::min(s.minDeliver[b], deliver);
    s.posted++;
    s.msgs[b].push_back(Message{deliver, std::move(cb)});
}

void
DomainRuntime::inject(unsigned q)
{
    // Drain the buffers filled in the PREVIOUS round; messages posted
    // this round sit in the current-parity buffers until the next.
    EventQueue &eq = *_queues[q];
    const unsigned b = unsigned((_round - 1) & 1);
    for (const unsigned u : _sendersOfQueue[q]) {
        Slot &s = slot(q, u);
        if (s.msgs[b].empty())
            continue;
        for (Message &m : s.msgs[b]) {
            // The lookahead contract: a message can never be due in
            // the window its sender posted it from, so it always
            // arrives here -- at a round start -- before its tick.
            NEUMMU_ASSERT(m.deliver >= eq.now(),
                          "cross-domain message violated lookahead");
            eq.schedule(m.deliver, std::move(m.cb));
        }
        s.msgs[b].clear();
        s.minDeliver[b] = maxTick;
    }
}

bool
DomainRuntime::computeNextWindow()
{
    Tick next = maxTick;
    for (const auto &q : _queues)
        next = std::min(next, q->nextEventTick());
    for (const std::size_t i : _liveSlots) {
        const Slot &s = _slots[i];
        next = std::min({next, s.minDeliver[0], s.minDeliver[1]});
    }

    if (next == maxTick || next > _limit)
        return false;
    // Hop-aligned window grid: windows are disjoint and every tick
    // belongs to exactly one executed round, which pins the injection
    // round of every message.
    const Tick start = next - next % _hop;
    Tick end = start + _hop - 1;
    if (end < start || end > _limit)
        end = _limit;
    _windowEnd = end;
    return true;
}

Tick
DomainRuntime::run(Tick limit)
{
    NEUMMU_ASSERT(!_running, "DomainRuntime::run is not reentrant");
    _running = true;
    _limit = limit;
    while (computeNextWindow()) {
        _round++;
        for (unsigned q = 0; q < _queues.size(); q++) {
            inject(q);
            _queues[q]->run(_windowEnd);
        }
    }
    _running = false;
    return now();
}

Tick
DomainRuntime::now() const
{
    Tick t = 0;
    for (const auto &q : _queues)
        t = std::max(t, q->now());
    return t;
}

std::uint64_t
DomainRuntime::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &q : _queues)
        n += q->eventsExecuted();
    return n;
}

std::uint64_t
DomainRuntime::peakDepth() const
{
    std::uint64_t d = 0;
    for (const auto &q : _queues)
        d = std::max(d, q->peakDepth());
    return d;
}

std::uint64_t
DomainRuntime::messagesPosted() const
{
    std::uint64_t n = 0;
    for (const std::size_t i : _liveSlots)
        n += _slots[i].posted;
    return n;
}

} // namespace neummu
