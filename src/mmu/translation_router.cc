#include "mmu/translation_router.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "sim/event_queue.hh"
#include "sim/retry_round.hh"

namespace neummu {

/**
 * One client-facing port. Tags request ids with the client index in
 * the top byte; the router strips the tag on the way back. The
 * client's hot state lives in the router's per-client arrays.
 */
class TranslationRouter::Port final : public TranslationEngine
{
  public:
    Port(TranslationRouter &router, unsigned client,
         const std::string &name)
        : _router(router), _client(client), _stats(name)
    {
    }

    bool
    translate(Addr va, std::uint64_t id) override
    {
        NEUMMU_ASSERT((id >> clientShift) == 0,
                      "request id collides with the client tag");
        return _router.tryTranslate(_client, va, id);
    }

    bool admits(Addr va) override { return _router.probe(*this, va); }

    void declareWakeRetry() override { _router.watchWakeRetries(*this); }

    void
    declareDeferredRetry(DeferredRetryClient &client,
                         RetryRound &round) override
    {
        NEUMMU_ASSERT(!_router._eq || _router._eq == &round.eventQueue(),
                      "retry round belongs to another event queue");
        _deferred = &client;
        _router.deferRetries(*this, round);
    }

    void
    setResponseCallback(ResponseCallback cb) override
    {
        _respond = std::move(cb);
    }

    void
    setWakeCallback(WakeCallback cb) override
    {
        _wake = std::move(cb);
    }

    void
    invalidate(Addr va) override
    {
        // Shootdowns are coherence traffic, not per-client capacity:
        // forward straight to the shared engine so one tenant's
        // unmap/migration invalidates the state every client shares.
        _router._engine.invalidate(va);
    }

    const MmuCounts &counts() const override { return _counts; }

  private:
    friend class TranslationRouter;

    TranslationRouter &_router;
    unsigned _client;
    /** The deferred-retry client, if one declared itself. */
    DeferredRetryClient *_deferred = nullptr;
    ResponseCallback _respond;
    WakeCallback _wake;
    MmuCounts _counts;
    std::uint64_t _maxInflight = 0;
    std::uint64_t _capRejections = 0;
    stats::Group _stats;
};

/**
 * A RetryRound member the router owns: deferred-retry ports that one
 * wake put in the same round, with the tick of that wake. Their order
 * in the round is their wake order, by their keys at that wake.
 */
class TranslationRouter::Round final : public RetryMember
{
  public:
    explicit Round(TranslationRouter &router) : _router(router) {}

    ClientSet members;
    Tick woken = 0;

  private:
    void retry() override { _router.runRound(*this); }

    TranslationRouter &_router;
};

TranslationRouter::TranslationRouter(TranslationEngine &engine,
                                     unsigned num_clients,
                                     RouterPolicy policy,
                                     unsigned walker_budget,
                                     std::string name, EventQueue *eq)
    : _engine(engine), _policy(policy), _name(std::move(name)), _eq(eq)
{
    NEUMMU_ASSERT(num_clients > 0, "router needs at least one client");
    NEUMMU_ASSERT(num_clients < 256, "client tag is one byte");
    _perClientCap =
        walker_budget >= num_clients ? walker_budget / num_clients : 1;
    for (unsigned c = 0; c < num_clients; c++) {
        _ports.push_back(std::make_unique<Port>(
            *this, c, _name + ".client" + std::to_string(c)));
    }
    _inflight.assign(num_clients, 0);
    _refusedVa.assign(num_clients, invalidAddr);
    _frozenKey.assign(num_clients, 0);
    _parkedRounds.assign(num_clients, 0);
    _lastParked.assign(num_clients, 0);

    _engine.setResponseCallback(
        [this](const TranslationResponse &resp) { onResponse(resp); });
    _engine.setWakeCallback([this] { onWake(); });
}

TranslationRouter::~TranslationRouter() = default;

TranslationEngine &
TranslationRouter::port(unsigned client)
{
    NEUMMU_ASSERT(client < _ports.size(), "client index out of range");
    return *_ports[client];
}

std::uint64_t
TranslationRouter::inflight(unsigned client) const
{
    return _inflight[client];
}

std::uint64_t
TranslationRouter::capRejections(unsigned client) const
{
    return _ports[client]->_capRejections;
}

std::uint64_t
TranslationRouter::maxInflight(unsigned client) const
{
    return _ports[client]->_maxInflight;
}

const MmuCounts &
TranslationRouter::clientCounts(unsigned client) const
{
    return _ports[client]->_counts;
}

stats::Group &
TranslationRouter::clientStats(unsigned client)
{
    return _ports[client]->_stats;
}

void
TranslationRouter::refreshStats()
{
    for (const auto &port : _ports) {
        const auto set = [&port](const char *stat, std::uint64_t v) {
            port->_stats.scalar(stat).set(double(v));
        };
        set("requests", port->_counts.requests);
        set("responses", port->_counts.responses);
        set("blockedIssues", port->_counts.blockedIssues);
        set("capRejections", port->_capRejections);
    }
}

inline std::uint64_t
TranslationRouter::wakeKey(unsigned client) const
{
    // ~inflight << 8 falls as the in-flight count rises (it stays far
    // below 2^56), and the low byte breaks ties by client index.
    return (~_inflight[client] << 8) | client;
}

inline std::uint64_t
TranslationRouter::roundKey(unsigned client) const
{
    return _frozen.test(client) ? _frozenKey[client] : wakeKey(client);
}

inline void
TranslationRouter::hold(unsigned client)
{
    _held.set(client);
    _refusedPages[bucketOf(_refusedVa[client] >> _filterShift)]++;
}

inline void
TranslationRouter::release(unsigned client)
{
    if (!_held.test(client))
        return;
    _held.reset(client);
    _refusedPages[bucketOf(_refusedVa[client] >> _filterShift)]--;
}

TranslationRouter::PageCounts
TranslationRouter::countHeld() const
{
    PageCounts counts{};
    _held.forEach([&](unsigned c) {
        counts[bucketOf(_refusedVa[c] >> _filterShift)]++;
    });
    return counts;
}

void
TranslationRouter::refilter(unsigned page_shift)
{
    _filterShift = page_shift;
    _refusedPages = countHeld();
}

inline void
TranslationRouter::refuse(Port &port, Addr va, bool by_cap)
{
    const unsigned c = port._client;
    NEUMMU_ASSERT(!_pending.test(c), "a port in a pending round refused");
    release(c);
    _refusedVa[c] = va;
    hold(c);
    _reported.reset(c);
    _capRefused.assign(c, by_cap);
    if (port._deferred)
        _recording.assign(c, port._deferred->recordsAttempts());
    _waiting.set(c);
}

bool
TranslationRouter::tryTranslate(unsigned client, Addr va,
                                std::uint64_t id)
{
    // No profiler scope here: this runs on every attempt of every
    // client, and a scope guard on it measurably slows the unprofiled
    // run. Hub traffic arrives through the bridges' Router scopes;
    // DMA attempts stay in their dmaIssue scope.
    Port &port = *_ports[client];
    port._counts.requests++;
    std::uint64_t &inflight = _inflight[client];
    if (_policy == RouterPolicy::Partitioned && inflight >= _perClientCap) {
        port._capRejections++;
        port._counts.blockedIssues++;
        _capBlocked.set(client);
        refuse(port, va, true);
        return false;
    }
    // Out of the filter first: the walk the engine may start reports
    // the client's own page.
    release(client);
    const std::uint64_t tagged =
        (std::uint64_t(client) << clientShift) | id;
    if (!_engine.translate(va, tagged)) {
        port._counts.blockedIssues++;
        refuse(port, va, false);
        return false;
    }
    inflight++;
    port._maxInflight = std::max(port._maxInflight, inflight);
    return true;
}

bool
TranslationRouter::probe(Port &port, Addr va)
{
    // A capped port must go through translate(): the cap rejection's
    // bookkeeping arms its below-cap wake.
    if (_policy == RouterPolicy::Partitioned &&
        _inflight[port._client] >= _perClientCap)
        return true;
    if (_engine.admits(va))
        return true;
    refuse(port, va, false);
    return false;
}

void
TranslationRouter::watchAdmits()
{
    // Idempotent: every port shares the one watch.
    _engine.setAdmitWatch([this](Addr vpn, unsigned page_shift) {
        onAdmitPage(vpn, page_shift);
    });
}

void
TranslationRouter::watchWakeRetries(Port &port)
{
    _retriesInWake.set(port._client);
    watchAdmits();
}

void
TranslationRouter::deferRetries(Port &port, RetryRound &round)
{
    NEUMMU_ASSERT(!_retry || _retry == &round,
                  "a router's deferred ports share one retry round");
    _retry = &round;
    _deferredPorts.set(port._client);
    watchAdmits();
}

void
TranslationRouter::onAdmitPage(Addr vpn, unsigned page_shift)
{
    // Only a blocked client can be refused again: one that waits, is
    // parked or is in a pending round. Each is held in the filter, so
    // an empty bucket means none was refused on the page. Marking one
    // a wake is about to call, or a round is about to visit, is
    // harmless.
    ++_admitReports;
    if (page_shift != _filterShift)
        refilter(page_shift);
    if (_refusedPages[bucketOf(vpn)] == 0)
        return;
    ++_admitScans;
    (_waiting | _pending).forEach([&](unsigned c) {
        if ((_refusedVa[c] >> page_shift) == vpn)
            _reported.set(c);
    });
}

void
TranslationRouter::onResponse(const TranslationResponse &resp)
{
    const unsigned client = unsigned(resp.id >> clientShift);
    NEUMMU_ASSERT(client < _ports.size(), "response for unknown client");
    Port &port = *_ports[client];
    NEUMMU_ASSERT(_inflight[client] > 0, "response underflow");
    // A pending round orders its members by their keys at the wake:
    // keep this member's before its count first moves.
    if (_pending.test(client) && !_frozen.test(client)) {
        _frozenKey[client] = wakeKey(client);
        _frozen.set(client);
    }
    _inflight[client]--;
    port._counts.responses++;

    TranslationResponse untagged = resp;
    untagged.id = resp.id & ((std::uint64_t(1) << clientShift) - 1);
    NEUMMU_ASSERT(port._respond, "client has no response callback");
    port._respond(untagged);

    // A client the router itself capped is not woken by the engine
    // (the engine never saw its rejected request): wake it as soon as
    // its own completions bring it back under the cap.
    if (_capBlocked.test(client) && _inflight[client] < _perClientCap) {
        _capBlocked.reset(client);
        wake(port);
    }
}

void
TranslationRouter::wake(Port &port)
{
    // Out of the set before the call: a retry the wake makes
    // synchronously (a hub bridge replaying its queue) may be
    // rejected again and put it back.
    const unsigned c = port._client;
    const bool waiting = _waiting.test(c);
    _waiting.reset(c);
    if (port._deferred) {
        // A deferred port out of the set was woken since: its retry
        // is already in a round.
        if (waiting) {
            ClientSet one;
            one.set(c);
            joinRound(one);
        }
    } else if (port._wake) {
        port._wake();
    }
}

void
TranslationRouter::joinRound(const ClientSet &members)
{
    if (members.none())
        return;
    NEUMMU_ASSERT(_retry, "deferred port without a retry round");
    _waiting -= members;
    _pending |= members;
    Round *round;
    if (_idleRounds.empty()) {
        _rounds.push_back(std::make_unique<Round>(*this));
        round = _rounds.back().get();
    } else {
        round = _idleRounds.back();
        _idleRounds.pop_back();
    }
    round->members = members;
    round->woken = _retry->eventQueue().now();
    _retry->join(*round);
}

void
TranslationRouter::runRound(Round &round)
{
    NEUMMU_PROF_SCOPE(_eq ? _eq->profiler() : nullptr,
                      ProfSubsystem::Router);
    const ClientSet members = round.members;
    ClientSet left = members;
    const Tick woken = round.woken;
    _idleRounds.push_back(&round);

    // Visit the members in wake order, by their keys at the wake
    // (roundKey()). With no refusal proven (a walker is free, or the
    // engine keeps no watch) any member may be admitted. Once
    // refusals hold, only a member whose page was reported since its
    // refusal, whose refusal was the cap's, or that records every
    // attempt may get anything but a refusal; a visit can start a
    // walk on a waiting member's page, so the set is read anew before
    // each pick. Usually the first visit takes
    // the walker the wake freed and proves the rest refused, so each
    // pick scans for the first key rather than sorting them all.
    bool proven = false;
    for (;;) {
        const bool hold = _engine.refusalsHold();
        NEUMMU_ASSERT(hold || !proven,
                      "a round's visit freed engine capacity");
        proven = hold;
        const ClientSet next =
            hold ? left & (_reported | _capRefused | _recording) : left;
        if (next.none())
            break;
        if (!(next & _frozen).none())
            ++_frozenKeyReads;
        const unsigned c = firstInWakeOrder(
            next, [this](unsigned m) { return roundKey(m); });
        left.reset(c);
        visit(c, woken);
    }
    if (!left.none()) {
        // Every other member's probe would be refused again: park it
        // as that refusal would leave it, without the call.
        left.forEach([&](unsigned c) {
            _parkedRounds[c]++;
            _lastParked[c] = woken;
        });
        _parkedRefusals += left.count();
        _pending -= left;
        _waiting |= left;
    }
    _frozen -= members;
}

void
TranslationRouter::visit(unsigned client, Tick woken)
{
    ++_roundVisits;
    _pending.reset(client);
    settle(client);
    Port &port = *_ports[client];
    // Only the port retries for its client, so from the wake to here
    // the client stays blocked with no retry of its own.
    NEUMMU_ASSERT(port._deferred->awaitingWake(),
                  "deferred port's client is not blocked on a wake");
    // A refusal puts the port straight back in the waiting set
    // (probe()) and leaves its client as a rejected retry would.
    if (probe(port, _refusedVa[client]))
        port._deferred->retryAdmitted(woken);
    else
        port._deferred->retriesRefused(1, woken);
}

void
TranslationRouter::settle(unsigned client)
{
    const std::uint64_t rounds = _parkedRounds[client];
    if (rounds == 0)
        return;
    _parkedRounds[client] = 0;
    DeferredRetryClient &deferred = *_ports[client]->_deferred;
    NEUMMU_ASSERT(deferred.awaitingWake(),
                  "parked port's client is not blocked on a wake");
    deferred.retriesRefused(rounds, _lastParked[client]);
}

void
TranslationRouter::chargePendingWaits()
{
    std::vector<Tick> woken(_ports.size(), 0);
    for (const auto &round : _rounds) {
        if (round->inRetryRound()) {
            round->members.forEach(
                [&](unsigned c) { woken[c] = round->woken; });
        }
    }
    _deferredPorts.forEach([&](unsigned c) {
        settle(c);
        if (_pending.test(c))
            _ports[c]->_deferred->chargeWait(woken[c]);
    });
    checkWaiters();
}

void
TranslationRouter::checkWaiters() const
{
    ClientSet in_rounds;
    for (const auto &round : _rounds) {
        if (!round->inRetryRound())
            continue;
        NEUMMU_ASSERT((in_rounds & round->members).none(),
                      "a port is in two pending rounds");
        in_rounds |= round->members;
    }
    NEUMMU_ASSERT(in_rounds == _pending,
                  "pending set disagrees with the pending rounds");
    NEUMMU_ASSERT((_waiting & _pending).none(),
                  "a port both waits and is in a pending round");
    NEUMMU_ASSERT(((_waiting | _pending) - _held).none(),
                  "a blocked port is not held in the refused-page filter");
    NEUMMU_ASSERT(countHeld() == _refusedPages,
                  "refused-page filter counts disagree with its ports");
    NEUMMU_ASSERT((_frozen - _pending).none(),
                  "a frozen wake key outlived its pending round");
    for (unsigned c = 0; c < _ports.size(); c++) {
        NEUMMU_ASSERT(_parkedRounds[c] == 0,
                      "a parked refused round was left unsettled");
        const DeferredRetryClient *deferred = _ports[c]->_deferred;
        if (deferred) {
            NEUMMU_ASSERT(deferred->awaitingWake() ==
                              (_waiting.test(c) || _pending.test(c)),
                          "a deferred client is blocked but neither "
                          "waits nor is in a round, or the reverse");
        }
    }
}

template <typename Key>
unsigned
TranslationRouter::firstInWakeOrder(const ClientSet &set, Key &&key)
{
    std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
    set.forEach([&](unsigned c) { first = std::min(first, key(c)); });
    return clientOf(first);
}

void
TranslationRouter::onWake()
{
    NEUMMU_PROF_SCOPE(_eq ? _eq->profiler() : nullptr,
                      ProfSubsystem::Router);
    // Capacity freed in the shared engine: wake the clients waiting
    // on a rejection. A client that was never rejected, or was woken
    // since, has nothing to retry (a DMA's retry is already in a
    // round, a hub bridge with an empty retry queue does nothing), so
    // it is not in the set. Clients with the deepest backlog
    // re-arbitrate first, ties by client index, approximating the
    // FIFO request queue of a real IOMMU front end -- this is what
    // lets a bursty accelerator starve a quiet one under the Shared
    // policy.
    //
    // The order is fixed when the wake starts, from the keys then:
    // each client is taken when its turn comes, after the ones before
    // it took what they could. The keys are read as they are: no
    // client the wake orders has a response or a request accepted
    // before its turn. A bridge whose retry the engine would
    // refuse again stays in the set without the call, which would
    // change nothing but rejection counters; a called bridge goes
    // back only if it is rejected again. As in a round, the bridges
    // are picked in order among those the engine could admit: no call
    // frees capacity, so once refusals hold they hold for the rest of
    // the wake, and the skipped bridges need no turn. The DMAs go into
    // rounds a cycle later: those between two called bridges in wake
    // order join together, at their turn, so a call that schedules an
    // event puts the DMAs after it in a later event, as their own
    // joins would.
    ClientSet dmas = _waiting & _deferredPorts;
    ClientSet bridges = _waiting - _deferredPorts;
    for (;;) {
        // While refusals hold, skip a bridge whose retry the engine
        // would refuse: one that retries inside its wake, refused by
        // the engine on a page not reported since.
        const ClientSet callable =
            _engine.refusalsHold()
                ? bridges - (_retriesInWake - _capBlocked - _reported)
                : bridges;
        if (callable.none())
            break;
        const unsigned c = firstInWakeOrder(
            callable, [this](unsigned m) { return wakeKey(m); });
        bridges.reset(c);
        const std::uint64_t turn = wakeKey(c);
        ClientSet before;
        dmas.forEach([&](unsigned d) {
            if (wakeKey(d) < turn)
                before.set(d);
        });
        dmas -= before;
        joinRound(before & _waiting);
        Port &bridge = *_ports[c];
        _waiting.reset(c);
        if (bridge._wake)
            bridge._wake();
    }
    joinRound(dmas & _waiting);
}

} // namespace neummu
