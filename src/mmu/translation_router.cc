#include "mmu/translation_router.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/event_queue.hh"
#include "sim/retry_round.hh"

namespace neummu {

/**
 * One client-facing port. Tags request ids with the client index in
 * the top byte; the router strips the tag on the way back. For a
 * deferred-retry client it is the RetryRound member that retries.
 */
class TranslationRouter::Port final : public TranslationEngine,
                                private RetryMember
{
  public:
    Port(TranslationRouter &router, unsigned client,
         const std::string &name)
        : _router(router), _client(client), _stats(name),
          _sRequests(_stats.scalar("requests")),
          _sResponses(_stats.scalar("responses")),
          _sBlockedIssues(_stats.scalar("blockedIssues")),
          _sCapRejections(_stats.scalar("capRejections"))
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
        _round = &round;
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

    void retry() override { _router.retryDeferred(*this); }

    // What a wake and a retry round read comes first, so that each
    // port they visit costs as few cache lines as possible.
    TranslationRouter &_router;
    unsigned _client;
    /** A cap rejection is pending a below-cap retry wake. */
    bool _capBlocked = false;
    /** Rejected (by the engine or the cap) and not woken since. */
    bool _waiting = false;
    /** The client retries inside its wake (declareWakeRetry()). */
    bool _retriesInWake = false;
    /** Whether the engine reported the page of _refusedVa since. */
    bool _refusedPageReported = false;
    std::uint64_t _inflight = 0;
    /** VA of the last rejection or refused probe. */
    Addr _refusedVa = invalidAddr;
    /** The deferred-retry client, and the round it retries from. */
    DeferredRetryClient *_deferred = nullptr;
    RetryRound *_round = nullptr;
    /** Tick of the wake that put the port in its pending round. */
    Tick _wokenAt = 0;
    ResponseCallback _respond;
    WakeCallback _wake;
    MmuCounts _counts;
    std::uint64_t _maxInflight = 0;
    std::uint64_t _capRejections = 0;
    stats::Group _stats;
    // Scalar handles resolved once; the translate/response hot path
    // must not pay per-call map lookups.
    stats::Scalar &_sRequests;
    stats::Scalar &_sResponses;
    stats::Scalar &_sBlockedIssues;
    stats::Scalar &_sCapRejections;
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
    // Both lists hold at most every port: reserving keeps the swap in
    // onWake() and every push allocation-free.
    _waiting.reserve(num_clients);
    _wakeOrder.reserve(num_clients);
    for (unsigned c = 0; c < num_clients; c++) {
        _ports.push_back(std::make_unique<Port>(
            *this, c, _name + ".client" + std::to_string(c)));
    }

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
    return _ports[client]->_inflight;
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

inline bool
TranslationRouter::wakesBefore(const Port *a, const Port *b)
{
    return a->_inflight != b->_inflight ? a->_inflight > b->_inflight
                                        : a->_client < b->_client;
}

inline void
TranslationRouter::markWaiting(Port &port)
{
    if (port._waiting)
        return;
    port._waiting = true;
    _waiting.push_back(&port);
}

inline void
TranslationRouter::refuse(Port &port, Addr va)
{
    port._refusedVa = va;
    port._refusedPageReported = false;
    markWaiting(port);
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
    ++port._sRequests;
    if (_policy == RouterPolicy::Partitioned &&
        port._inflight >= _perClientCap) {
        port._capRejections++;
        port._counts.blockedIssues++;
        port._capBlocked = true;
        refuse(port, va);
        ++port._sCapRejections;
        ++port._sBlockedIssues;
        return false;
    }
    const std::uint64_t tagged =
        (std::uint64_t(client) << clientShift) | id;
    if (!_engine.translate(va, tagged)) {
        port._counts.blockedIssues++;
        refuse(port, va);
        ++port._sBlockedIssues;
        return false;
    }
    port._inflight++;
    port._maxInflight = std::max(port._maxInflight, port._inflight);
    return true;
}

bool
TranslationRouter::probe(Port &port, Addr va)
{
    // A capped port must go through translate(): the cap rejection's
    // bookkeeping arms its below-cap wake.
    if (_policy == RouterPolicy::Partitioned &&
        port._inflight >= _perClientCap)
        return true;
    if (_engine.admits(va))
        return true;
    refuse(port, va);
    return false;
}

void
TranslationRouter::watchWakeRetries(Port &port)
{
    port._retriesInWake = true;
    // Idempotent: every such port shares the one watch.
    _engine.setAdmitWatch([this](Addr vpn, unsigned page_shift) {
        onAdmitPage(vpn, page_shift);
    });
}

void
TranslationRouter::onAdmitPage(Addr vpn, unsigned page_shift)
{
    // During a wake, the ports it has yet to visit are off the list
    // but still waiting. Marking a port the wake already let go is
    // harmless: its next refusal clears the mark.
    const auto mark = [vpn, page_shift](Port *port) {
        if ((port->_refusedVa >> page_shift) == vpn)
            port->_refusedPageReported = true;
    };
    std::for_each(_waiting.begin(), _waiting.end(), mark);
    std::for_each(_wakeOrder.begin(), _wakeOrder.end(), mark);
}

void
TranslationRouter::onResponse(const TranslationResponse &resp)
{
    const unsigned client = unsigned(resp.id >> clientShift);
    NEUMMU_ASSERT(client < _ports.size(), "response for unknown client");
    Port &port = *_ports[client];
    NEUMMU_ASSERT(port._inflight > 0, "response underflow");
    port._inflight--;
    port._counts.responses++;
    ++port._sResponses;

    TranslationResponse untagged = resp;
    untagged.id = resp.id & ((std::uint64_t(1) << clientShift) - 1);
    NEUMMU_ASSERT(port._respond, "client has no response callback");
    port._respond(untagged);

    // A client the router itself capped is not woken by the engine
    // (the engine never saw its rejected request): wake it as soon as
    // its own completions bring it back under the cap.
    if (port._capBlocked && port._inflight < _perClientCap) {
        port._capBlocked = false;
        wake(port);
    }
}

void
TranslationRouter::wake(Port &port)
{
    // Off the list before the call: a retry the wake makes
    // synchronously (a hub bridge replaying its queue) may be
    // rejected again and put it back.
    const bool waiting = port._waiting;
    if (waiting) {
        port._waiting = false;
        const auto it = std::find(_waiting.begin(), _waiting.end(), &port);
        if (it != _waiting.end())
            _waiting.erase(it);
    }
    if (port._deferred) {
        // A deferred port off the list was woken since: its retry is
        // already in a round.
        if (waiting)
            defer(port);
    } else if (port._wake) {
        port._wake();
    }
}

void
TranslationRouter::defer(Port &port)
{
    port._wokenAt = port._round->eventQueue().now();
    port._round->join(port);
}

void
TranslationRouter::retryDeferred(Port &port)
{
    NEUMMU_PROF_SCOPE(_eq ? _eq->profiler() : nullptr,
                      ProfSubsystem::Router);
    // Only the port retries for its client, so from the wake to here
    // the client stays blocked with no retry of its own. Checked here
    // rather than at the wake: the round reads the client anyway.
    NEUMMU_ASSERT(port._deferred->awaitingWake(),
                  "deferred port's client is not blocked on a wake");
    // A refusal puts the port straight back on the waiting list
    // (probe()) and leaves its client as a rejected retry would.
    if (probe(port, port._refusedVa))
        port._deferred->retryAdmitted(port._wokenAt);
    else
        port._deferred->retryRefused(port._wokenAt);
}

void
TranslationRouter::chargePendingWaits()
{
    for (const auto &port : _ports) {
        if (port->_deferred && port->inRetryRound())
            port->_deferred->chargeWait(port->_wokenAt);
    }
}

bool
TranslationRouter::refusalHolds(const Port &port) const
{
    // Only a client that retries inside the wake, and only the
    // engine's refusal of the page it retries: a deferred (DMA)
    // retry runs a cycle later, and a cap rejection's retry is
    // counted against the cap.
    return port._retriesInWake && !port._capBlocked &&
           !port._refusedPageReported && _engine.refusalsHold();
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
    // it is not on the list. Clients with the deepest backlog
    // re-arbitrate first, ties by client index, approximating the
    // FIFO request queue of a real IOMMU front end -- this is what
    // lets a bursty accelerator starve a quiet one under the Shared
    // policy.
    //
    // The order is fixed when the wake starts: the wake sorts the
    // whole list and takes it, and each client is tested when its
    // turn comes, after the ones before it took what they could. A
    // client whose retry the engine would refuse again is put back
    // without the call, which would change nothing but rejection
    // counters; a called client goes back only if it is rejected
    // again. A deferred-retry client (a DMA) is not called at all:
    // its port joins the queue's RetryRound and retries for it a
    // cycle later (retryDeferred()).
    //
    // Insertion sort in place: clients rejoin the list mostly in the
    // order the last wake called them, so it is nearly sorted, and
    // std::sort would cost more on the common short list.
    for (std::size_t i = 1; i < _waiting.size(); i++) {
        Port *p = _waiting[i];
        std::size_t j = i;
        while (j > 0 && wakesBefore(p, _waiting[j - 1])) {
            _waiting[j] = _waiting[j - 1];
            j--;
        }
        _waiting[j] = p;
    }
    _wakeOrder.swap(_waiting);
    _waiting.clear();
    for (Port *port : _wakeOrder) {
        port->_waiting = false;
        if (refusalHolds(*port))
            markWaiting(*port);
        else if (port->_deferred)
            defer(*port);
        else if (port->_wake)
            port->_wake();
    }
    _wakeOrder.clear();
}

} // namespace neummu
