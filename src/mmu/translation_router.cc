#include "mmu/translation_router.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace neummu {

/**
 * One client-facing port. Tags request ids with the client index in
 * the top byte; the router strips the tag on the way back.
 */
class TranslationRouter::Port : public TranslationEngine
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

    bool admits(Addr va) override { return _router.probe(_client, va); }

    void declareWakeRetry() override { _router.watchWakeRetries(*this); }

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
    ResponseCallback _respond;
    WakeCallback _wake;
    MmuCounts _counts;
    std::uint64_t _inflight = 0;
    std::uint64_t _maxInflight = 0;
    std::uint64_t _capRejections = 0;
    /** A cap rejection is pending a below-cap retry wake. */
    bool _capBlocked = false;
    /** Rejected (by the engine or the cap) and not woken since. */
    bool _waiting = false;
    /** The client retries inside its wake (declareWakeRetry()). */
    bool _retriesInWake = false;
    /** VA of the last engine rejection or refused probe... */
    Addr _refusedVa = invalidAddr;
    /** ...and whether the engine reported its page since. */
    bool _refusedPageReported = false;
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
        markWaiting(port);
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
TranslationRouter::probe(unsigned client, Addr va)
{
    Port &port = *_ports[client];
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
    if (port._waiting) {
        port._waiting = false;
        const auto it = std::find(_waiting.begin(), _waiting.end(), &port);
        if (it != _waiting.end())
            _waiting.erase(it);
    }
    if (port._wake)
        port._wake();
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
    // since, has nothing to retry (a DMA returns unless blocked, a
    // hub bridge with an empty retry queue does nothing), so it is
    // not on the list. Clients with the deepest backlog re-arbitrate
    // first, ties by client index, approximating the FIFO request
    // queue of a real IOMMU front end -- this is what lets a bursty
    // accelerator starve a quiet one under the Shared policy.
    //
    // The order is fixed when the wake starts: the wake sorts the
    // whole list and takes it, and each client is tested when its
    // turn comes, after the ones before it took what they could. A
    // client whose retry the engine would refuse again is put back
    // without the call, which would change nothing but rejection
    // counters; a called client goes back only if it is rejected
    // again.
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
        else if (port->_wake)
            port->_wake();
    }
    _wakeOrder.clear();
}

} // namespace neummu
