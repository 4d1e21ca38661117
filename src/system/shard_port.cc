#include "system/shard_port.hh"

#include "common/logging.hh"
#include "trace/trace_engine.hh"

namespace neummu {

ShardTranslationPort::ShardTranslationPort(std::string name,
                                           EventQueue &eq,
                                           Tick hop_ticks,
                                           unsigned credits)
    : _eq(eq), _hop(hop_ticks), _credits(credits),
      _stats(std::move(name))
{
    NEUMMU_ASSERT(hop_ticks >= 1, "sim.hopTicks must be at least 1");
    NEUMMU_ASSERT(credits >= 1,
                  "a shard translation port needs at least one credit");
}

bool
ShardTranslationPort::translate(Addr va, std::uint64_t id)
{
    NEUMMU_ASSERT(_bridge, "shard port used before connectHub()");
    if (_credits == 0) {
        // Out of credits: reject like an exhausted MMU port; the
        // wake fires when a response returns a credit.
        _counts.blockedIssues++;
        return false;
    }
    _credits--;
    _counts.requests++;
    if (_trace)
        _trace->span(_traceKeyBase | id, trace::Stage::HopToHub,
                     _eq.now(), _eq.now() + _hop);
    HubTranslationBridge *bridge = _bridge;
    hop([bridge, va, id] { bridge->ingress(va, id); });
    return true;
}

void
ShardTranslationPort::setResponseCallback(ResponseCallback cb)
{
    _respond = std::move(cb);
}

void
ShardTranslationPort::setWakeCallback(WakeCallback cb)
{
    _wake = std::move(cb);
}

void
ShardTranslationPort::invalidate(Addr va)
{
    NEUMMU_ASSERT(_bridge, "shard port used before connectHub()");
    HubTranslationBridge *bridge = _bridge;
    hop([bridge, va] { bridge->invalidateHub(va); });
}

void
ShardTranslationPort::deliverResponse(const TranslationResponse &resp)
{
    const bool was_starved = _credits == 0;
    _credits++;
    _counts.responses++;
    if (_respond)
        _respond(resp);
    if (was_starved && _wake)
        _wake();
}

void
ShardTranslationPort::refreshStats()
{
    _stats.scalar("requests").set(double(_counts.requests));
    _stats.scalar("responses").set(double(_counts.responses));
    _stats.scalar("creditBlocks").set(double(_counts.blockedIssues));
}

HubTranslationBridge::HubTranslationBridge(TranslationEngine &port,
                                           ShardTranslationPort &shard)
    : _eq(shard.eventQueue()), _port(port), _shard(shard)
{
    _port.setResponseCallback(
        [this](const TranslationResponse &resp) { onResponse(resp); });
    _port.setWakeCallback([this] { onWake(); });
    _port.declareWakeRetry();
}

void
HubTranslationBridge::ingress(Addr va, std::uint64_t id)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::Router);
    // Preserve request order: once anything is parked, everything
    // queues behind it.
    if (!_retry.empty() || !_port.translate(va, id)) {
        if (_trace)
            _trace->open(_traceKeyBase | id, trace::Stage::HubQueue,
                         _eq.now());
        _retry.emplace_back(va, id);
    }
}

void
HubTranslationBridge::onWake()
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::Router);
    // Probe before retrying: a refused probe leaves the port waiting
    // exactly as a rejection would, without counting a request.
    while (!_retry.empty()) {
        const auto &[va, id] = _retry.front();
        if (!_port.admits(va) || !_port.translate(va, id))
            break;
        if (_trace)
            _trace->close(_traceKeyBase | id, trace::Stage::HubQueue,
                          _eq.now());
        _retry.pop_front();
    }
}

void
HubTranslationBridge::onResponse(const TranslationResponse &resp)
{
    if (_trace)
        _trace->span(_traceKeyBase | resp.id, trace::Stage::HopToNpu,
                     _eq.now(), _eq.now() + _shard.hopTicks());
    ShardTranslationPort *shard = &_shard;
    _shard.hop([shard, resp] { shard->deliverResponse(resp); });
}

} // namespace neummu
