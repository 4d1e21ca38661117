/**
 * @file
 * Cross-domain translation plumbing for sharded simulation: the
 * NPU-side ShardTranslationPort and the hub-side
 * HubTranslationBridge.
 *
 * In a sharded System (SystemConfig::sim.shards > 0) the DMA engine
 * and the MMU live on different event queues, so the legacy
 * synchronous port contract -- translate() mutates MMU state and
 * returns accept/reject at the caller's tick, wake callbacks fire
 * synchronously out of hub events -- cannot hold. The pair below
 * replaces it with an explicit interconnect hop of hopTicks each way
 * (the runtime's lookahead) and credit-based flow control:
 *
 *  - ShardTranslationPort implements TranslationEngine on the NPU's
 *    queue. translate() consumes a credit and posts the request to
 *    the hub, due hopTicks later; with no credit left it rejects, and
 *    the DMA blocks exactly as it does on an exhausted MMU port.
 *  - HubTranslationBridge receives requests on the hub queue and
 *    plays them into the real port (router port or MmuCore). A
 *    rejected request parks in a FIFO that the port's wake callback
 *    drains, so hub-side capacity contention stays hub-internal.
 *    Responses post back to the NPU, again hopTicks later; delivery
 *    returns the credit and wakes the DMA if it was starved.
 *
 * Every NPU uses this path in sharded mode -- including hub-resident
 * NPUs, via their self-mailbox -- so simulated results depend only on
 * the sim.{hopTicks,portCredits,hubNpus} model parameters, never on
 * sim.shards.
 */

#ifndef NEUMMU_SYSTEM_SHARD_PORT_HH
#define NEUMMU_SYSTEM_SHARD_PORT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/stats.hh"
#include "common/types.hh"
#include "mmu/translation.hh"
#include "sim/domain.hh"

namespace neummu {

class HubTranslationBridge;

namespace trace {
class TraceBuffer;
}

/** The NPU-side end: what the DMA engine sees as its MMU port. */
class ShardTranslationPort : public TranslationEngine
{
  public:
    /**
     * @param eq The owning NPU's event queue.
     * @param self_unit The NPU's runtime unit id (hub is unit 0).
     * @param credits Max in-flight translations (>= 1).
     */
    ShardTranslationPort(std::string name, DomainRuntime &rt,
                         EventQueue &eq, unsigned self_unit,
                         unsigned credits);

    /** Wire the hub end (constructed second; call once). */
    void connectHub(HubTranslationBridge &bridge) { _bridge = &bridge; }

    bool translate(Addr va, std::uint64_t id) override;
    void setResponseCallback(ResponseCallback cb) override;
    void setWakeCallback(WakeCallback cb) override;
    void invalidate(Addr va) override;
    const MmuCounts &counts() const override { return _counts; }

    /** Hub response arriving on the NPU queue (bridge-posted). */
    void deliverResponse(const TranslationResponse &resp);

    unsigned creditsAvailable() const { return _credits; }
    stats::Group &stats() { return _stats; }

    /** Attach a lifecycle trace buffer (the NPU queue's; System
     *  wiring). @p key_base is the port's router client tag. */
    void setTrace(trace::TraceBuffer *buf, std::uint64_t key_base)
    {
        _trace = buf;
        _traceKeyBase = key_base;
    }

  private:
    DomainRuntime &_rt;
    EventQueue &_eq;
    HubTranslationBridge *_bridge = nullptr;
    unsigned _selfUnit;
    unsigned _credits;
    ResponseCallback _respond;
    WakeCallback _wake;
    trace::TraceBuffer *_trace = nullptr;
    std::uint64_t _traceKeyBase = 0;
    MmuCounts _counts;
    stats::Group _stats;
    stats::Scalar &_sRequests;
    stats::Scalar &_sResponses;
    stats::Scalar &_sCreditBlocks;
};

/**
 * The hub-side end: one per NPU, adapting mailbox traffic onto the
 * real translation port. Owns the port's response/wake callbacks.
 */
class HubTranslationBridge
{
  public:
    HubTranslationBridge(DomainRuntime &rt, EventQueue &hub_eq,
                         unsigned npu_unit, unsigned npu_queue,
                         TranslationEngine &port,
                         ShardTranslationPort &shard);

    /** Request arriving on the hub queue (shard-posted). */
    void ingress(Addr va, std::uint64_t id);
    /** Invalidation arriving on the hub queue (shard-posted). */
    void invalidateHub(Addr va) { _port.invalidate(va); }

    std::size_t retryQueueDepth() const { return _retry.size(); }

    /** Attach a lifecycle trace buffer (the hub queue's; System
     *  wiring). @p key_base is the NPU's router client tag. */
    void setTrace(trace::TraceBuffer *buf, std::uint64_t key_base)
    {
        _trace = buf;
        _traceKeyBase = key_base;
    }

  private:
    void onResponse(const TranslationResponse &resp);
    void onWake();

    DomainRuntime &_rt;
    EventQueue &_eq;
    unsigned _npuUnit;
    unsigned _npuQueue;
    TranslationEngine &_port;
    ShardTranslationPort &_shard;
    trace::TraceBuffer *_trace = nullptr;
    std::uint64_t _traceKeyBase = 0;
    /** Requests the hub port rejected, replayed in order on wake. */
    std::deque<std::pair<Addr, std::uint64_t>> _retry;
};

} // namespace neummu

#endif // NEUMMU_SYSTEM_SHARD_PORT_HH
