/**
 * @file
 * The hop model's translation plumbing: the NPU-side
 * ShardTranslationPort and the hub-side HubTranslationBridge.
 *
 * In a System with sim.shards > 0 every NPU reaches the MMU across an
 * explicit interconnect hop of hopTicks each way, flow-controlled by
 * credits, instead of through the synchronous port contract of the
 * legacy kernel. A hop is a scheduled delivery on the System's one
 * event queue, hopTicks after the send:
 *
 *  - ShardTranslationPort implements TranslationEngine for the DMA.
 *    translate() consumes a credit and delivers the request to the
 *    hub one hop later; with no credit left it rejects, and the DMA
 *    blocks exactly as it does on an exhausted MMU port.
 *  - HubTranslationBridge plays delivered requests into the real
 *    port (router port or MmuCore). A rejected request parks in a
 *    FIFO that the port's wake callback drains, so hub-side capacity
 *    contention stays hub-internal. Responses cross back one hop
 *    later; delivery returns the credit and wakes the DMA if it was
 *    starved.
 *
 * Every NPU uses this path in the hop model, so simulated results
 * depend only on the sim.{hopTicks,portCredits} model parameters,
 * never on sim.shards.
 *
 * Tie rule: deliveries due on the same tick run in post order, the
 * queue's insertion order. Two NPUs' requests posted for the same
 * tick reach the hub in the order the NPUs sent them.
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
#include "sim/event_queue.hh"

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
     * @param eq The System's event queue.
     * @param hop_ticks One-way NPU<->hub latency (>= 1).
     * @param credits Max in-flight translations (>= 1).
     */
    ShardTranslationPort(std::string name, EventQueue &eq,
                         Tick hop_ticks, unsigned credits);

    /** Wire the hub end (constructed second; call once). */
    void connectHub(HubTranslationBridge &bridge) { _bridge = &bridge; }

    bool translate(Addr va, std::uint64_t id) override;
    void setResponseCallback(ResponseCallback cb) override;
    void setWakeCallback(WakeCallback cb) override;
    void invalidate(Addr va) override;
    const MmuCounts &counts() const override { return _counts; }

    /** Run @p f one hop from now; counts one cross-domain message.
     *  Both directions of this NPU's link go through here. @p f is
     *  built in its event's node, as by EventQueue::schedule(). */
    template <typename F>
    void hop(F &&f)
    {
        _messages++;
        _eq.schedule(_eq.now() + _hop, std::forward<F>(f));
    }

    /** Hub response arriving at the NPU (bridge-sent). */
    void deliverResponse(const TranslationResponse &resp);

    EventQueue &eventQueue() const { return _eq; }
    Tick hopTicks() const { return _hop; }
    unsigned creditsAvailable() const { return _credits; }
    /** Hops sent across this NPU's link, both directions. */
    std::uint64_t messagesPosted() const { return _messages; }
    /** Statistics group; current after refreshStats(). */
    stats::Group &stats() { return _stats; }
    /** Mirror the plain counters into stats() (dump time); a credit
     *  block is the port's blockedIssues. */
    void refreshStats();

    /** Attach the NPU's lifecycle trace buffer (System wiring).
     *  @p key_base is the port's router client tag. */
    void setTrace(trace::TraceBuffer *buf, std::uint64_t key_base)
    {
        _trace = buf;
        _traceKeyBase = key_base;
    }

  private:
    EventQueue &_eq;
    Tick _hop;
    HubTranslationBridge *_bridge = nullptr;
    unsigned _credits;
    std::uint64_t _messages = 0;
    ResponseCallback _respond;
    WakeCallback _wake;
    trace::TraceBuffer *_trace = nullptr;
    std::uint64_t _traceKeyBase = 0;
    MmuCounts _counts;
    stats::Group _stats;
};

/**
 * The hub-side end: one per NPU, adapting hop deliveries onto the
 * real translation port. Owns the port's response/wake callbacks.
 */
class HubTranslationBridge
{
  public:
    HubTranslationBridge(TranslationEngine &port,
                         ShardTranslationPort &shard);

    /** Request arriving at the hub (shard-sent). */
    void ingress(Addr va, std::uint64_t id);
    /** Invalidation arriving at the hub (shard-sent). */
    void invalidateHub(Addr va) { _port.invalidate(va); }

    std::size_t retryQueueDepth() const { return _retry.size(); }

    /** Attach the hub's lifecycle trace buffer (System wiring).
     *  @p key_base is the NPU's router client tag. */
    void setTrace(trace::TraceBuffer *buf, std::uint64_t key_base)
    {
        _trace = buf;
        _traceKeyBase = key_base;
    }

  private:
    void onResponse(const TranslationResponse &resp);
    void onWake();

    EventQueue &_eq;
    TranslationEngine &_port;
    ShardTranslationPort &_shard;
    trace::TraceBuffer *_trace = nullptr;
    std::uint64_t _traceKeyBase = 0;
    /** Requests the hub port rejected, replayed in order on wake. */
    std::deque<std::pair<Addr, std::uint64_t>> _retry;
};

} // namespace neummu

#endif // NEUMMU_SYSTEM_SHARD_PORT_HH
