/**
 * @file
 * Multiplexes one TranslationEngine across several clients.
 *
 * The paper notes that a real IOMMU is shared by multiple accelerators
 * (GPUs, DSPs, ISPs, NPUs) and leaves MMU resource allocation for QoS
 * as future work (Section IV-B). This router implements that sharing
 * substrate: each client (e.g., one NPU's DMA engine) gets a
 * TranslationEngine-shaped port; requests are tagged with a client id
 * and responses are demultiplexed back. Two arbitration policies:
 *
 * - Shared: free-for-all -- a bursty client can starve the others
 *   (the failure mode the paper warns about).
 * - Partitioned: each client may only hold its fair share of the
 *   walker pool, bounding cross-client interference.
 */

#ifndef NEUMMU_MMU_TRANSLATION_ROUTER_HH
#define NEUMMU_MMU_TRANSLATION_ROUTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "mmu/translation.hh"

namespace neummu {

class EventQueue;

/** Walker-pool arbitration across clients. */
enum class RouterPolicy
{
    Shared,      ///< no limit: first come, first served
    Partitioned, ///< each client capped at numPtws / numClients
};

/**
 * Fans one underlying engine out to N client ports. The router owns
 * the engine's response/wake callbacks; construct it before handing
 * ports to DMA engines, and do not install other callbacks on the
 * underlying engine afterwards.
 */
class TranslationRouter
{
  public:
    /**
     * @param engine Underlying translation engine (e.g., the shared
     *        IOMMU's MmuCore).
     * @param num_clients Number of ports to expose.
     * @param policy Arbitration policy.
     * @param walker_budget Total walker count used to size the
     *        per-client cap under Partitioned.
     * @param name Stats prefix; per-client groups are named
     *        "<name>.client<i>".
     * @param eq The engine's event queue, whose profiler (if any)
     *        times wake arbitration under ProfSubsystem::Router.
     */
    TranslationRouter(TranslationEngine &engine, unsigned num_clients,
                      RouterPolicy policy, unsigned walker_budget,
                      std::string name = "router",
                      EventQueue *eq = nullptr);
    ~TranslationRouter();

    /** Client-facing port; valid for the router's lifetime. */
    TranslationEngine &port(unsigned client);

    unsigned numClients() const { return unsigned(_ports.size()); }

    /** Per-client cap under Partitioned (diagnostics). */
    unsigned perClientCap() const { return _perClientCap; }

    /** Requests in flight for one client (tests/diagnostics). */
    std::uint64_t inflight(unsigned client) const;

    /** Issue-port rejections the router itself imposed (QoS cap). */
    std::uint64_t capRejections(unsigned client) const;

    /** Peak concurrently in-flight requests for one client. */
    std::uint64_t maxInflight(unsigned client) const;

    /** Per-client activity counters. */
    const MmuCounts &clientCounts(unsigned client) const;

    /** Per-client statistics group ("<name>.client<i>"). */
    stats::Group &clientStats(unsigned client);

    /**
     * Charge each deferred-retry client whose port is in a pending
     * RetryRound its wait up to the wake, as the wake itself once
     * did. Call where a run stops (System::run), so a wake on the
     * last tick is counted before the stats are read.
     */
    void chargePendingWaits();

  private:
    class Port;

    bool tryTranslate(unsigned client, Addr va, std::uint64_t id);
    /** Port::admits(): a refusal leaves the port waiting. */
    bool probe(Port &port, Addr va);
    /** Port::declareWakeRetry(): starts the engine's admit watch. */
    void watchWakeRetries(Port &port);
    void onResponse(const TranslationResponse &resp);
    /** Wake the waiting clients, deepest backlog first. */
    void onWake();
    /** Engine watch: page @p vpn may now admit its waiters. */
    void onAdmitPage(Addr vpn, unsigned page_shift);
    /** @p port was refused @p va: it waits for a wake. */
    void refuse(Port &port, Addr va);
    /** Put @p port on the waiting list (no-op if already there). */
    void markWaiting(Port &port);
    /** Wake order: in-flight count descending, then client index. */
    static bool wakesBefore(const Port *a, const Port *b);
    /** Take @p port off the waiting list and wake it: defer() a
     *  deferred-retry port, call any other port's wake callback. */
    void wake(Port &port);
    /** Wake deferred-retry @p port: join its RetryRound. */
    void defer(Port &port);
    /**
     * @p port's round: probe the engine with the refused VA, then
     * hand the client its retry, or its refusal with the port back on
     * the waiting list. Timed under ProfSubsystem::Router.
     */
    void retryDeferred(Port &port);
    /** Calling @p port's wake now would only be refused again. */
    bool refusalHolds(const Port &port) const;

    TranslationEngine &_engine;
    RouterPolicy _policy;
    unsigned _perClientCap;
    std::string _name;
    EventQueue *_eq;
    std::vector<std::unique_ptr<Port>> _ports;
    /**
     * Ports rejected (by the engine or the cap) and not woken since.
     * onWake() sorts it into wake order (wakesBefore()) first: the
     * keys move with every response, so the order is settled then.
     */
    std::vector<Port *> _waiting;
    /** The list the running onWake() took; empty between wakes. */
    std::vector<Port *> _wakeOrder;

    static constexpr unsigned clientShift = 56;
};

} // namespace neummu

#endif // NEUMMU_MMU_TRANSLATION_ROUTER_HH
