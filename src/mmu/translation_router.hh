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
 *
 * A client the engine or the cap rejects waits in the router's one
 * waiting set until a wake. Each wake of the engine wakes every
 * waiting client, deepest backlog first (in-flight count descending,
 * ties by client index), approximating the FIFO request queue of an
 * IOMMU front end. A hub bridge (declareWakeRetry()) is called inside
 * the wake, unless the engine proves its refusal still holds. A DMA
 * (declareDeferredRetry()) is not called: its port joins a round that
 * retries it a cycle later from the queue's RetryRound.
 *
 * At a round the router visits the members in wake order -- a probe
 * of admits(), then the DMA's retry or its refusal -- but only those
 * the engine could admit. While no refusal is proven
 * (TranslationEngine::refusalsHold() false, e.g. a walker is free),
 * that is every member. Once refusals hold, it is the members whose
 * page started a walk or entered the TLB since their refusal, whose
 * refusal was a cap rejection, or that record every attempt. The
 * others stay parked in the waiting set without a call, and their
 * refused rounds are settled in one call before their next visit
 * (DeferredRetryClient::retriesRefused()). Under the engine's
 * contract a parked member's probe would have been refused, so the
 * simulated result is that of visiting every member at every round.
 *
 * Neither a wake nor an admit report makes a pass over every waiter.
 * A wake orders its waiters by their current keys, which hold for the
 * whole wake; a member of a pending round keeps its key from the wake
 * frozen, stored only if a response changes its in-flight count before
 * the round. An admit report first probes a one-byte-per-bucket count
 * of the refused pages and scans the blocked clients only when the
 * page's bucket is not empty.
 */

#ifndef NEUMMU_MMU_TRANSLATION_ROUTER_HH
#define NEUMMU_MMU_TRANSLATION_ROUTER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "mmu/translation.hh"

namespace neummu {

class EventQueue;
class RetryRound;

/** Walker-pool arbitration across clients. */
enum class RouterPolicy
{
    Shared,      ///< no limit: first come, first served
    Partitioned, ///< each client capped at numPtws / numClients
};

/**
 * Fans one underlying engine out to N client ports. The router owns
 * the engine's response, wake and admit-watch callbacks; construct it
 * before handing ports to DMA engines, and do not install other
 * callbacks on the underlying engine afterwards.
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
     *        times wakes and rounds under ProfSubsystem::Router.
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

    /** Per-client statistics group ("<name>.client<i>"); current
     *  after refreshStats(). */
    stats::Group &clientStats(unsigned client);

    /** Mirror each client's counters into its group (dump time). */
    void refreshStats();

    /**
     * Settle each parked client's refused rounds, and charge each
     * client in a pending round its wait up to the wake, as the round
     * would. Call where a run stops (System::run), so stats read
     * after the run count every round. Then checks that no waiter is
     * lost or phantom: no refused round is left unsettled, and a
     * deferred-retry client is blocked exactly when it is in the
     * waiting set or in a pending round.
     */
    void chargePendingWaits();

    /** Round members visited: probed, then admitted or refused. */
    std::uint64_t roundVisits() const { return _roundVisits; }

    /**
     * Round members left parked: each a refused round settled later
     * without a probe. Every member of every round is either visited
     * or parked.
     */
    std::uint64_t parkedRefusals() const { return _parkedRefusals; }

    /** Pages the engine's admit watch reported. */
    std::uint64_t admitReports() const { return _admitReports; }

    /** Admit reports that passed the refused-page filter and scanned
     *  the blocked clients; the others returned after one probe. */
    std::uint64_t admitScans() const { return _admitScans; }

    /** Round picks that read a key frozen by a response after the
     *  member's wake. */
    std::uint64_t frozenKeyReads() const { return _frozenKeyReads; }

  private:
    class Port;
    class Round;

    /** A set of client indices, one bit each (the tag is one byte). */
    class ClientSet
    {
      public:
        void set(unsigned c) { _w[c >> 6] |= bit(c); }
        void reset(unsigned c) { _w[c >> 6] &= ~bit(c); }
        void
        assign(unsigned c, bool on)
        {
            on ? set(c) : reset(c);
        }
        bool test(unsigned c) const { return (_w[c >> 6] & bit(c)) != 0; }
        bool none() const { return (_w[0] | _w[1] | _w[2] | _w[3]) == 0; }
        std::size_t
        count() const
        {
            std::size_t n = 0;
            for (const std::uint64_t w : _w)
                n += std::size_t(__builtin_popcountll(w));
            return n;
        }

        ClientSet &
        operator|=(const ClientSet &o)
        {
            for (unsigned i = 0; i < words; i++)
                _w[i] |= o._w[i];
            return *this;
        }
        /** Remove every member of @p o. */
        ClientSet &
        operator-=(const ClientSet &o)
        {
            for (unsigned i = 0; i < words; i++)
                _w[i] &= ~o._w[i];
            return *this;
        }
        ClientSet
        operator&(const ClientSet &o) const
        {
            ClientSet r;
            for (unsigned i = 0; i < words; i++)
                r._w[i] = _w[i] & o._w[i];
            return r;
        }
        ClientSet
        operator|(const ClientSet &o) const
        {
            ClientSet r = *this;
            return r |= o;
        }
        ClientSet
        operator-(const ClientSet &o) const
        {
            ClientSet r = *this;
            return r -= o;
        }
        bool operator==(const ClientSet &o) const { return _w == o._w; }

        /** Call @p f with each member, in index order. */
        template <typename F>
        void
        forEach(F &&f) const
        {
            for (unsigned i = 0; i < words; i++) {
                for (std::uint64_t bits = _w[i]; bits; bits &= bits - 1)
                    f(i * 64 + unsigned(__builtin_ctzll(bits)));
            }
        }

      private:
        static constexpr unsigned words = 4;
        static std::uint64_t
        bit(unsigned c)
        {
            return std::uint64_t(1) << (c & 63);
        }

        std::array<std::uint64_t, words> _w{};
    };

    bool tryTranslate(unsigned client, Addr va, std::uint64_t id);
    /** Port::admits(): a refusal leaves the port waiting. */
    bool probe(Port &port, Addr va);
    /** Port::declareWakeRetry(): the port is a hub bridge. */
    void watchWakeRetries(Port &port);
    /** Port::declareDeferredRetry(): the port retries from @p round. */
    void deferRetries(Port &port, RetryRound &round);
    /** Start the engine's admit watch (idempotent). */
    void watchAdmits();
    void onResponse(const TranslationResponse &resp);
    /** Wake the waiting clients, deepest backlog first. */
    void onWake();
    /** Engine watch: page @p vpn may now admit its waiters. */
    void onAdmitPage(Addr vpn, unsigned page_shift);
    /** @p port was refused @p va (by the cap when @p by_cap): it
     *  waits for a wake. */
    void refuse(Port &port, Addr va, bool by_cap);
    /** Wake order key: in-flight count descending, then client
     *  index; ascending keys are the wake order. */
    std::uint64_t wakeKey(unsigned client) const;
    /** The key @p client had at the wake that put it in its pending
     *  round: frozen if a response changed it since, else current. */
    std::uint64_t roundKey(unsigned client) const;
    /** Refused-page filter buckets: 2^filterBits, each counting the
     *  held clients (at most 255) in one byte. */
    static constexpr unsigned filterBits = 10;
    using PageCounts = std::array<std::uint8_t, std::size_t(1) << filterBits>;
    /** Refused-page filter bucket of @p page (at _filterShift). */
    static unsigned
    bucketOf(Addr page)
    {
        return unsigned((page * 0x9e3779b97f4a7c15ull) >>
                        (64 - filterBits));
    }
    /** Hold @p client in the filter under its refused VA's page. */
    void hold(unsigned client);
    /** Take @p client out of the filter, if held. */
    void release(unsigned client);
    /** Count the held clients per bucket, at _filterShift. */
    PageCounts countHeld() const;
    /** Recount the filter at @p page_shift from the held clients. */
    void refilter(unsigned page_shift);
    static unsigned
    clientOf(std::uint64_t key)
    {
        return unsigned(key & 0xff);
    }
    /** Take @p port out of the waiting set and wake it: put a
     *  deferred-retry port in a round, call any other port's wake
     *  callback. */
    void wake(Port &port);
    /**
     * Put @p members, taken from the waiting set, in a round at the
     * next tick. The queue's RetryRound runs it in the event the
     * members' own joins would have run in, after what joined before.
     */
    void joinRound(const ClientSet &members);
    /**
     * A round's event: visit its members in wake order while the
     * engine proves nothing, then only the members it could admit;
     * park the rest. Timed under ProfSubsystem::Router.
     */
    void runRound(Round &round);
    /** Settle @p client's parked rounds, then probe its refused VA and
     *  hand it its retry or its refusal. */
    void visit(unsigned client, Tick woken);
    /** One call for @p client's parked refused rounds, if any. */
    void settle(unsigned client);
    /** The drain check of chargePendingWaits(). */
    void checkWaiters() const;
    /** The member of @p set with the least @p key (a client's wake
     *  order key). @pre @p set is not empty. */
    template <typename Key>
    static unsigned firstInWakeOrder(const ClientSet &set, Key &&key);

    TranslationEngine &_engine;
    RouterPolicy _policy;
    unsigned _perClientCap;
    std::string _name;
    EventQueue *_eq;
    std::vector<std::unique_ptr<Port>> _ports;

    // Hot per-client state, indexed by client: what wakes, rounds and
    // admit reports read, packed so that a pass over the waiters
    // touches no Port.
    std::vector<std::uint64_t> _inflight;
    /** VA of the last rejection or refused probe. */
    std::vector<Addr> _refusedVa;
    /** Wake order key at the wake that put the client in its pending
     *  round; valid for the members of _frozen only. */
    std::vector<std::uint64_t> _frozenKey;
    /** Parked refused rounds not yet settled, and the last one's
     *  wake tick. */
    std::vector<std::uint64_t> _parkedRounds;
    std::vector<Tick> _lastParked;
    /** Rejected (by the engine or the cap) and not woken since, or
     *  parked. Never overlaps _pending. */
    ClientSet _waiting;
    /** Deferred-retry clients in a round whose event has not fired. */
    ClientSet _pending;
    /** The engine reported the page of the refused VA since. */
    ClientSet _reported;
    /** The last refusal was the router's cap, not the engine. */
    ClientSet _capRefused;
    /** A cap rejection is pending a below-cap wake. */
    ClientSet _capBlocked;
    /** Clients that retry inside their wake (declareWakeRetry()). */
    ClientSet _retriesInWake;
    /** Deferred-retry clients that recorded every attempt at their
     *  last refusal. */
    ClientSet _recording;
    /** Clients that declared deferred retries. */
    ClientSet _deferredPorts;
    /** Pending-round members whose in-flight count a response changed
     *  since their wake: their _frozenKey holds the key at the wake. */
    ClientSet _frozen;

    // Refused-page filter. Holds the refused page of every client
    // refused since its last accepted translate (a superset of
    // _waiting | _pending), counted per hashed page at the engine's
    // page shift, so that an admit report whose bucket is empty
    // concerns no blocked client.
    PageCounts _refusedPages{};
    /** Clients held in the filter, under their _refusedVa. */
    ClientSet _held;
    /** Page shift of the filter's pages: 12 until the admit watch
     *  reports at another, which recounts the filter (refilter()). */
    unsigned _filterShift = 12;

    /** The deferred-retry clients' round, shared by all of them. */
    RetryRound *_retry = nullptr;
    /** Every round ever made; idle ones wait in _idleRounds. */
    std::vector<std::unique_ptr<Round>> _rounds;
    std::vector<Round *> _idleRounds;
    std::uint64_t _roundVisits = 0;
    std::uint64_t _parkedRefusals = 0;
    std::uint64_t _admitReports = 0;
    std::uint64_t _admitScans = 0;
    std::uint64_t _frozenKeyReads = 0;

    static constexpr unsigned clientShift = 56;
};

} // namespace neummu

#endif // NEUMMU_MMU_TRANSLATION_ROUTER_HH
