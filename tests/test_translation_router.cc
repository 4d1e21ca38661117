/**
 * @file
 * QoS properties of the TranslationRouter (Section IV-B future work):
 * under Partitioned, a bursty client can never hold more than its
 * walker share while a quiet client keeps making progress; under
 * Shared, the starvation case the paper warns about is real and
 * observable at the issue port. Also the wake and retry rules: who is
 * woken in what order, and that parking waiters whose refusal the
 * engine proves gives what visiting every waiter at every round gave.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "mem/memory_model.hh"
#include "mmu/mmu_core.hh"
#include "mmu/translation_router.hh"
#include "npu/dma_engine.hh"
#include "sim/event_queue.hh"
#include "sim/retry_round.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

using namespace neummu;

namespace {

/**
 * Issues a fixed stream of distinct-page translations through one
 * router port, re-pumping on every wake; with no PRMB and a cold TLB
 * every accepted request holds one walker for the walk duration.
 */
class StreamClient
{
  public:
    /**
     * @param max_outstanding Issue window: a large value models a
     *        bursty accelerator, 1 a well-behaved serial client.
     */
    StreamClient(TranslationEngine &port, Addr base,
                 std::size_t pages, EventQueue &eq,
                 std::size_t max_outstanding = SIZE_MAX)
        : _port(port), _eq(eq), _maxOutstanding(max_outstanding)
    {
        for (std::size_t i = 0; i < pages; i++)
            _vas.push_back(base + Addr(i) * 4096);
        _port.setResponseCallback([this](const TranslationResponse &) {
            _responses++;
            _outstanding--;
            _lastResponseTick = _eq.now();
            pump();
        });
        _port.setWakeCallback([this] { pump(); });
    }

    void
    pump()
    {
        while (_next < _vas.size() && _outstanding < _maxOutstanding &&
               _port.translate(_vas[_next], _next)) {
            _next++;
            _outstanding++;
        }
    }

    bool done() const { return _responses == _vas.size(); }
    std::uint64_t responses() const { return _responses; }
    Tick lastResponseTick() const { return _lastResponseTick; }

  private:
    TranslationEngine &_port;
    EventQueue &_eq;
    std::size_t _maxOutstanding;
    std::vector<Addr> _vas;
    std::size_t _next = 0;
    std::size_t _outstanding = 0;
    std::uint64_t _responses = 0;
    Tick _lastResponseTick = 0;
};

/** Host node + page table + two backed segments for two clients. */
struct Harness
{
    FrameAllocator host{"host", Addr(1) << 40, 16 * GiB};
    FrameAllocator hbm{"hbm", Addr(2) << 40, 16 * GiB};
    PageTable pt{host};
    AddressSpace vas{pt};
    EventQueue eq;

    Segment
    segment(const std::string &name, std::size_t pages)
    {
        return vas.allocateBacked(name, pages * 4096, hbm,
                                  smallPageShift);
    }
};

} // namespace

TEST(TranslationRouter, PartitionedCapsBurstyClientWhileVictimRuns)
{
    Harness h;
    // 8 walkers, no PRMB: every in-flight request is a held walker.
    MmuCore mmu("mmu", h.eq, h.pt, baselineIommuConfig());
    TranslationRouter router(mmu, 2, RouterPolicy::Partitioned, 8);
    EXPECT_EQ(router.perClientCap(), 4u);

    const Segment burst_seg = h.segment("burst", 64);
    const Segment victim_seg = h.segment("victim", 8);
    StreamClient bursty(router.port(0), burst_seg.base, 64, h.eq);
    // Well-behaved victim: one outstanding translation at a time.
    StreamClient victim(router.port(1), victim_seg.base, 8, h.eq, 1);

    bursty.pump();
    victim.pump();
    h.eq.run();

    // Both streams complete...
    EXPECT_TRUE(bursty.done());
    EXPECT_TRUE(victim.done());
    // ...the bursty client never held more than its share of the
    // walker pool (walker_budget / num_clients = 4)...
    EXPECT_LE(router.maxInflight(0), 4u);
    EXPECT_GT(router.capRejections(0), 0u);
    // ...and the victim finished while the burst was still running:
    // its half of the pool was genuinely protected.
    EXPECT_LT(victim.lastResponseTick(), bursty.lastResponseTick());
    // The victim never needed the cap.
    EXPECT_EQ(router.capRejections(1), 0u);
}

TEST(TranslationRouter, SharedPoolStarvesTheQuietClient)
{
    Harness h;
    MmuCore mmu("mmu", h.eq, h.pt, baselineIommuConfig());
    TranslationRouter router(mmu, 2, RouterPolicy::Shared, 8);

    const Segment burst_seg = h.segment("burst", 64);
    const Segment victim_seg = h.segment("victim", 8);
    StreamClient bursty(router.port(0), burst_seg.base, 64, h.eq);
    StreamClient victim(router.port(1), victim_seg.base, 8, h.eq);

    // The burst grabs the whole pool at t=0 (free-for-all)...
    bursty.pump();
    EXPECT_EQ(mmu.busyWalkers(), 8u);
    EXPECT_EQ(router.inflight(0), 8u);

    // ...so the victim's issue port is starved: this is the failure
    // mode the paper warns about when it leaves MMU QoS as future
    // work (Section IV-B). No router-imposed cap is involved.
    victim.pump();
    EXPECT_EQ(victim.responses(), 0u);
    EXPECT_GT(router.clientCounts(1).blockedIssues, 0u);
    EXPECT_EQ(router.capRejections(1), 0u);

    h.eq.run();
    EXPECT_TRUE(bursty.done());
    EXPECT_TRUE(victim.done());
    // Deepest-backlog-first wake ordering keeps handing freed
    // walkers back to the burst, so the quiet client drains last.
    EXPECT_GT(victim.lastResponseTick(), bursty.lastResponseTick());
    // The burst was never throttled by the router under Shared.
    EXPECT_EQ(router.capRejections(0), 0u);
    EXPECT_GT(router.maxInflight(0), 4u);
}

TEST(TranslationRouter, DemultiplexesResponsesByClient)
{
    Harness h;
    MmuCore mmu("mmu", h.eq, h.pt, baselineIommuConfig());
    TranslationRouter router(mmu, 3, RouterPolicy::Shared, 8);

    const Segment seg = h.segment("s", 3);
    std::vector<TranslationResponse> got(3);
    for (unsigned c = 0; c < 3; c++) {
        router.port(c).setResponseCallback(
            [&got, c](const TranslationResponse &resp) {
                got[c] = resp;
            });
        router.port(c).setWakeCallback([] {});
    }
    for (unsigned c = 0; c < 3; c++) {
        ASSERT_TRUE(
            router.port(c).translate(seg.base + c * 4096, 100 + c));
    }
    h.eq.run();

    for (unsigned c = 0; c < 3; c++) {
        // Untagged id and the right VA came back on the right port.
        EXPECT_EQ(got[c].id, 100u + c);
        EXPECT_EQ(got[c].va, seg.base + c * 4096);
        EXPECT_NE(got[c].pa, invalidAddr);
        EXPECT_EQ(router.inflight(c), 0u);
    }
}

TEST(TranslationRouter, PerClientStatsGroupsTrackActivity)
{
    Harness h;
    MmuCore mmu("mmu", h.eq, h.pt, baselineIommuConfig());
    TranslationRouter router(mmu, 2, RouterPolicy::Shared, 8, "rtr");

    const Segment seg = h.segment("s", 4);
    for (unsigned c = 0; c < 2; c++) {
        router.port(c).setResponseCallback(
            [](const TranslationResponse &) {});
        router.port(c).setWakeCallback([] {});
    }
    ASSERT_TRUE(router.port(0).translate(seg.base, 0));
    ASSERT_TRUE(router.port(0).translate(seg.base + 4096, 1));
    ASSERT_TRUE(router.port(1).translate(seg.base + 2 * 4096, 0));
    h.eq.run();

    EXPECT_EQ(router.clientStats(0).name(), "rtr.client0");
    EXPECT_EQ(router.clientStats(0).scalar("requests").value(), 2.0);
    EXPECT_EQ(router.clientStats(0).scalar("responses").value(), 2.0);
    EXPECT_EQ(router.clientStats(1).scalar("requests").value(), 1.0);
    EXPECT_EQ(router.clientStats(1).scalar("responses").value(), 1.0);
}

namespace {

/**
 * Engine stub the test drives by hand: accepts or rejects on demand,
 * remembers the (client-tagged) ids it accepted, and fires its
 * response/wake callbacks only when told to.
 */
class ScriptedEngine : public TranslationEngine
{
  public:
    bool accept = true;
    std::vector<std::uint64_t> accepted;

    bool
    translate(Addr, std::uint64_t id) override
    {
        if (accept)
            accepted.push_back(id);
        return accept;
    }

    void
    setResponseCallback(ResponseCallback cb) override
    {
        _respond = std::move(cb);
    }

    void setWakeCallback(WakeCallback cb) override { _wake = std::move(cb); }

    const MmuCounts &counts() const override { return _counts; }

    /** Complete the @p i-th accepted request. */
    void
    respond(std::size_t i)
    {
        TranslationResponse resp;
        resp.id = accepted.at(i);
        _respond(resp);
    }

    void wake() { _wake(); }

  private:
    ResponseCallback _respond;
    WakeCallback _wake;
    MmuCounts _counts;
};

/** Records the order in which router ports are woken. */
struct WakeLog
{
    std::vector<unsigned> order;

    void
    attach(TranslationRouter &router)
    {
        for (unsigned c = 0; c < router.numClients(); c++) {
            router.port(c).setResponseCallback(
                [](const TranslationResponse &) {});
            router.port(c).setWakeCallback(
                [this, c] { order.push_back(c); });
        }
    }
};

} // namespace

TEST(TranslationRouter, ClientNeverRejectedGetsNoWake)
{
    ScriptedEngine engine;
    TranslationRouter router(engine, 4, RouterPolicy::Shared, 8);
    WakeLog log;
    log.attach(router);

    ASSERT_TRUE(router.port(0).translate(0x1000, 0));
    ASSERT_TRUE(router.port(2).translate(0x2000, 0));
    engine.accept = false;
    ASSERT_FALSE(router.port(1).translate(0x3000, 0));

    engine.wake();
    EXPECT_EQ(log.order, std::vector<unsigned>({1}));

    // The wake cleared client 1's waiting mark: with no new
    // rejection, the next broadcast wakes nobody.
    engine.wake();
    EXPECT_EQ(log.order, std::vector<unsigned>({1}));

    // A fresh rejection makes it wait again.
    ASSERT_FALSE(router.port(1).translate(0x3000, 1));
    engine.wake();
    EXPECT_EQ(log.order, std::vector<unsigned>({1, 1}));
}

TEST(TranslationRouter, WaitingClientsWakeDeepestBacklogFirst)
{
    ScriptedEngine engine;
    TranslationRouter router(engine, 6, RouterPolicy::Shared, 64);
    WakeLog log;
    log.attach(router);

    // In flight per client: 1, 3, 3, 0, 2, 5.
    const unsigned depth[] = {1, 3, 3, 0, 2, 5};
    for (unsigned c = 0; c < 6; c++) {
        for (unsigned i = 0; i < depth[c]; i++)
            ASSERT_TRUE(router.port(c).translate(0x1000, i));
    }
    // Clients 0-4 get rejected; client 5, the deepest, never does.
    engine.accept = false;
    for (unsigned c : {3u, 0u, 4u, 2u, 1u})
        ASSERT_FALSE(router.port(c).translate(0x1000, 99));

    engine.wake();
    // In-flight descending, ties by client index; client 5 skipped.
    EXPECT_EQ(log.order, std::vector<unsigned>({1, 2, 4, 0, 3}));
}

TEST(TranslationRouter, CapBlockedClientWakesOnResponseAndBroadcast)
{
    ScriptedEngine engine;
    // Walker budget 4 over 2 clients: a cap of 2 each.
    TranslationRouter router(engine, 2, RouterPolicy::Partitioned, 4);
    ASSERT_EQ(router.perClientCap(), 2u);
    WakeLog log;
    log.attach(router);

    ASSERT_TRUE(router.port(0).translate(0x1000, 0));
    ASSERT_TRUE(router.port(0).translate(0x2000, 1));
    ASSERT_FALSE(router.port(0).translate(0x3000, 2));
    EXPECT_EQ(router.capRejections(0), 1u);

    // Its own completion brings it below the cap: woken.
    engine.respond(0);
    EXPECT_EQ(log.order, std::vector<unsigned>({0}));

    // Capped again; this time a broadcast reaches it first.
    ASSERT_TRUE(router.port(0).translate(0x3000, 2));
    ASSERT_FALSE(router.port(0).translate(0x4000, 3));
    engine.wake();
    EXPECT_EQ(log.order, std::vector<unsigned>({0, 0}));
    engine.wake();
    EXPECT_EQ(log.order, std::vector<unsigned>({0, 0}));

    // The cap rejection is still pending its below-cap wake.
    engine.respond(1);
    EXPECT_EQ(log.order, std::vector<unsigned>({0, 0, 0}));
    EXPECT_EQ(router.capRejections(0), 2u);
}

TEST(TranslationRouter, WakeOrderFollowsInflightChangesWhileWaiting)
{
    ScriptedEngine engine;
    TranslationRouter router(engine, 4, RouterPolicy::Shared, 64);
    WakeLog log;
    log.attach(router);

    // In flight: client 0 one, client 1 two, client 2 three.
    const unsigned depth[] = {1, 2, 3};
    for (unsigned c = 0; c < 3; c++) {
        for (unsigned i = 0; i < depth[c]; i++)
            ASSERT_TRUE(router.port(c).translate(0x1000, i));
    }
    engine.accept = false;
    for (unsigned c = 0; c < 4; c++)
        ASSERT_FALSE(router.port(c).translate(0x2000, 9));

    // While they wait, client 2 drains (accepted[3..5] are its) and
    // client 3 gets two requests accepted.
    for (std::size_t i = 3; i < 6; i++)
        engine.respond(i);
    engine.accept = true;
    ASSERT_TRUE(router.port(3).translate(0x3000, 10));
    ASSERT_TRUE(router.port(3).translate(0x3000, 11));

    engine.wake();
    // In flight now: 1, 2, 0, 2 -> clients 1 and 3 tie, then 0, 2.
    EXPECT_EQ(log.order, std::vector<unsigned>({1, 3, 0, 2}));
}

namespace {

/**
 * A client with one blocked request at a time. A wake-retrying client
 * declares itself and retries inside the wake, probing first, the way
 * a hub bridge replays its parked queue; a deferred one retries a
 * cycle later, the way a DMA does.
 */
class RetryClient
{
  public:
    RetryClient(TranslationEngine &port, EventQueue &eq,
                bool retries_in_wake)
        : _port(port), _eq(eq)
    {
        _port.setResponseCallback(
            [this](const TranslationResponse &) { responses++; });
        _port.setWakeCallback([this, retries_in_wake] {
            wakes++;
            if (retries_in_wake)
                retry();
            else
                _eq.scheduleIn(1, [this] { retry(); });
        });
        if (retries_in_wake)
            _port.declareWakeRetry();
    }

    /** Issue @p va now, unprobed, as a bridge's ingress does; true
     *  when accepted. */
    bool
    issue(Addr va)
    {
        _va = va;
        _blocked = !_port.translate(_va, _nextId);
        if (!_blocked)
            _nextId++;
        return !_blocked;
    }

    bool blocked() const { return _blocked; }

    unsigned wakes = 0;
    unsigned responses = 0;

  private:
    bool
    retry()
    {
        if (!_blocked || !_port.admits(_va) ||
            !_port.translate(_va, _nextId))
            return false;
        _blocked = false;
        _nextId++;
        return true;
    }

    TranslationEngine &_port;
    EventQueue &_eq;
    Addr _va = invalidAddr;
    bool _blocked = false;
    std::uint64_t _nextId = 0;
};

/** A small cold walker core: 4-level walks finish 405 ticks in. */
MmuConfig
tinyCore(unsigned walkers, unsigned prmb_slots)
{
    MmuConfig cfg;
    cfg.numPtws = walkers;
    cfg.prmbSlots = prmb_slots;
    return cfg;
}

} // namespace

TEST(TranslationRouter, WakeRetryingClientSkippedWhileRefusalHolds)
{
    Harness h;
    MmuCore mmu("mmu", h.eq, h.pt, tinyCore(1, 0));
    TranslationRouter router(mmu, 3, RouterPolicy::Shared, 1);
    const Segment seg = h.segment("s", 3);
    RetryClient owner(router.port(0), h.eq, true);
    RetryClient first(router.port(1), h.eq, true);
    RetryClient second(router.port(2), h.eq, true);

    ASSERT_TRUE(owner.issue(seg.base));
    ASSERT_FALSE(first.issue(seg.base + 4096));
    ASSERT_FALSE(second.issue(seg.base + 2 * 4096));

    // The first walk ends: the first waiter takes the freed walker,
    // and the second, whose page nobody touched, is not called.
    h.eq.run(405);
    EXPECT_EQ(first.wakes, 1u);
    EXPECT_FALSE(first.blocked());
    EXPECT_EQ(second.wakes, 0u);
    EXPECT_TRUE(second.blocked());

    // It still waits, so the next freed walker reaches it.
    h.eq.run();
    EXPECT_EQ(second.wakes, 1u);
    EXPECT_EQ(second.responses, 1u);
    // One rejection, then one accepted retry: no polls in between.
    EXPECT_EQ(router.clientCounts(2).requests, 2u);
    EXPECT_EQ(router.clientCounts(2).blockedIssues, 1u);
}

TEST(TranslationRouter, WakeRetryingClientCalledOnceItsPageWalksOrFills)
{
    Harness h;
    // One walker, one PRMB slot per walk.
    MmuCore mmu("mmu", h.eq, h.pt, tinyCore(1, 1));
    TranslationRouter router(mmu, 5, RouterPolicy::Shared, 1);
    const Segment seg = h.segment("s", 3);
    const Addr a = seg.base, b = seg.base + 4096, c = seg.base + 8192;
    RetryClient owner(router.port(0), h.eq, true);
    RetryClient walker(router.port(1), h.eq, true);
    RetryClient filled(router.port(2), h.eq, true);
    RetryClient merged(router.port(3), h.eq, true);
    RetryClient untouched(router.port(4), h.eq, true);

    // The walk on a holds the walker and its one PRMB slot.
    ASSERT_TRUE(owner.issue(a));
    ASSERT_TRUE(router.port(0).translate(a, 100));
    ASSERT_FALSE(walker.issue(b));    // no walker
    ASSERT_FALSE(filled.issue(a));    // PRMB full
    ASSERT_FALSE(merged.issue(b));    // no walker
    ASSERT_FALSE(untouched.issue(c)); // no walker

    // a's walk ends and fills the TLB; the first waiter starts a walk
    // on b and takes the walker. With no walker free, a's waiter is
    // called because a entered the TLB, b's because b's walk started
    // (it merges into the PRMB), and c's waiter is skipped.
    h.eq.run(405);
    EXPECT_EQ(walker.wakes, 1u);
    EXPECT_FALSE(walker.blocked());
    EXPECT_EQ(filled.wakes, 1u);
    EXPECT_FALSE(filled.blocked());
    EXPECT_EQ(merged.wakes, 1u);
    EXPECT_FALSE(merged.blocked());
    EXPECT_EQ(mmu.counts().prmbMerges, 2u);
    EXPECT_EQ(untouched.wakes, 0u);
    EXPECT_TRUE(untouched.blocked());

    h.eq.run();
    EXPECT_EQ(untouched.responses, 1u);
}

TEST(TranslationRouter, DeferredClientWokenOnEveryWake)
{
    Harness h;
    MmuCore mmu("mmu", h.eq, h.pt, tinyCore(1, 0));
    TranslationRouter router(mmu, 4, RouterPolicy::Shared, 1);
    const Segment seg = h.segment("s", 4);
    RetryClient owner(router.port(0), h.eq, true);
    RetryClient taker(router.port(1), h.eq, true);
    RetryClient deferred(router.port(2), h.eq, false);
    RetryClient skipped(router.port(3), h.eq, true);

    ASSERT_TRUE(owner.issue(seg.base));
    ASSERT_FALSE(taker.issue(seg.base + 4096));
    ASSERT_FALSE(deferred.issue(seg.base + 2 * 4096));
    ASSERT_FALSE(skipped.issue(seg.base + 3 * 4096));

    // First wake: the taker takes the walker. The deferred client is
    // woken anyway (its retry a cycle later is rejected again); the
    // wake-retrying one behind it is not.
    h.eq.run(406);
    EXPECT_EQ(taker.wakes, 1u);
    EXPECT_EQ(deferred.wakes, 1u);
    EXPECT_TRUE(deferred.blocked());
    EXPECT_EQ(skipped.wakes, 0u);

    // Second wake: the deferred client goes first but retries late,
    // so the walker it would have had goes to the other waiter; the
    // third wake finally lets it in.
    h.eq.run();
    EXPECT_EQ(deferred.wakes, 3u);
    EXPECT_EQ(skipped.wakes, 1u);
    EXPECT_EQ(deferred.responses, 1u);
    EXPECT_EQ(skipped.responses, 1u);
}

namespace {

/** ScriptedEngine whose admits() answers separately. */
class ProbedEngine : public ScriptedEngine
{
  public:
    bool admitting = false;

    bool admits(Addr) override { return admitting; }
};

/** A deferred-retry client that logs the calls its port makes. */
class DeferredLog : public DeferredRetryClient
{
  public:
    explicit DeferredLog(EventQueue &eq) : _eq(eq) {}

    /** "<call> woken=<tick> at=<tick>" or "retriesRefused count=<n>
     *  last=<tick> at=<tick>", one per call. */
    std::vector<std::string> calls;
    bool blocked = true;

    bool awaitingWake() const override { return blocked; }
    bool recordsAttempts() const override { return false; }
    void retryAdmitted(Tick woken) override { log("admitted", woken); }
    void
    retriesRefused(std::uint64_t count, Tick last_woken) override
    {
        calls.push_back("retriesRefused count=" + std::to_string(count) +
                        " last=" + std::to_string(last_woken) +
                        " at=" + std::to_string(_eq.now()));
    }
    void chargeWait(Tick woken) override { log("charged", woken); }

  private:
    void
    log(const char *call, Tick woken)
    {
        calls.push_back(std::string(call) + " woken=" +
                        std::to_string(woken) +
                        " at=" + std::to_string(_eq.now()));
    }

    EventQueue &_eq;
};

} // namespace

TEST(TranslationRouter, DeferredClientRetriesFromItsPortsRound)
{
    EventQueue eq;
    RetryRound round(eq);
    ProbedEngine engine;
    TranslationRouter router(engine, 2, RouterPolicy::Shared, 8,
                             "router", &eq);
    DeferredLog client(eq);
    unsigned wakes = 0;
    router.port(0).setWakeCallback([&wakes] { wakes++; });
    router.port(0).declareDeferredRetry(client, round);

    engine.accept = false;
    ASSERT_FALSE(router.port(0).translate(0x1000, 0));
    // Refused at the round after the wake at 10: back on the list,
    // so the wake at 20 reaches it again and this time it is let in.
    // Handed its retry, it waits no more: the wake at 30 skips it.
    eq.schedule(10, [&] { engine.wake(); });
    eq.schedule(20, [&] {
        engine.admitting = true;
        engine.wake();
    });
    eq.schedule(30, [&] { engine.wake(); });
    eq.run();
    EXPECT_EQ(client.calls,
              (std::vector<std::string>{
                  "retriesRefused count=1 last=10 at=11",
                  "admitted woken=20 at=21"}));
    // The port never calls the wake callback of a deferred client.
    EXPECT_EQ(wakes, 0u);

    // A run that stops between the wake and the round charges the
    // wait up to the wake.
    ASSERT_FALSE(router.port(0).translate(0x1000, 1));
    eq.schedule(40, [&] { engine.wake(); });
    eq.run(40);
    router.chargePendingWaits();
    EXPECT_EQ(client.calls.back(), "charged woken=40 at=40");
}

TEST(TranslationRouterDeathTest, DeferredClientMustBeBlockedAtItsRound)
{
    EventQueue eq;
    RetryRound round(eq);
    ProbedEngine engine;
    TranslationRouter router(engine, 1, RouterPolicy::Shared, 8,
                             "router", &eq);
    DeferredLog client(eq);
    router.port(0).declareDeferredRetry(client, round);
    engine.accept = false;
    ASSERT_FALSE(router.port(0).translate(0x1000, 0));
    engine.wake();
    client.blocked = false;
    EXPECT_DEATH(eq.run(), "not blocked on a wake");
}

namespace {

/** ProbedEngine that can prove its refusals hold and report pages to
 *  the router's admit watch, as the test says. */
class HoldingEngine : public ProbedEngine
{
  public:
    bool holding = false;

    void setAdmitWatch(PageCallback cb) override { _watch = std::move(cb); }
    bool refusalsHold() const override { return holding && _watch; }
    /** The page of @p va may now admit its waiters. */
    void report(Addr va) { _watch(va >> 12, 12); }

  private:
    PageCallback _watch;
};

} // namespace

TEST(TranslationRouter, ParkedRoundsSettleAsOneCallBeforeTheVisit)
{
    EventQueue eq;
    RetryRound round(eq);
    HoldingEngine engine;
    TranslationRouter router(engine, 2, RouterPolicy::Shared, 8,
                             "router", &eq);
    DeferredLog client(eq);
    router.port(0).declareDeferredRetry(client, round);

    engine.accept = false;
    engine.holding = true;
    ASSERT_FALSE(router.port(0).translate(0x1000, 0));
    // The rounds at 11, 21 and 31 find the refusal proven: the port
    // stays parked and the client hears nothing.
    for (const Tick at : {10u, 20u, 30u})
        eq.schedule(at, [&] { engine.wake(); });
    eq.run(35);
    EXPECT_TRUE(client.calls.empty());
    EXPECT_EQ(router.parkedRefusals(), 3u);
    EXPECT_EQ(router.roundVisits(), 0u);

    // Its page is reported: the round at 41 visits it, settling the
    // three parked rounds in one call first.
    eq.schedule(40, [&] {
        engine.report(0x1000);
        engine.admitting = true;
        engine.wake();
    });
    eq.run();
    EXPECT_EQ(client.calls,
              (std::vector<std::string>{
                  "retriesRefused count=3 last=30 at=41",
                  "admitted woken=40 at=41"}));
    EXPECT_EQ(router.roundVisits(), 1u);
}

TEST(TranslationRouter, ParkedDmaIsChargedAsIfEveryRoundRefusedIt)
{
    EventQueue eq;
    RetryRound round(eq);
    HoldingEngine engine;
    MemoryModel mem("mem", MemoryConfig{});
    TranslationRouter router(engine, 1, RouterPolicy::Shared, 8,
                             "router", &eq);
    DmaEngine dma("dma", eq, router.port(0), mem, DmaConfig{}, round);
    Tick done = 0;

    engine.accept = false;
    engine.holding = true;
    dma.fetch({VaRun{0x1000, 1024}}, [&done](Tick at) { done = at; });
    for (const Tick at : {10u, 20u, 30u})
        eq.schedule(at, [&] { engine.wake(); });
    eq.schedule(40, [&] {
        engine.report(0x1000);
        engine.admitting = engine.accept = true;
        engine.wake();
    });
    eq.schedule(50, [&] { engine.respond(0); });
    eq.run();
    // Blocked from 0; refused rounds at 11, 21 and 31 each charge up
    // to their wake, (10 - 0) + (20 - 11) + (30 - 21) = 28, and the
    // round at 41 charges 40 - 31 = 9 before its retry is let in.
    EXPECT_EQ(router.parkedRefusals(), 3u);
    EXPECT_EQ(dma.stallCycles(), 37u);
    EXPECT_EQ(dma.translationsIssued(), 1u);
    // Ids 0-3 were burned by the refusals: the admitted retry is id 4.
    ASSERT_EQ(engine.accepted.size(), 1u);
    EXPECT_EQ(engine.accepted[0], 4u);
    EXPECT_GT(done, 50u);
}

TEST(TranslationRouterDeathTest, ParkedClientMustBeBlockedWhenSettled)
{
    EventQueue eq;
    RetryRound round(eq);
    HoldingEngine engine;
    TranslationRouter router(engine, 1, RouterPolicy::Shared, 8,
                             "router", &eq);
    DeferredLog client(eq);
    router.port(0).declareDeferredRetry(client, round);
    engine.accept = false;
    engine.holding = true;
    ASSERT_FALSE(router.port(0).translate(0x1000, 0));
    engine.wake();
    eq.run();
    ASSERT_EQ(router.parkedRefusals(), 1u);
    client.blocked = false;
    engine.report(0x1000);
    engine.wake();
    EXPECT_DEATH(eq.run(), "parked port's client is not blocked");
}

TEST(TranslationRouterDeathTest, TraceCannotBeAttachedWhileTheDmaWaits)
{
    // The router reads recordsAttempts() at a refusal: a hook attached
    // while the DMA waits would miss the rounds it is parked through.
    EventQueue eq;
    RetryRound round(eq);
    HoldingEngine engine;
    MemoryModel mem("mem", MemoryConfig{});
    TranslationRouter router(engine, 1, RouterPolicy::Shared, 8,
                             "router", &eq);
    DmaEngine dma("dma", eq, router.port(0), mem, DmaConfig{}, round);
    dma.setTraceHook([](Tick, Addr, std::uint64_t, bool) {});
    engine.accept = false;
    engine.holding = true;
    dma.fetch({VaRun{0x1000, 1024}}, [](Tick) {});
    eq.run(5);
    EXPECT_DEATH(dma.setTraceHook(nullptr),
                 "trace hook changed while the DMA waits on a wake");
    EXPECT_DEATH(dma.setTrace(nullptr, 0),
                 "trace buffer changed while the DMA waits on a wake");
}

namespace {

/**
 * A walker-pool engine small enough to script: a few walkers, a small
 * merge buffer per walk and a FIFO TLB, with walk and hit latencies
 * drawn from its own seeded stream. It keeps MmuCore's admission
 * contract: admits() is exact, a refusal touches nothing, and every
 * page a walk starts on or the TLB takes is reported to the admit
 * watch, so refusals hold while no walker is free. With @c prefetch
 * set, a finished demand walk starts a speculative walk of the next
 * page on the freed walker before it wakes anyone, as MmuCore's
 * prefetcher does: refusals then already hold when the wake begins.
 */
class ContractEngine : public TranslationEngine
{
  public:
    /** One translate() call, with the router's client tag split off. */
    struct Call
    {
        Tick tick;
        unsigned client;
        std::uint64_t id;
        bool accepted;

        bool
        operator==(const Call &o) const
        {
            return tick == o.tick && client == o.client && id == o.id &&
                   accepted == o.accepted;
        }
    };

    ContractEngine(EventQueue &eq, unsigned walkers, unsigned merge_slots,
                   std::size_t tlb_entries, bool prefetch,
                   std::uint64_t seed)
        : _eq(eq), _freeWalkers(walkers), _mergeSlots(merge_slots),
          _tlbEntries(tlb_entries), _prefetch(prefetch), _rng(seed)
    {
    }

    std::vector<Call> calls;

    bool
    admits(Addr va) override
    {
        const Addr vpn = va >> 12;
        if (inTlb(vpn))
            return true;
        // A speculative walk has no initiator: its first request
        // takes the initiator's place, not a merge slot.
        const auto walk = _walks.find(vpn);
        if (walk != _walks.end())
            return walk->second.size() <= _mergeSlots;
        return _freeWalkers > 0;
    }

    bool
    translate(Addr va, std::uint64_t id) override
    {
        const bool ok = admits(va);
        calls.push_back(Call{_eq.now(), unsigned(id >> 56),
                             id & ((std::uint64_t(1) << 56) - 1), ok});
        if (!ok)
            return false;
        const TranslationResponse resp{id, va, va};
        const Addr vpn = va >> 12;
        if (inTlb(vpn)) {
            _eq.scheduleIn(1 + _rng() % 3, [this, resp] { _respond(resp); });
            return true;
        }
        const auto walk = _walks.find(vpn);
        if (walk != _walks.end()) {
            walk->second.push_back(resp);
            return true;
        }
        _walks[vpn].push_back(resp);
        startWalk(vpn);
        return true;
    }

    void setAdmitWatch(PageCallback cb) override { _watch = std::move(cb); }
    bool refusalsHold() const override { return _watch && _freeWalkers == 0; }
    void
    setResponseCallback(ResponseCallback cb) override
    {
        _respond = std::move(cb);
    }
    void setWakeCallback(WakeCallback cb) override { _wake = std::move(cb); }
    const MmuCounts &counts() const override { return _counts; }

  private:
    bool
    inTlb(Addr vpn) const
    {
        return std::find(_tlb.begin(), _tlb.end(), vpn) != _tlb.end();
    }

    void
    report(Addr vpn)
    {
        if (_watch)
            _watch(vpn, 12);
    }

    void
    startWalk(Addr vpn)
    {
        _freeWalkers--;
        report(vpn);
        _eq.scheduleIn(20 + _rng() % 60, [this, vpn] { finishWalk(vpn); });
    }

    void
    finishWalk(Addr vpn)
    {
        const std::vector<TranslationResponse> pending =
            std::move(_walks[vpn]);
        _walks.erase(vpn);
        _tlb.push_back(vpn);
        if (_tlb.size() > _tlbEntries)
            _tlb.erase(_tlb.begin());
        report(vpn);
        // The merged requests drain one per cycle, as a PRMB does.
        Tick at = 0;
        for (const TranslationResponse &resp : pending)
            _eq.scheduleIn(at++, [this, resp] { _respond(resp); });
        _freeWalkers++;
        const Addr next = vpn + 1;
        if (_prefetch && !pending.empty() && !inTlb(next) &&
            _walks.find(next) == _walks.end()) {
            _walks[next];
            startWalk(next);
        }
        _wake();
    }

    EventQueue &_eq;
    unsigned _freeWalkers;
    unsigned _mergeSlots;
    std::size_t _tlbEntries;
    bool _prefetch;
    std::mt19937_64 _rng;
    std::vector<Addr> _tlb;
    std::map<Addr, std::vector<TranslationResponse>> _walks;
    PageCallback _watch;
    ResponseCallback _respond;
    WakeCallback _wake;
    MmuCounts _counts;
};

std::ostream &
operator<<(std::ostream &os, const ContractEngine::Call &c)
{
    return os << "{t=" << c.tick << " c" << c.client << " id=" << c.id
              << (c.accepted ? " ok" : " rejected") << "}";
}

/**
 * The router's algorithm before parking, kept as the reference: every
 * waiting port is woken at every wake, in wake order, and every
 * deferred-retry port joins the RetryRound itself and is probed at
 * every round, its refusal handed over at once.
 */
class ReferenceRouter
{
  public:
    ReferenceRouter(TranslationEngine &engine, unsigned num_clients,
                    RouterPolicy policy, unsigned walker_budget)
        : _engine(engine), _policy(policy),
          _cap(walker_budget >= num_clients ? walker_budget / num_clients
                                            : 1)
    {
        for (unsigned c = 0; c < num_clients; c++)
            _ports.push_back(std::make_unique<Port>(*this, c));
        _engine.setResponseCallback(
            [this](const TranslationResponse &resp) { onResponse(resp); });
        _engine.setWakeCallback([this] { onWake(); });
    }

    TranslationEngine &port(unsigned c) { return *_ports[c]; }
    std::uint64_t capRejections(unsigned c) const
    {
        return _ports[c]->capRejections;
    }
    const MmuCounts &clientCounts(unsigned c) const
    {
        return _ports[c]->counts();
    }

    void
    chargePendingWaits()
    {
        for (const auto &port : _ports) {
            if (port->deferred && port->inRetryRound())
                port->deferred->chargeWait(port->wokenAt);
        }
    }

  private:
    struct Port final : public TranslationEngine, public RetryMember
    {
        Port(ReferenceRouter &router, unsigned client)
            : router(router), client(client)
        {
        }

        bool
        translate(Addr va, std::uint64_t id) override
        {
            return router.tryTranslate(*this, va, id);
        }
        bool admits(Addr va) override { return router.probe(*this, va); }
        void
        declareWakeRetry() override
        {
            retriesInWake = true;
            router.watch();
        }
        void
        declareDeferredRetry(DeferredRetryClient &c, RetryRound &r) override
        {
            deferred = &c;
            round = &r;
        }
        void
        setResponseCallback(ResponseCallback cb) override
        {
            respond = std::move(cb);
        }
        void
        setWakeCallback(WakeCallback cb) override
        {
            wake = std::move(cb);
        }
        const MmuCounts &counts() const override { return mmuCounts; }
        void retry() override { router.retryDeferred(*this); }

        ReferenceRouter &router;
        unsigned client;
        bool capBlocked = false, waiting = false, retriesInWake = false;
        bool reported = false;
        std::uint64_t inflight = 0, capRejections = 0;
        Addr refusedVa = invalidAddr;
        DeferredRetryClient *deferred = nullptr;
        RetryRound *round = nullptr;
        Tick wokenAt = 0;
        ResponseCallback respond;
        WakeCallback wake;
        MmuCounts mmuCounts;
    };

    void
    watch()
    {
        _engine.setAdmitWatch([this](Addr vpn, unsigned shift) {
            for (const auto &port : _ports) {
                if ((port->refusedVa >> shift) == vpn)
                    port->reported = true;
            }
        });
    }

    void
    refuse(Port &port, Addr va)
    {
        port.refusedVa = va;
        port.reported = false;
        if (!port.waiting) {
            port.waiting = true;
            _waiting.push_back(&port);
        }
    }

    bool
    tryTranslate(Port &port, Addr va, std::uint64_t id)
    {
        port.mmuCounts.requests++;
        if (_policy == RouterPolicy::Partitioned && port.inflight >= _cap) {
            port.capRejections++;
            port.mmuCounts.blockedIssues++;
            port.capBlocked = true;
            refuse(port, va);
            return false;
        }
        if (!_engine.translate(va, (std::uint64_t(port.client) << 56) | id)) {
            port.mmuCounts.blockedIssues++;
            refuse(port, va);
            return false;
        }
        port.inflight++;
        return true;
    }

    bool
    probe(Port &port, Addr va)
    {
        if (_policy == RouterPolicy::Partitioned && port.inflight >= _cap)
            return true;
        if (_engine.admits(va))
            return true;
        refuse(port, va);
        return false;
    }

    void
    onResponse(const TranslationResponse &resp)
    {
        Port &port = *_ports[resp.id >> 56];
        port.inflight--;
        port.mmuCounts.responses++;
        TranslationResponse untagged = resp;
        untagged.id &= (std::uint64_t(1) << 56) - 1;
        port.respond(untagged);
        if (port.capBlocked && port.inflight < _cap) {
            port.capBlocked = false;
            const bool waiting = port.waiting;
            port.waiting = false;
            _waiting.erase(
                std::remove(_waiting.begin(), _waiting.end(), &port),
                _waiting.end());
            if (port.deferred) {
                if (waiting)
                    defer(port);
            } else if (port.wake) {
                port.wake();
            }
        }
    }

    void
    defer(Port &port)
    {
        port.wokenAt = port.round->eventQueue().now();
        port.round->join(port);
    }

    void
    retryDeferred(Port &port)
    {
        ASSERT_TRUE(port.deferred->awaitingWake());
        if (probe(port, port.refusedVa))
            port.deferred->retryAdmitted(port.wokenAt);
        else
            port.deferred->retriesRefused(1, port.wokenAt);
    }

    void
    onWake()
    {
        std::vector<Port *> order;
        order.swap(_waiting);
        std::stable_sort(order.begin(), order.end(),
                         [](const Port *a, const Port *b) {
                             return a->inflight != b->inflight
                                        ? a->inflight > b->inflight
                                        : a->client < b->client;
                         });
        for (Port *port : order) {
            port->waiting = false;
            if (port->retriesInWake && !port->capBlocked &&
                !port->reported && _engine.refusalsHold()) {
                port->waiting = true;
                _waiting.push_back(port);
            } else if (port->deferred) {
                defer(*port);
            } else if (port->wake) {
                port->wake();
            }
        }
    }

    TranslationEngine &_engine;
    RouterPolicy _policy;
    unsigned _cap;
    std::vector<std::unique_ptr<Port>> _ports;
    std::vector<Port *> _waiting;
};

/**
 * A hub-bridge-like client: requests arrive at random ticks and queue
 * behind any parked one; a wake replays the queue, probing first.
 */
class ReplayClient
{
  public:
    ReplayClient(TranslationEngine &port, EventQueue &eq, Addr base,
                 std::uint64_t seed)
        : _port(port), _eq(eq), _base(base), _rng(seed)
    {
        _port.setResponseCallback(
            [this](const TranslationResponse &) { responses++; });
        _port.setWakeCallback([this] { replay(); });
        _port.declareWakeRetry();
    }

    void
    arrive()
    {
        _queue.push_back(_base + (_rng() % 16) * 4096);
        if (_queue.size() == 1 && _port.translate(_queue.front(), _nextId)) {
            _queue.pop_front();
            _nextId++;
        }
        _eq.scheduleIn(5 + _rng() % 40, [this] { arrive(); });
    }

    unsigned responses = 0;

  private:
    void
    replay()
    {
        while (!_queue.empty() && _port.admits(_queue.front()) &&
               _port.translate(_queue.front(), _nextId)) {
            _queue.pop_front();
            _nextId++;
        }
    }

    TranslationEngine &_port;
    EventQueue &_eq;
    Addr _base;
    std::mt19937_64 _rng;
    std::deque<Addr> _queue;
    std::uint64_t _nextId = 0;
};

/** What one scripted run leaves behind, per client. */
struct ContractRun
{
    std::vector<ContractEngine::Call> calls;
    /** Each DMA's stall at each stop, after chargePendingWaits(). */
    std::vector<std::uint64_t> stalls;
    std::vector<std::uint64_t> issued;
    std::vector<std::uint64_t> capRejections;
    std::vector<std::uint64_t> requests;
    /** The recording DMA's attempts, as (tick, accepted). */
    std::vector<std::pair<Tick, bool>> recorded;
    std::vector<unsigned> bridgeResponses;
    std::uint64_t parked = 0;
};

constexpr unsigned contractDmas = 6;
/** The replaying clients' ports, between the DMAs' in client order,
 *  so that wakes put DMAs before, between and after them. */
constexpr std::array<unsigned, 2> contractBridges{2, 5};

/**
 * Six DMAs and two replaying clients behind @p Router over a
 * ContractEngine of three walkers, each DMA fetching one to three
 * random pages of a 16-page pool again and again; the last DMA
 * records its attempts. Odd seeds cap each client at two requests in
 * flight; seeds 2, 3, 6, 7, 10, ... prefetch, so that on 3, 7, ...
 * a cap-blocked bridge (first in wake order, holding the most
 * requests in flight) meets refusals that hold from the wake's start.
 * The run stops at a few random ticks, charging the pending waits as
 * System::run does.
 */
template <typename Router>
ContractRun
runContract(std::uint64_t seed)
{
    EventQueue eq;
    RetryRound round(eq);
    MemoryModel mem("mem", MemoryConfig{});
    std::mt19937_64 rng(seed);
    ContractEngine engine(eq, 3, unsigned(1 + seed % 2), 4,
                          (seed / 2) % 2 == 1, rng());
    const unsigned clients = contractDmas + unsigned(contractBridges.size());
    const RouterPolicy policy =
        seed % 2 ? RouterPolicy::Partitioned : RouterPolicy::Shared;
    Router router(engine, clients, policy, 2 * clients);

    ContractRun run;
    std::vector<std::unique_ptr<DmaEngine>> dmas;
    std::vector<std::mt19937_64> streams;
    std::vector<std::function<void()>> fetchers(contractDmas);
    const Addr base = Addr(1) << 30;
    for (unsigned c = 0; c < clients; c++) {
        if (std::find(contractBridges.begin(), contractBridges.end(), c) !=
            contractBridges.end())
            continue;
        dmas.push_back(std::make_unique<DmaEngine>(
            "dma" + std::to_string(c), eq, router.port(c), mem,
            DmaConfig{}, round));
        streams.emplace_back(rng());
    }
    dmas.back()->setTraceHook(
        [&run](Tick at, Addr, std::uint64_t, bool accepted) {
            run.recorded.emplace_back(at, accepted);
        });
    for (unsigned i = 0; i < contractDmas; i++) {
        fetchers[i] = [&, i] {
            std::vector<VaRun> runs;
            const unsigned pages = unsigned(1 + streams[i]() % 3);
            for (unsigned p = 0; p < pages; p++)
                runs.push_back(
                    VaRun{base + (streams[i]() % 16) * 4096, 4096});
            dmas[i]->fetch(std::move(runs), [&, i](Tick) {
                eq.scheduleIn(streams[i]() % 30, [&, i] { fetchers[i](); });
            });
        };
        eq.schedule(streams[i]() % 20, [&, i] { fetchers[i](); });
    }
    std::vector<std::unique_ptr<ReplayClient>> bridges;
    for (const unsigned c : contractBridges) {
        bridges.push_back(std::make_unique<ReplayClient>(
            router.port(c), eq, base, rng()));
        ReplayClient &bridge = *bridges.back();
        eq.schedule(rng() % 20, [&bridge] { bridge.arrive(); });
    }

    std::vector<Tick> stops;
    for (unsigned s = 0; s < 3; s++)
        stops.push_back(1000 + rng() % 8000);
    std::sort(stops.begin(), stops.end());
    stops.push_back(12000);
    for (const Tick stop : stops) {
        eq.run(stop);
        router.chargePendingWaits();
        for (const auto &dma : dmas)
            run.stalls.push_back(dma->stallCycles());
    }

    run.calls = engine.calls;
    for (unsigned c = 0; c < clients; c++) {
        run.capRejections.push_back(router.capRejections(c));
        run.requests.push_back(router.clientCounts(c).requests);
    }
    for (const auto &dma : dmas)
        run.issued.push_back(dma->translationsIssued());
    for (const auto &bridge : bridges)
        run.bridgeResponses.push_back(bridge->responses);
    if constexpr (std::is_same_v<Router, TranslationRouter>)
        run.parked = router.parkedRefusals();
    return run;
}

} // namespace

TEST(TranslationRouter, ParkingMatchesVisitingEveryMemberEveryRound)
{
    std::uint64_t parked = 0, caps = 0;
    for (std::uint64_t seed = 1; seed <= 10; seed++) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const ContractRun ref = runContract<ReferenceRouter>(seed);
        const ContractRun got = runContract<TranslationRouter>(seed);
        // Same admissions, ids and rejections, in the same order...
        ASSERT_EQ(got.calls, ref.calls);
        // ...the same stall at every stop, issue counts, cap
        // rejections and attempt counts per client...
        EXPECT_EQ(got.stalls, ref.stalls);
        EXPECT_EQ(got.issued, ref.issued);
        EXPECT_EQ(got.capRejections, ref.capRejections);
        EXPECT_EQ(got.requests, ref.requests);
        // ...and the recording DMA saw every refused round.
        EXPECT_EQ(got.recorded, ref.recorded);
        EXPECT_EQ(got.bridgeResponses, ref.bridgeResponses);
        parked += got.parked;
        for (const std::uint64_t c : got.capRejections)
            caps += c;
    }
    // The runs exercised what the comparison is about.
    EXPECT_GT(parked, 1000u);
    EXPECT_GT(caps, 100u);
}
