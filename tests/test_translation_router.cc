/**
 * @file
 * QoS properties of the TranslationRouter (Section IV-B future work):
 * under Partitioned, a bursty client can never hold more than its
 * walker share while a quiet client keeps making progress; under
 * Shared, the starvation case the paper warns about is real and
 * observable at the issue port.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mmu/mmu_core.hh"
#include "mmu/translation_router.hh"
#include "sim/event_queue.hh"
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
