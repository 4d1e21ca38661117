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
