/**
 * @file
 * Tests for the hop model: DomainRuntime mechanics (exact-tick
 * cross-queue delivery, sender-order tie-breaking, mailbox injection
 * one round after the post, window skipping, limit semantics), the
 * per-domain seed streams, and the headline invariant -- a sharded
 * System's stats dump is byte-identical for every shard count.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/domain.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/models.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/**
 * 3 queues (hub + 2), 3 units, hop 16, with every (queue, unit)
 * channel registered so tests can post freely.
 */
std::unique_ptr<DomainRuntime>
makeRuntime()
{
    auto rt = std::make_unique<DomainRuntime>(3u, 3u, 16);
    for (unsigned q = 0; q < 3; q++)
        for (unsigned u = 0; u < 3; u++)
            rt->addChannel(q, u);
    return rt;
}

} // namespace

TEST(DomainRuntime, DeliversAtExactTick)
{
    auto rt = makeRuntime();
    Tick seen = 0;
    // Sender unit 1 -> queue 2, due at 40 (>= hop past now 0).
    rt->post(2, 1, 40, [&] { seen = rt->queue(2).now(); });
    rt->run();
    EXPECT_EQ(seen, 40u);
}

TEST(DomainRuntime, SameTickTiesResolveBySenderUnit)
{
    auto rt = makeRuntime();
    std::vector<unsigned> order;
    // Three senders, same receiver, same tick: ascending unit id
    // must win regardless of post order.
    rt->post(1, 2, 32, [&] { order.push_back(2); });
    rt->post(1, 0, 32, [&] { order.push_back(0); });
    rt->post(1, 1, 32, [&] { order.push_back(1); });
    rt->run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 1u);
    EXPECT_EQ(order[2], 2u);
}

TEST(DomainRuntime, MessageInjectsTheRoundAfterItsPost)
{
    // Queues run in index order within a round, so a lower-index
    // sender posts before the receiver has run. The message must
    // still wait for the next round's injection: a same-tick event
    // the receiver schedules later in the posting round runs first.
    for (unsigned sender : {0u, 1u}) {
        auto rt = makeRuntime();
        std::vector<std::string> order;
        rt->queue(sender).schedule(0, [&, sender] {
            rt->post(2, sender, 40, [&] { order.push_back("msg"); });
        });
        rt->queue(2).schedule(0, [&] {
            rt->queue(2).schedule(40, [&] { order.push_back("local"); });
        });
        rt->run();
        EXPECT_EQ(order, (std::vector<std::string>{"local", "msg"}))
            << "sender queue " << sender;
    }
}

TEST(DomainRuntime, MessagesChainAcrossDomains)
{
    // Ping-pong between queues 1 and 2, always hop ahead; every
    // leg must land at its exact tick.
    auto rt = makeRuntime();
    std::vector<Tick> hits;
    std::function<void(unsigned, unsigned, int)> bounce =
        [&](unsigned to, unsigned from_unit, int left) {
            hits.push_back(rt->queue(to).now());
            if (left > 0) {
                const unsigned next_to = to == 1 ? 2 : 1;
                rt->post(next_to, to, rt->queue(to).now() + 16,
                         [&bounce, next_to, to, left] {
                             bounce(next_to, to, left - 1);
                         });
            }
            (void)from_unit;
        };
    rt->post(1, 0, 16, [&] { bounce(1, 0, 6); });
    rt->run();
    ASSERT_EQ(hits.size(), 7u);
    for (std::size_t i = 0; i < hits.size(); i++)
        EXPECT_EQ(hits[i], 16u * (i + 1));
    EXPECT_EQ(rt->messagesPosted(), 7u);
}

TEST(DomainRuntime, WindowsSkipIdleGaps)
{
    // Two events 1M ticks apart must not cost 1M/hop rounds.
    auto rt = makeRuntime();
    rt->queue(1).schedule(10, [] {});
    rt->queue(2).schedule(1000000, [] {});
    rt->run();
    EXPECT_EQ(rt->now(), 1000000u);
    EXPECT_LE(rt->windowsExecuted(), 4u);
}

TEST(DomainRuntime, RunLimitIsInclusiveAndResumable)
{
    auto rt = makeRuntime();
    int hits = 0;
    rt->queue(1).schedule(100, [&] { hits++; });
    rt->queue(2).schedule(101, [&] { hits++; });
    rt->run(100);
    EXPECT_EQ(hits, 1);
    rt->run(200);
    EXPECT_EQ(hits, 2);
}

TEST(DomainRuntime, CountsEventsAcrossQueues)
{
    auto rt = makeRuntime();
    for (unsigned q = 0; q < 3; q++)
        for (Tick t = 1; t <= 5; t++)
            rt->queue(q).schedule(t * 8, [] {});
    rt->run();
    EXPECT_EQ(rt->eventsExecuted(), 15u);
}

TEST(DomainRuntimeDeath, PostNeedsRegisteredChannel)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // The window scan only covers registered channels, so an
    // unregistered post could silently stall -- it must die instead.
    EXPECT_DEATH(
        {
            DomainRuntime rt(3u, 3u, 16);
            rt.post(2, 1, 40, [] {});
        },
        "unregistered channel");
}

// ---------------------------------------------------------------------
// Per-domain seed streams.

TEST(DeriveSeed, DomainStreamsAreIndependentAndDisjoint)
{
    const std::uint64_t root = 42;
    // Pure function of (root, domain, stream).
    EXPECT_EQ(deriveSeed(root, 1, 7), deriveSeed(root, 1, 7));
    // Distinct domains and distinct streams give distinct seeds.
    EXPECT_NE(deriveSeed(root, 1, 7), deriveSeed(root, 2, 7));
    EXPECT_NE(deriveSeed(root, 1, 7), deriveSeed(root, 1, 8));
    // The domain-qualified space does not collide with the flat
    // 2-arg stream space for small ids.
    for (std::uint64_t d = 0; d < 8; d++)
        for (std::uint64_t s = 0; s < 8; s++)
            EXPECT_NE(deriveSeed(root, d, s), deriveSeed(root, s));
}

// ---------------------------------------------------------------------
// System-level invariance: the dump is a pure function of the model
// parameters (hopTicks, portCredits, hubNpus), never of shards.

namespace {

std::string
dumpShardedRun(SystemConfig cfg,
               const std::vector<std::string> &workloads,
               unsigned shards)
{
    cfg.sim.shards = shards;
    System system(cfg);
    Scheduler scheduler(system);
    for (const std::string &spec : workloads)
        scheduler.add(makeWorkloadFromSpec(spec));
    const SchedulerResult r = scheduler.run();
    EXPECT_TRUE(r.allDone);
    std::ostringstream os;
    system.dumpStatsJson(os);
    return os.str();
}

void
expectShardInvariant(const SystemConfig &cfg,
                     const std::vector<std::string> &workloads)
{
    const std::string ref = dumpShardedRun(cfg, workloads, 1);
    EXPECT_FALSE(ref.empty());
    for (unsigned shards : {2u, 4u})
        EXPECT_EQ(ref, dumpShardedRun(cfg, workloads, shards))
            << "shards=" << shards;
}

} // namespace

TEST(ShardedSystem, MultiTenantNeuMmuInvariant)
{
    SystemConfig cfg;
    cfg.name = "shardtest";
    cfg.seed = 9;
    cfg.numNpus = 4;
    cfg.mmuKind = MmuKind::NeuMmu;
    cfg.sim.hubNpus = 1;
    expectShardInvariant(
        cfg, {"synthetic:pattern=uniform,footprint=8M,accesses=512",
              "synthetic:pattern=stride,footprint=4M,accesses=512",
              "synthetic:pattern=hotset,footprint=8M,accesses=512",
              "synthetic:pattern=chase,footprint=1M,accesses=256"});
}

TEST(ShardedSystem, StarvedWalkerInvariant)
{
    // One walker and one merge slot: the hub port rejects constantly,
    // so the bridge retry FIFO and credit wakes carry the load --
    // the adversarial case for cross-domain ordering.
    SystemConfig cfg;
    cfg.name = "shardtest";
    cfg.seed = 11;
    cfg.numNpus = 3;
    cfg.mmuKind = MmuKind::Custom;
    cfg.mmu = baselineIommuConfig();
    cfg.mmu.numPtws = 1;
    cfg.sim.portCredits = 2;
    cfg.sim.hopTicks = 8;
    expectShardInvariant(
        cfg, {"synthetic:pattern=uniform,footprint=4M,accesses=256",
              "synthetic:pattern=uniform,footprint=4M,accesses=256",
              "synthetic:pattern=stride,footprint=2M,accesses=256"});
}

TEST(ShardedSystem, PagingAcrossHubInvariant)
{
    // Demand paging: faults resolve on the hub (timed evict+fetch and
    // shootdown invalidations crossing back over the mailboxes), with
    // remote NPUs hammering translations meanwhile.
    SystemConfig cfg;
    cfg.name = "shardtest";
    cfg.seed = 13;
    cfg.numNpus = 3;
    cfg.mmuKind = MmuKind::NeuMmu;
    cfg.paging.enabled = true;
    cfg.paging.residentLimitBytes = 2 * MiB;
    cfg.sim.hopTicks = 16;
    expectShardInvariant(
        cfg, {"synthetic:pattern=uniform,footprint=8M,accesses=512",
              "synthetic:pattern=uniform,footprint=8M,accesses=512",
              "synthetic:pattern=hotset,footprint=8M,accesses=512"});
}

TEST(ShardedSystem, HopTicksIsAModelParameter)
{
    // Same machine, different hop: results must differ (the hop is
    // modeled latency, not an execution knob).
    SystemConfig cfg;
    cfg.name = "shardtest";
    cfg.seed = 9;
    cfg.numNpus = 2;
    cfg.mmuKind = MmuKind::NeuMmu;
    const std::vector<std::string> wl = {
        "synthetic:pattern=uniform,footprint=4M,accesses=256",
        "synthetic:pattern=stride,footprint=4M,accesses=256"};
    SystemConfig far = cfg;
    far.sim.hopTicks = 256;
    EXPECT_NE(dumpShardedRun(cfg, wl, 1), dumpShardedRun(far, wl, 1));
}

TEST(ShardedSystem, DemandPagingNeedsHubResidency)
{
    // A legacy demand-paging workload installs a synchronous fault
    // handler; binding it to a non-hub slot must throw the actionable
    // sim.hubNpus hint (a sweep then fails only that job).
    SystemConfig cfg;
    cfg.numNpus = 2;
    cfg.sim.shards = 1;
    cfg.sim.hubNpus = 1;
    System system(cfg);
    EmbeddingWorkloadConfig wl_cfg;
    wl_cfg.spec = makeNcf();
    wl_cfg.mode = EmbeddingWorkloadMode::DemandPaging;
    EmbeddingWorkload wl(wl_cfg);
    try {
        wl.bind(system, 1);
        FAIL() << "binding a non-hub slot did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("sim.hubNpus to at least 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardedSystem, RejectsSharedMemoryTopology)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            SystemConfig cfg;
            cfg.numNpus = 2;
            cfg.sharedMemory = true;
            cfg.sim.shards = 2;
            System system(cfg);
        },
        "sharedMemory");
}
