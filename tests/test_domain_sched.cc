/**
 * @file
 * Tests for the hop model: the ShardTranslationPort /
 * HubTranslationBridge hop on a real System (exact-tick delivery in
 * both directions, invalidations, credit flow control, the post-order
 * tie rule), profiler and fast-path totals on the one queue, the
 * per-domain seed streams, and the headline invariant -- a sharded
 * System's stats dump is byte-identical for every shard count.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/models.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

constexpr Tick hop = 16;

/** A one-NPU hop-model System with a NeuMMU hub and a backed 1 MiB
 *  segment. */
struct HopRig
{
    explicit HopRig(unsigned credits = 64)
        : sys(config(1, credits)),
          seg(sys.addressSpace().allocateBacked(
              "t", 1 * MiB, sys.hbmNode(0), sys.config().pageShift))
    {
    }

    static SystemConfig
    config(unsigned npus, unsigned credits)
    {
        SystemConfig cfg;
        cfg.numNpus = npus;
        cfg.mmuKind = MmuKind::NeuMmu;
        cfg.sim.shards = 1;
        cfg.sim.hopTicks = hop;
        cfg.sim.portCredits = credits;
        return cfg;
    }

    /** VA of page @p i of the segment. */
    Addr page(unsigned i) const
    {
        return seg.base + Addr(i) * pageSize(sys.config().pageShift);
    }

    /** Run one tick at a time until @p pred holds; returns that tick. */
    template <typename Pred>
    Tick runUntil(Pred pred)
    {
        for (Tick t = sys.now(); t < 1000000; t++) {
            sys.run(t);
            if (pred())
                return t;
        }
        ADD_FAILURE() << "predicate never held";
        return maxTick;
    }

    System sys;
    Segment seg;
};

} // namespace

TEST(HopModel, RequestReachesTheHubOneHopAfterIssue)
{
    HopRig rig;
    TranslationEngine &port = rig.sys.translationPort(0);
    port.setResponseCallback([](const TranslationResponse &) {});
    ASSERT_TRUE(port.translate(rig.page(0), 1));
    const Tick arrived =
        rig.runUntil([&] { return rig.sys.mmu().counts().requests > 0; });
    EXPECT_EQ(arrived, hop);
    EXPECT_EQ(rig.sys.mmu().counts().requests, 1u);
}

TEST(HopModel, ResponseReachesTheNpuOneHopAfterTheMmuAnswers)
{
    HopRig rig;
    TranslationEngine &port = rig.sys.translationPort(0);
    Tick delivered = maxTick;
    port.setResponseCallback([&](const TranslationResponse &r) {
        EXPECT_EQ(r.id, 7u);
        delivered = rig.sys.now();
    });
    ASSERT_TRUE(port.translate(rig.page(0), 7));
    const Tick answered = rig.runUntil(
        [&] { return rig.sys.mmu().counts().responses > 0; });
    EXPECT_EQ(delivered, maxTick) << "delivered with the MMU's answer";
    rig.sys.run(answered + hop - 1);
    EXPECT_EQ(delivered, maxTick) << "delivered before the hop elapsed";
    rig.sys.run(answered + hop);
    EXPECT_EQ(delivered, answered + hop);
}

TEST(HopModel, InvalidationCrossesTheHop)
{
    HopRig rig;
    rig.sys.translationPort(0).invalidate(rig.page(3));
    rig.sys.run(hop - 1);
    EXPECT_EQ(rig.sys.mmu().counts().shootdowns, 0u);
    rig.sys.run(hop);
    EXPECT_EQ(rig.sys.mmu().counts().shootdowns, 1u);
    EXPECT_EQ(rig.sys.crossDomainMessages(), 1u);
}

TEST(HopModel, CreditsCapOutstandingAndAReturnedCreditWakes)
{
    HopRig rig(/*credits=*/2);
    TranslationEngine &port = rig.sys.translationPort(0);
    std::vector<Tick> responses;
    std::vector<Tick> wakes;
    port.setResponseCallback([&](const TranslationResponse &) {
        responses.push_back(rig.sys.now());
    });
    port.setWakeCallback([&] { wakes.push_back(rig.sys.now()); });

    EXPECT_TRUE(port.translate(rig.page(0), 1));
    EXPECT_TRUE(port.translate(rig.page(1), 2));
    EXPECT_FALSE(port.translate(rig.page(2), 3)) << "third credit";
    EXPECT_EQ(port.counts().requests, 2u);
    EXPECT_EQ(port.counts().blockedIssues, 1u);

    rig.sys.run();
    ASSERT_EQ(responses.size(), 2u);
    // Only the response that ends starvation wakes the client.
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0], responses[0]);
    // Requests, responses: one hop message each.
    EXPECT_EQ(rig.sys.crossDomainMessages(), 4u);
}

TEST(HopModel, ReturnedCreditWakesTheBlockedDma)
{
    constexpr unsigned credits = 2;
    HopRig rig(credits);
    bool done = false;
    rig.sys.dma(0).fetch({VaRun{rig.seg.base, rig.seg.bytes}},
                         [&](Tick) { done = true; });
    const TranslationEngine &port = rig.sys.translationPort(0);
    rig.runUntil([&] {
        const MmuCounts &c = port.counts();
        EXPECT_LE(c.requests - c.responses, credits)
            << "at tick " << rig.sys.now();
        return done;
    });
    // The DMA ran out of credits and every block was woken: the
    // fetch could not have finished otherwise.
    EXPECT_GT(port.counts().blockedIssues, 0u);
    EXPECT_EQ(port.counts().responses, port.counts().requests);
}

TEST(HopModel, SameTickRequestsReachTheHubInPostOrder)
{
    // One walker and no merge slots: whichever request reaches the
    // hub first takes the walker and is answered first.
    for (const bool npu1_first : {true, false}) {
        SystemConfig cfg = HopRig::config(2, 64);
        cfg.mmuKind = MmuKind::Custom;
        cfg.mmu = baselineIommuConfig();
        cfg.mmu.numPtws = 1;
        cfg.mmu.prmbSlots = 0;
        System sys(cfg);
        const Segment seg = sys.addressSpace().allocateBacked(
            "t", 1 * MiB, sys.hbmNode(0), cfg.pageShift);
        std::vector<unsigned> order;
        for (unsigned n = 0; n < 2; n++)
            sys.translationPort(n).setResponseCallback(
                [&order, n](const TranslationResponse &) {
                    order.push_back(n);
                });
        const Addr far = seg.base + seg.bytes / 2;
        if (npu1_first) {
            ASSERT_TRUE(sys.translationPort(1).translate(far, 1));
            ASSERT_TRUE(sys.translationPort(0).translate(seg.base, 1));
        } else {
            ASSERT_TRUE(sys.translationPort(0).translate(seg.base, 1));
            ASSERT_TRUE(sys.translationPort(1).translate(far, 1));
        }
        sys.run();
        const std::vector<unsigned> want =
            npu1_first ? std::vector<unsigned>{1, 0}
                       : std::vector<unsigned>{0, 1};
        EXPECT_EQ(order, want) << "npu1_first=" << npu1_first;
    }
}

// ---------------------------------------------------------------------
// Profiler and fast-path totals count the one queue once.

TEST(HopModel, ProfileTotalsCountTheQueueOnce)
{
    SystemConfig cfg;
    cfg.name = "shardtest";
    cfg.seed = 5;
    cfg.numNpus = 4;
    cfg.mmuKind = MmuKind::NeuMmu;
    cfg.sim.shards = 1;
    cfg.sim.profile = true;
    System system(cfg);
    std::vector<std::unique_ptr<Workload>> workloads;
    for (const char *spec :
         {"synthetic:pattern=uniform,footprint=4M,accesses=512",
          "synthetic:pattern=stride,footprint=4M,accesses=512",
          "synthetic:pattern=hotset,footprint=4M,accesses=512",
          "synthetic:pattern=chase,footprint=1M,accesses=256"}) {
        workloads.push_back(makeWorkloadFromSpec(spec));
        workloads.back()->bind(system, unsigned(workloads.size() - 1));
        workloads.back()->start([](Tick) {});
    }
    const auto t0 = std::chrono::steady_clock::now();
    system.run();
    const auto t1 = std::chrono::steady_clock::now();
    for (const auto &wl : workloads)
        ASSERT_TRUE(wl->done());
    const double wall_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();

    std::ostringstream os;
    system.dumpStatsText(os);
    const stats::Group &prof = system.statsRegistry().group("shardtest.prof");
    double nanos = 0.0;
    for (const auto &[name, scalar] : prof.scalars())
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, "Nanos") == 0)
            nanos += scalar.value();
    EXPECT_GT(nanos, 0.0);
    EXPECT_LE(nanos, wall_ns);

    const stats::Group &fast =
        system.statsRegistry().group("shardtest.fastpath");
    EXPECT_EQ(fast.scalars().at("sameTickShortcuts").value(),
              double(system.eventQueue().sameTickShortcuts()));
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
    // shootdown invalidations crossing back over the hop), with
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
