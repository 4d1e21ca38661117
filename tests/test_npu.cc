/**
 * @file
 * Unit tests for the NPU substrate: compute model, DMA engine, and
 * the double-buffered tile pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.hh"
#include "mmu/mmu_core.hh"
#include "mmu/translation_router.hh"
#include "npu/compute_model.hh"
#include "npu/dma_engine.hh"
#include "npu/tile_pipeline.hh"
#include "sim/event_queue.hh"
#include "sim/retry_round.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

using namespace neummu;

TEST(ComputeModel, SystolicScalesWithBlocksAndRows)
{
    NpuConfig cfg;
    // One 128x128 weight block streaming m rows: m + fill/drain.
    EXPECT_EQ(tileComputeCycles(cfg, 100, 128, 128), 100u + 256u);
    // 2x2 blocks quadruple the streaming passes.
    EXPECT_EQ(tileComputeCycles(cfg, 100, 256, 256), 400u + 256u);
    // Partial blocks round up.
    EXPECT_EQ(tileComputeCycles(cfg, 10, 129, 1), 20u + 256u);
}

TEST(ComputeModel, SpatialIsMacThroughputBound)
{
    NpuConfig cfg;
    cfg.compute = ComputeKind::Spatial;
    // 4096 MACs/cycle.
    EXPECT_EQ(tileComputeCycles(cfg, 64, 64, 64), 64u + 64u);
    EXPECT_EQ(tileComputeCycles(cfg, 1, 1, 1), 1u + 64u);
}

TEST(ComputeModel, SystolicBeatsSpatialOnLargeGemm)
{
    NpuConfig sys, spa;
    spa.compute = ComputeKind::Spatial;
    // 16384 vs 4096 MACs/cycle at full utilization.
    const auto m = 4096u, k = 1024u, n = 1024u;
    EXPECT_LT(tileComputeCycles(sys, m, k, n),
              tileComputeCycles(spa, m, k, n));
}

namespace {

/** Translation port that accepts everything and responds only when
 *  the test calls respond(). */
class CueEngine : public TranslationEngine
{
  public:
    std::vector<std::uint64_t> ids;

    bool
    translate(Addr, std::uint64_t id) override
    {
        ids.push_back(id);
        return true;
    }
    void
    setResponseCallback(ResponseCallback cb) override
    {
        _respond = std::move(cb);
    }
    void setWakeCallback(WakeCallback) override {}
    const MmuCounts &counts() const override { return _counts; }

    void
    respond(std::uint64_t id, Addr pa)
    {
        TranslationResponse resp;
        resp.id = id;
        resp.pa = pa;
        _respond(resp);
    }

  private:
    ResponseCallback _respond;
    MmuCounts _counts;
};

/** Fixture: DMA engine + MMU + memory over a mapped arena. */
class DmaTest : public ::testing::Test
{
  protected:
    void
    build(MmuConfig mmu_cfg, std::uint64_t arena_pages = 4096,
          std::uint64_t burst = 1024)
    {
        // Rebuild the whole stack so tests can compare design points
        // over identical, fresh state.
        node = std::make_unique<FrameAllocator>("host", Addr(1) << 40,
                                                8 * GiB);
        pt = std::make_unique<PageTable>(*node);
        eq = std::make_unique<EventQueue>();
        base = Addr(0x70) << 30;
        for (std::uint64_t i = 0; i < arena_pages; i++) {
            pt->map(base + i * 4096, node->allocate(4096, 4096),
                    smallPageShift);
        }
        mmu = std::make_unique<MmuCore>("mmu", *eq, *pt, mmu_cfg);
        mem = std::make_unique<MemoryModel>("mem", MemoryConfig{});
        DmaConfig dma_cfg;
        dma_cfg.burstBytes = burst;
        retry = std::make_unique<RetryRound>(*eq);
        dma = std::make_unique<DmaEngine>("dma", *eq, *mmu, *mem,
                                          dma_cfg, *retry);
    }

    /**
     * Build the DMA over @p port instead of an MmuCore: the test
     * drives translation responses itself.
     */
    void
    buildOn(TranslationEngine &port)
    {
        eq = std::make_unique<EventQueue>();
        mem = std::make_unique<MemoryModel>("mem", MemoryConfig{});
        retry = std::make_unique<RetryRound>(*eq);
        dma = std::make_unique<DmaEngine>("dma", *eq, port, *mem,
                                          DmaConfig{}, *retry);
        base = Addr(0x70) << 30;
    }

    Tick
    fetchAll(std::vector<VaRun> runs)
    {
        Tick done = 0;
        dma->fetch(std::move(runs), [&](Tick at) { done = at; });
        eq->run();
        EXPECT_GT(done, 0u);
        EXPECT_FALSE(dma->busy());
        return done;
    }

    std::unique_ptr<FrameAllocator> node;
    std::unique_ptr<PageTable> pt;
    std::unique_ptr<EventQueue> eq;
    std::unique_ptr<MmuCore> mmu;
    std::unique_ptr<MemoryModel> mem;
    std::unique_ptr<RetryRound> retry;
    std::unique_ptr<DmaEngine> dma;
    Addr base = 0;

    /** A 1 KB burst at these reads channels 0-3 or channels 4-7 of
     *  the default memory (eight channels, 256-byte interleave). */
    static constexpr Addr lowChannelsPa = Addr(1) << 20;
    static constexpr Addr highChannelsPa = (Addr(2) << 20) + 1024;
};

} // namespace

TEST_F(DmaTest, SplitsRunsIntoPageBoundedBursts)
{
    build(oracleMmuConfig());
    // 10 KB starting mid-page with 1 KB bursts: the first burst is
    // clipped at the page boundary.
    fetchAll({VaRun{base + 4096 - 512, 10 * KiB}});
    // 512 B + 9.5 KB => 1 + 10 bursts.
    EXPECT_EQ(dma->translationsIssued(), 11u);
    EXPECT_EQ(dma->bytesFetched(), 10 * KiB);
}

TEST_F(DmaTest, OneTranslationPerCycleUnderOracle)
{
    build(oracleMmuConfig());
    std::vector<Tick> issue_ticks;
    dma->setIssueHook([&](Tick t, Addr) { issue_ticks.push_back(t); });
    fetchAll({VaRun{base, 8 * KiB}});
    ASSERT_EQ(issue_ticks.size(), 8u);
    for (std::size_t i = 1; i < issue_ticks.size(); i++)
        EXPECT_EQ(issue_ticks[i], issue_ticks[i - 1] + 1);
}

TEST_F(DmaTest, OracleFetchIsBandwidthBound)
{
    build(oracleMmuConfig());
    const std::uint64_t bytes = 4 * MiB;
    const Tick done = fetchAll({VaRun{base, bytes}});
    const double bw_cycles = double(bytes) / 600.0;
    // Within 10% of the pure-bandwidth bound (plus latency tail).
    EXPECT_GT(done, Tick(bw_cycles));
    EXPECT_LT(done, Tick(bw_cycles * 1.15) + 300);
}

TEST_F(DmaTest, IommuStallsOnTranslationBandwidth)
{
    build(baselineIommuConfig());
    const Tick done = fetchAll({VaRun{base, 1 * MiB}});
    // 1 MB = 1024 bursts; 8 walkers at 405 cycles each bound the
    // fetch at ~1024/8 * 405 cycles -- far beyond bandwidth time.
    EXPECT_GT(done, 20000u);
    EXPECT_GT(dma->stallCycles(), 0u);
}

TEST_F(DmaTest, NeuMmuRecoversMostOfOraclePerformance)
{
    build(oracleMmuConfig());
    const Tick oracle = fetchAll({VaRun{base, 2 * MiB}});

    // Rebuild with NeuMMU over the same runs.
    build(neuMmuConfig());
    const Tick neummu = fetchAll({VaRun{base, 2 * MiB}});
    EXPECT_LT(double(oracle) / double(neummu), 1.0 + 0.15);
}

TEST_F(DmaTest, MultipleRunsFetchInOrder)
{
    build(oracleMmuConfig());
    std::vector<Addr> vas;
    dma->setIssueHook([&](Tick, Addr va) { vas.push_back(va); });
    fetchAll({VaRun{base, 2 * KiB}, VaRun{base + 1 * MiB, 1 * KiB}});
    ASSERT_EQ(vas.size(), 3u);
    EXPECT_EQ(vas[0], base);
    EXPECT_EQ(vas[1], base + 1 * KiB);
    EXPECT_EQ(vas[2], base + 1 * MiB);
}

TEST_F(DmaTest, EmptyFetchCompletesImmediately)
{
    build(oracleMmuConfig());
    Tick done = maxTick;
    dma->fetch({}, [&](Tick at) { done = at; });
    eq->run();
    EXPECT_EQ(done, 0u);
}

TEST_F(DmaTest, SmallBurstsRaiseMoreTranslations)
{
    build(oracleMmuConfig(), 4096, 256);
    fetchAll({VaRun{base, 64 * KiB}});
    EXPECT_EQ(dma->translationsIssued(), 256u);
}

TEST_F(DmaTest, FetchFinishesAtTheLatestLandingInItsOrder)
{
    // Two 1 KB bursts. The first one's response (tick 10) reads from
    // channels 0-3, which a preload keeps busy; the second one's
    // (tick 20) reads from idle channels 4-7. So the earlier response
    // lands last, and the fetch must finish at that landing -- and
    // at its place among the landing tick's events: after events
    // scheduled for that tick before the response, before events
    // scheduled after it.
    CueEngine port;
    buildOn(port);
    MemoryModel ref("ref", MemoryConfig{});
    for (int i = 0; i < 100; i++) {
        mem->access(0, lowChannelsPa, 1024, false);
        ref.access(0, lowChannelsPa, 1024, false);
    }
    const Tick first_lands = ref.access(10, lowChannelsPa, 1024, false);
    const Tick second_lands = ref.access(20, highChannelsPa, 1024, false);
    ASSERT_GT(first_lands, second_lands);

    std::vector<std::string> order;
    Tick done_at = 0;
    dma->fetch({VaRun{base, 2 * KiB}}, [&](Tick at) {
        done_at = at;
        order.push_back("done");
    });
    eq->schedule(first_lands, [&] { order.push_back("before"); });
    eq->schedule(10, [&] { port.respond(0, lowChannelsPa); });
    eq->schedule(10, [&] {
        eq->schedule(first_lands, [&] { order.push_back("after"); });
    });
    eq->schedule(20, [&] { port.respond(1, highChannelsPa); });
    eq->run();

    EXPECT_EQ(port.ids, (std::vector<std::uint64_t>{0, 1}));
    EXPECT_EQ(done_at, first_lands);
    EXPECT_EQ(order,
              (std::vector<std::string>{"before", "done", "after"}));
    EXPECT_FALSE(dma->busy());
    EXPECT_EQ(dma->bytesFetched(), 2 * KiB);
}

TEST_F(DmaTest, FetchFinishTieGoesToTheLaterResponse)
{
    // Both responses at tick 10, to disjoint idle channels: the two
    // bursts land on one tick, and the fetch finishes in the later
    // response's place, after an event scheduled between the two.
    CueEngine port;
    buildOn(port);
    MemoryModel ref("ref", MemoryConfig{});
    const Tick lands = ref.access(10, lowChannelsPa, 1024, false);
    ASSERT_EQ(ref.access(10, highChannelsPa, 1024, false), lands);

    std::vector<std::string> order;
    Tick done_at = 0;
    dma->fetch({VaRun{base, 2 * KiB}}, [&](Tick at) {
        done_at = at;
        order.push_back("done");
    });
    eq->schedule(10, [&] {
        port.respond(0, lowChannelsPa);
        eq->schedule(lands, [&] { order.push_back("between"); });
        port.respond(1, highChannelsPa);
        eq->schedule(lands, [&] { order.push_back("after"); });
    });
    eq->run();

    EXPECT_EQ(done_at, lands);
    EXPECT_EQ(order,
              (std::vector<std::string>{"between", "done", "after"}));
}

namespace {

/** Pipeline fixture on top of the DMA fixture. */
class PipelineTest : public DmaTest
{
  protected:
    TileWork
    makeTile(Addr va, std::uint64_t bytes, std::uint64_t compute)
    {
        TileWork t;
        t.iaRuns.push_back(VaRun{va, bytes / 2});
        t.wRuns.push_back(VaRun{va + bytes / 2, bytes / 2});
        t.computeCycles = compute;
        return t;
    }
};

} // namespace

TEST_F(PipelineTest, SingleTileIsFetchPlusCompute)
{
    build(oracleMmuConfig());
    TilePipeline pipe(*eq, *dma);
    const PipelineResult r = pipe.run({makeTile(base, 64 * KiB, 5000)});
    EXPECT_EQ(r.tiles, 1u);
    // Total = memory phase then compute phase, no overlap possible.
    EXPECT_GT(r.totalCycles, 5000u);
    EXPECT_EQ(r.computePhaseCycles, 5000u);
    EXPECT_GT(r.memPhaseCycles, 0u);
}

TEST_F(PipelineTest, DoubleBufferingOverlapsComputeWithNextFetch)
{
    build(oracleMmuConfig());
    // Compute far exceeds fetch: with double buffering, total ~
    // fetch(0) + sum(compute); without it, fetches add up.
    std::vector<TileWork> tiles;
    for (int i = 0; i < 8; i++)
        tiles.push_back(makeTile(base + Addr(i) * 128 * KiB, 64 * KiB,
                                 20000));

    TilePipeline db(*eq, *dma, 2);
    const PipelineResult with_db = db.run(tiles);

    build(oracleMmuConfig());
    TilePipeline sb(*eq, *dma, 1);
    const PipelineResult without_db = sb.run(tiles);

    EXPECT_LT(with_db.totalCycles, without_db.totalCycles);
    // Compute-bound: overlap hides all but the first fetch.
    EXPECT_LT(with_db.totalCycles, 8u * 20000u + 3000u);
}

TEST_F(PipelineTest, ComputePhasesNeverOverlapEachOther)
{
    build(oracleMmuConfig());
    std::vector<TileWork> tiles;
    for (int i = 0; i < 4; i++)
        tiles.push_back(makeTile(base + Addr(i) * 1 * MiB, 4 * KiB,
                                 1000));
    TilePipeline pipe(*eq, *dma);
    const PipelineResult r = pipe.run(tiles);
    // Serial compute is a lower bound on total time.
    EXPECT_GE(r.totalCycles, 4000u);
}

TEST_F(PipelineTest, MemoryBoundPipelineIsFetchLimited)
{
    build(oracleMmuConfig());
    std::vector<TileWork> tiles;
    for (int i = 0; i < 4; i++)
        tiles.push_back(makeTile(base + Addr(i) * 2 * MiB, 1 * MiB, 10));
    TilePipeline pipe(*eq, *dma);
    const PipelineResult r = pipe.run(tiles);
    // All four 1 MB fetches serialize on the DMA.
    const double bw_cycles = 4.0 * double(1 * MiB) / 600.0;
    EXPECT_GT(r.totalCycles, Tick(bw_cycles * 0.9));
}

TEST_F(PipelineTest, BackToBackRunsAccumulateTime)
{
    build(oracleMmuConfig());
    TilePipeline pipe(*eq, *dma);
    const PipelineResult a = pipe.run({makeTile(base, 8 * KiB, 100)});
    const Tick after_first = eq->now();
    const PipelineResult b = pipe.run({makeTile(base, 8 * KiB, 100)});
    EXPECT_EQ(a.finishTick, after_first);
    EXPECT_GT(b.finishTick, a.finishTick);
}

namespace {

/** One issue attempt seen by a DMA's trace hook. */
struct Attempt
{
    unsigned dma;
    Tick tick;
    bool accepted;
    /** eventsExecuted() when the attempt ran: equal means one event. */
    std::uint64_t event;

    bool
    operator==(const Attempt &o) const
    {
        return dma == o.dma && tick == o.tick &&
               accepted == o.accepted && event == o.event;
    }
};

std::ostream &
operator<<(std::ostream &os, const Attempt &a)
{
    return os << "{dma" << a.dma << " t=" << a.tick
              << (a.accepted ? " ok" : " rejected") << " ev=" << a.event
              << "}";
}

/**
 * Several DMA engines on one event queue and one RetryRound, each
 * fetching a single page-sized burst of its own page.
 */
struct RetryHarness
{
    FrameAllocator node{"host", Addr(1) << 40, 8 * GiB};
    PageTable pt{node};
    EventQueue eq;
    MemoryModel mem{"mem", MemoryConfig{}};
    RetryRound retry{eq};
    std::vector<std::unique_ptr<DmaEngine>> dmas;
    std::vector<Attempt> log;
    Addr base = Addr(0x70) << 30;

    RetryHarness()
    {
        for (unsigned i = 0; i < 8; i++) {
            pt.map(base + i * 4096, node.allocate(4096, 4096),
                   smallPageShift);
        }
    }

    DmaEngine &
    addDma(TranslationEngine &port)
    {
        const unsigned idx = unsigned(dmas.size());
        dmas.push_back(std::make_unique<DmaEngine>(
            "dma" + std::to_string(idx), eq, port, mem, DmaConfig{},
            retry));
        dmas.back()->setTraceHook(
            [this, idx](Tick t, Addr, std::uint64_t, bool accepted) {
                log.push_back(
                    Attempt{idx, t, accepted, eq.eventsExecuted()});
            });
        return *dmas.back();
    }

    void
    fetchPage(unsigned dma)
    {
        dmas[dma]->fetch({VaRun{base + Addr(dma) * 4096, 1024}},
                         [](Tick) {});
    }
};

/** Translation port that rejects until opened; never responds. */
class GateEngine : public TranslationEngine
{
  public:
    bool open = false;

    bool translate(Addr, std::uint64_t) override { return open; }
    void setResponseCallback(ResponseCallback) override {}
    void setWakeCallback(WakeCallback cb) override { wake = std::move(cb); }
    const MmuCounts &counts() const override { return _counts; }

    WakeCallback wake;

  private:
    MmuCounts _counts;
};

/** GateEngine whose admits() answers separately and which records
 *  the ids its translate() sees. */
class ProbeGateEngine : public GateEngine
{
  public:
    bool admitting = false;
    std::vector<std::uint64_t> translated;
    unsigned probes = 0;

    bool
    admits(Addr) override
    {
        probes++;
        return admitting;
    }

    bool
    translate(Addr va, std::uint64_t id) override
    {
        translated.push_back(id);
        return GateEngine::translate(va, id);
    }
};

} // namespace

TEST(DmaRetryRound, WokenDmasRetryTogetherInWakeOrder)
{
    RetryHarness h;
    // One walker, no PRMB, no path cache: a walk holds the only
    // walker for hitLatency + 4 levels x walkLatencyPerLevel cycles.
    MmuConfig cfg = baselineIommuConfig();
    cfg.numPtws = 1;
    MmuCore mmu("mmu", h.eq, h.pt, cfg);
    TranslationRouter router(mmu, 3, RouterPolicy::Shared, 1);
    for (unsigned c = 0; c < 3; c++)
        h.addDma(router.port(c));
    const Tick walk = cfg.tlb.hitLatency + 4 * cfg.walkLatencyPerLevel;
    ASSERT_EQ(walk, 405u);

    // DMA 0 takes the walker at t=0; DMAs 2 then 1 are rejected.
    h.fetchPage(0);
    h.fetchPage(2);
    h.fetchPage(1);
    h.eq.run();

    ASSERT_EQ(h.log.size(), 6u);
    EXPECT_EQ(h.log[0].dma, 0u);
    EXPECT_TRUE(h.log[0].accepted);
    EXPECT_EQ(h.log[1].dma, 2u);
    EXPECT_FALSE(h.log[1].accepted);
    EXPECT_EQ(h.log[2].dma, 1u);
    EXPECT_FALSE(h.log[2].accepted);
    // The walk completes at t=405 and wakes both blocked ports, in
    // client order (equal in-flight counts): both retry at t=406
    // from one event. DMA 1 wins the walker; DMA 2 blocks again.
    const std::uint64_t ev = h.log[3].event;
    EXPECT_EQ(h.log[3], (Attempt{1, walk + 1, true, ev}));
    EXPECT_EQ(h.log[4], (Attempt{2, walk + 1, false, ev}));
    // DMA 1's walk frees the walker at 406 + 405; DMA 2 retries next
    // cycle, alone.
    EXPECT_EQ(h.log[5].dma, 2u);
    EXPECT_EQ(h.log[5].tick, 2 * walk + 2);
    EXPECT_TRUE(h.log[5].accepted);
    EXPECT_NE(h.log[5].event, ev);

    // Stalls, counted from the first rejection to each wake: DMA 1
    // waits 0 -> 405; DMA 2 waits 0 -> 405, then 406 -> 811.
    EXPECT_EQ(h.dmas[0]->stallCycles(), 0u);
    EXPECT_EQ(h.dmas[1]->stallCycles(), walk);
    EXPECT_EQ(h.dmas[2]->stallCycles(), 2 * walk);
}

TEST(DmaRetryRound, EventScheduledBetweenWakesSplitsTheRound)
{
    RetryHarness h;
    GateEngine gates[3];
    for (GateEngine &g : gates)
        h.addDma(g);
    for (unsigned i = 0; i < 3; i++)
        h.fetchPage(i);
    std::vector<std::string> order;
    h.eq.schedule(10, [&] {
        // Two wakes share one round; an event scheduled for the
        // retry tick before the third wake makes it open a new one.
        gates[0].open = gates[1].open = gates[2].open = true;
        gates[0].wake();
        gates[1].wake();
        h.eq.schedule(11, [&] { order.push_back("between"); });
        gates[2].wake();
    });
    for (unsigned i = 0; i < 3; i++) {
        h.dmas[i]->setTraceHook(
            [&order, &h, i](Tick t, Addr, std::uint64_t, bool) {
                if (t == 11)
                    order.push_back("dma" + std::to_string(i));
                h.log.push_back(Attempt{i, t, true,
                                        h.eq.eventsExecuted()});
            });
    }
    h.eq.run();

    EXPECT_EQ(order, std::vector<std::string>(
                         {"dma0", "dma1", "between", "dma2"}));
    ASSERT_EQ(h.log.size(), 6u);
    // dma0 and dma1 retried from one event, dma2 from another.
    EXPECT_EQ(h.log[3].event, h.log[4].event);
    EXPECT_NE(h.log[4].event, h.log[5].event);
    for (unsigned i = 0; i < 3; i++)
        EXPECT_EQ(h.dmas[i]->stallCycles(), 10u);
}

TEST(DmaRetryRound, RefusedProbeLeavesThePortAsARejectionWould)
{
    RetryHarness h;
    ProbeGateEngine gate;
    DmaEngine &dma = h.addDma(gate);
    dma.setTraceHook([&h](Tick t, Addr, std::uint64_t, bool accepted) {
        h.log.push_back(Attempt{0, t, accepted, 0});
    });
    // Two bursts. The first issue at t=0 translates without probing
    // and is rejected.
    dma.fetch({VaRun{h.base, 2048}}, [](Tick) {});
    // Woken at t=10, the retry at t=11 is refused by the probe. Woken
    // again at t=20 with the gate open, the retry at t=21 goes through.
    h.eq.schedule(10, [&] { gate.wake(); });
    h.eq.schedule(20, [&] {
        gate.open = gate.admitting = true;
        gate.wake();
    });
    h.eq.run();

    // The refused probe made no translate() call but burned id 1.
    EXPECT_EQ(gate.translated, (std::vector<std::uint64_t>{0, 2, 3}));
    EXPECT_EQ(gate.probes, 2u);
    // It was traced as a rejected attempt...
    ASSERT_EQ(h.log.size(), 4u);
    EXPECT_EQ(h.log[0], (Attempt{0, 0, false, 0}));
    EXPECT_EQ(h.log[1], (Attempt{0, 11, false, 0}));
    EXPECT_EQ(h.log[2], (Attempt{0, 21, true, 0}));
    EXPECT_EQ(h.log[3], (Attempt{0, 22, true, 0}));
    // ...and blocked the port from the retry tick: 0 -> 10, 11 -> 20.
    EXPECT_EQ(dma.stallCycles(), 19u);
    EXPECT_EQ(dma.translationsIssued(), 2u);
}

namespace {

/** Forwards to an engine and logs the translate() calls it sees. */
class SpyEngine : public TranslationEngine
{
  public:
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

    SpyEngine(TranslationEngine &inner, EventQueue &eq)
        : _inner(inner), _eq(eq)
    {
    }

    std::vector<Call> calls;

    bool
    translate(Addr va, std::uint64_t id) override
    {
        const bool ok = _inner.translate(va, id);
        // The router tags the top byte with the client index.
        calls.push_back(Call{_eq.now(), unsigned(id >> 56),
                             id & ((std::uint64_t(1) << 56) - 1), ok});
        return ok;
    }
    bool admits(Addr va) override { return _inner.admits(va); }
    void
    setAdmitWatch(PageCallback cb) override
    {
        _inner.setAdmitWatch(std::move(cb));
    }
    bool refusalsHold() const override { return _inner.refusalsHold(); }
    void
    setResponseCallback(ResponseCallback cb) override
    {
        _inner.setResponseCallback(std::move(cb));
    }
    void
    setWakeCallback(WakeCallback cb) override
    {
        _inner.setWakeCallback(std::move(cb));
    }
    const MmuCounts &counts() const override { return _inner.counts(); }

  private:
    TranslationEngine &_inner;
    EventQueue &_eq;
};

std::ostream &
operator<<(std::ostream &os, const SpyEngine::Call &c)
{
    return os << "{t=" << c.tick << " c" << c.client << " id=" << c.id
              << (c.accepted ? " ok" : " rejected") << "}";
}

/** What a routed run leaves behind. */
struct RoutedRun
{
    /** Every translation attempt, as (dma, tick, accepted). */
    std::vector<Attempt> attempts;
    std::vector<SpyEngine::Call> translates;
    std::vector<std::uint64_t> stalls;
    std::vector<Tick> finishes;
    std::vector<std::uint64_t> capRejections;
    /** Calls of the DMAs' wake callbacks; counted only when the run
     *  replaced them. */
    unsigned wakeCalls = 0;
};

/**
 * DMAs behind a router over a baseline IOMMU with @p walkers walkers
 * (walks of 405 ticks, no PRMB), each fetching @p bytes of its own
 * page from @p start[i]. With @p replace_wakes, every port's wake
 * callback is swapped for a counter after the DMAs installed theirs.
 */
RoutedRun
runRouted(unsigned walkers, RouterPolicy policy, unsigned walker_budget,
          const std::vector<Tick> &start, std::uint64_t bytes,
          bool replace_wakes = false)
{
    RetryHarness h;
    MmuConfig cfg = baselineIommuConfig();
    cfg.numPtws = walkers;
    MmuCore mmu("mmu", h.eq, h.pt, cfg);
    SpyEngine spy(mmu, h.eq);
    const unsigned n = unsigned(start.size());
    TranslationRouter router(spy, n, policy, walker_budget);
    RoutedRun run;
    run.finishes.assign(n, 0);
    for (unsigned i = 0; i < n; i++)
        h.addDma(router.port(i));
    if (replace_wakes) {
        for (unsigned i = 0; i < n; i++)
            router.port(i).setWakeCallback([&run] { run.wakeCalls++; });
    }
    for (unsigned i = 0; i < n; i++) {
        h.eq.schedule(start[i], [&h, &run, i, bytes] {
            h.dmas[i]->fetch({VaRun{h.base + Addr(i) * 4096, bytes}},
                             [&run, i](Tick at) { run.finishes[i] = at; });
        });
    }
    h.eq.run();
    for (const Attempt &a : h.log)
        run.attempts.push_back(Attempt{a.dma, a.tick, a.accepted, 0});
    run.translates = spy.calls;
    for (unsigned i = 0; i < n; i++) {
        run.stalls.push_back(h.dmas[i]->stallCycles());
        run.capRejections.push_back(router.capRejections(i));
    }
    return run;
}

/** Five DMAs, two bursts each, behind one walker: DMA 4 is refused
 *  at its first issue and by the rounds at 406, 812 and 1218. */
RoutedRun
runFiveOnOneWalker(bool replace_wakes = false)
{
    return runRouted(1, RouterPolicy::Shared, 1, {0, 0, 0, 0, 0}, 2048,
                     replace_wakes);
}

const std::vector<Attempt> fiveOnOneWalkerAttempts = {
    {0, 0, true, 0},     {1, 0, false, 0},    {2, 0, false, 0},
    {3, 0, false, 0},    {4, 0, false, 0},    {0, 1, false, 0},
    {0, 406, true, 0},   {1, 406, true, 0},   {2, 406, false, 0},
    {3, 406, false, 0},  {4, 406, false, 0},  {1, 407, false, 0},
    {1, 812, true, 0},   {2, 812, true, 0},   {3, 812, false, 0},
    {4, 812, false, 0},  {2, 813, false, 0},  {2, 1218, true, 0},
    {3, 1218, true, 0},  {4, 1218, false, 0}, {3, 1219, false, 0},
    {3, 1624, true, 0},  {4, 1624, true, 0},  {4, 1625, false, 0},
    {4, 2030, true, 0},
};

const std::vector<SpyEngine::Call> fiveOnOneWalkerTranslates = {
    {0, 0, 0, true},     {0, 1, 0, false},    {0, 2, 0, false},
    {0, 3, 0, false},    {0, 4, 0, false},    {1, 0, 1, false},
    {406, 0, 2, true},   {406, 1, 1, true},   {407, 1, 2, false},
    {812, 1, 3, true},   {812, 2, 2, true},   {813, 2, 3, false},
    {1218, 2, 4, true},  {1218, 3, 3, true},  {1219, 3, 4, false},
    {1624, 3, 5, true},  {1624, 4, 4, true},  {1625, 4, 5, false},
    {2030, 4, 6, true},
};

} // namespace

TEST(DmaRetryRound, RoutedRetriesKeepAttemptsIdsStallsAndFinishes)
{
    const RoutedRun run = runFiveOnOneWalker();
    EXPECT_EQ(run.attempts, fiveOnOneWalkerAttempts);
    // Refused rounds burn ids without a translate() call: DMA 4's
    // engine sees ids 0, 4 and 6 only.
    EXPECT_EQ(run.translates, fiveOnOneWalkerTranslates);
    // Each wait is charged up to its wake, one tick before the round.
    EXPECT_EQ(run.stalls,
              (std::vector<std::uint64_t>{404, 809, 1214, 1619, 2024}));
    EXPECT_EQ(run.finishes,
              (std::vector<Tick>{515, 921, 1327, 1733, 2139}));
}

TEST(DmaRetryRound, RefusedRoundCallsNeitherWakeNorTranslate)
{
    // The router runs its DMAs' retries itself: with every DMA's wake
    // callback replaced by a counter, the run is unchanged.
    const RoutedRun run = runFiveOnOneWalker(true);
    EXPECT_EQ(run.wakeCalls, 0u);
    EXPECT_EQ(run.attempts, fiveOnOneWalkerAttempts);
    EXPECT_EQ(run.translates, fiveOnOneWalkerTranslates);
    for (const Tick round : {406u, 812u, 1218u}) {
        for (const SpyEngine::Call &call : run.translates)
            EXPECT_FALSE(call.tick == round && call.client == 4)
                << "refused round at " << round << " translated";
    }
}

TEST(DmaRetryRound, CapBlockedPortSharesARoundWithRefusedPorts)
{
    // Two walkers, four clients capped at one request in flight each.
    // DMA 1 walks from 0 and DMA 0 from 10; DMA 0's second burst hits
    // the cap at 11; DMAs 2 and 3 find no walker at 20 and 30.
    const RoutedRun run =
        runRouted(2, RouterPolicy::Partitioned, 4, {10, 0, 20, 30}, 2048);
    // The walker freed at 405 wakes DMA 0 (deepest backlog, still at
    // its cap), DMA 2 and DMA 3 into one round at 406. DMA 0's retry
    // goes to translate(), which records a cap rejection; DMA 2 takes
    // the walker; DMA 3's probe is refused.
    EXPECT_EQ(run.attempts,
              (std::vector<Attempt>{
                  {1, 0, true, 0},    {1, 1, false, 0},
                  {0, 10, true, 0},   {0, 11, false, 0},
                  {2, 20, false, 0},  {3, 30, false, 0},
                  {0, 406, false, 0}, {1, 406, true, 0},
                  {2, 406, true, 0},  {3, 406, false, 0},
                  {2, 407, false, 0}, {0, 416, true, 0},
                  {2, 416, false, 0}, {3, 416, true, 0},
                  {3, 417, false, 0}, {2, 812, true, 0},
                  {3, 812, false, 0}, {3, 822, true, 0},
              }));
    // Cap rejections never reach the engine.
    EXPECT_EQ(run.translates,
              (std::vector<SpyEngine::Call>{
                  {0, 1, 0, true},    {10, 0, 0, true},
                  {20, 2, 0, false},  {30, 3, 0, false},
                  {406, 1, 2, true},  {406, 2, 1, true},
                  {416, 0, 3, true},  {416, 3, 2, true},
                  {812, 2, 4, true},  {822, 3, 5, true},
              }));
    EXPECT_EQ(run.capRejections,
              (std::vector<std::uint64_t>{2, 1, 2, 2}));
    EXPECT_EQ(run.stalls,
              (std::vector<std::uint64_t>{403, 404, 788, 787}));
    EXPECT_EQ(run.finishes, (std::vector<Tick>{525, 515, 921, 931}));
}

TEST(DmaRetryRound, RunStoppedAtAWakeChargesThePendingWaits)
{
    RetryHarness h;
    MmuConfig cfg = baselineIommuConfig();
    cfg.numPtws = 1;
    MmuCore mmu("mmu", h.eq, h.pt, cfg);
    TranslationRouter router(mmu, 3, RouterPolicy::Shared, 1);
    for (unsigned c = 0; c < 3; c++) {
        h.addDma(router.port(c));
        h.fetchPage(c);
    }

    // The walk ends at 405 and wakes DMAs 1 and 2 into the round at
    // 406. A run stopped at the wake charges their waits then, as
    // the wake itself would; the round adds nothing on top.
    h.eq.run(405);
    EXPECT_EQ(h.dmas[1]->stallCycles(), 0u);
    router.chargePendingWaits();
    EXPECT_EQ(h.dmas[1]->stallCycles(), 405u);
    EXPECT_EQ(h.dmas[2]->stallCycles(), 405u);
    router.chargePendingWaits();
    EXPECT_EQ(h.dmas[2]->stallCycles(), 405u);

    h.eq.run();
    // The same totals as an unbroken run (WokenDmasRetryTogether...).
    EXPECT_EQ(h.dmas[0]->stallCycles(), 0u);
    EXPECT_EQ(h.dmas[1]->stallCycles(), 405u);
    EXPECT_EQ(h.dmas[2]->stallCycles(), 810u);
}

namespace {

/** A RetryRound member that counts its retries. */
class CountingMember : public RetryMember
{
  public:
    unsigned retries = 0;

  private:
    void retry() override { retries++; }
};

} // namespace

TEST(RetryRoundDeathTest, MemberInAPendingRoundCannotJoinAgain)
{
    EventQueue eq;
    RetryRound round(eq);
    CountingMember member;
    round.join(member);
    EXPECT_TRUE(member.inRetryRound());
    EXPECT_DEATH(round.join(member), "joined two rounds");
    eq.run();
    EXPECT_EQ(member.retries, 1u);
    // Its round fired: it may join the next one.
    EXPECT_FALSE(member.inRetryRound());
    round.join(member);
    eq.run();
    EXPECT_EQ(member.retries, 2u);
}

namespace {

/** Admits and accepts only the pages the test opens; answers
 *  accepted requests when the test calls respond(). */
class PageGateEngine : public TranslationEngine
{
  public:
    explicit PageGateEngine(EventQueue &eq) : _eq(eq) {}

    std::vector<Addr> open;
    /** translate() calls, as "<tick>:<page index>:<ok|rejected>". */
    std::vector<std::string> calls;
    Addr base = 0;

    bool
    admits(Addr va) override
    {
        return std::find(open.begin(), open.end(), va) != open.end();
    }
    bool
    translate(Addr va, std::uint64_t id) override
    {
        const bool ok = admits(va);
        calls.push_back(std::to_string(_eq.now()) + ":" +
                        std::to_string((va - base) / 4096) + ":" +
                        (ok ? "ok" : "rejected"));
        if (ok)
            _accepted.push_back(TranslationResponse{id, va, va});
        return ok;
    }
    void
    setResponseCallback(ResponseCallback cb) override
    {
        _respond = std::move(cb);
    }
    void setWakeCallback(WakeCallback cb) override { _wake = std::move(cb); }
    const MmuCounts &counts() const override { return _counts; }

    void respond(std::size_t i) { _respond(_accepted.at(i)); }
    void wake() { _wake(); }

  private:
    EventQueue &_eq;
    std::vector<TranslationResponse> _accepted;
    ResponseCallback _respond;
    WakeCallback _wake;
    MmuCounts _counts;
};

} // namespace

TEST(DmaRetryRound, CapWokenPortProbesTheVaItWasCappedOn)
{
    RetryHarness h;
    PageGateEngine engine(h.eq);
    engine.base = h.base;
    // One client capped at one request in flight.
    TranslationRouter router(engine, 1, RouterPolicy::Partitioned, 1);
    DmaEngine &dma = h.addDma(router.port(0));
    const Addr page0 = h.base, page1 = h.base + 4096;
    dma.fetch({VaRun{page0, 1024}, VaRun{page1, 1024}}, [](Tick) {});
    // Page 0 is refused at 0, opened and woken at 10, so its retry at
    // 11 takes the one slot; page 1 then hits the cap at 12.
    h.eq.schedule(10, [&] {
        engine.open = {page0};
        engine.wake();
    });
    // The response at 20 wakes the port below its cap. Its round
    // probes page 1, which the engine refuses: no translate() call.
    h.eq.schedule(20, [&] { engine.respond(0); });
    h.eq.schedule(30, [&] {
        engine.open = {page0, page1};
        engine.wake();
    });
    h.eq.run();
    EXPECT_EQ(engine.calls, (std::vector<std::string>{
                                "0:0:rejected", "11:0:ok", "31:1:ok"}));
    ASSERT_EQ(h.log.size(), 5u);
    EXPECT_EQ(h.log[2], (Attempt{0, 12, false, h.log[2].event}));
    EXPECT_EQ(h.log[3], (Attempt{0, 21, false, h.log[3].event}));
    EXPECT_EQ(router.capRejections(0), 1u);
}
