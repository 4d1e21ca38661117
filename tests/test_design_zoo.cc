/**
 * @file
 * The MMU design zoo: translation-engine factory surface (keys,
 * aliases, error enumeration), ConfigBinder design selection and
 * override ordering, unit behavior of the three non-walker-core
 * designs (RangeMMU, PomTlb, NMT), their shootdown coherence under
 * demand paging, the frame-at-delivery and drain contract every
 * registered design keeps under unmaps and faults, and sharded-kernel
 * dump invariance for every registered design.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"
#include "mmu/nmt.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/range_mmu.hh"
#include "mmu/translation_factory.hh"
#include "sim/event_queue.hh"
#include "sweep/config_binder.hh"
#include "sweep/manifest.hh"
#include "sweep/sweep_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

// ---------------------------------------------------------------------
// Factory surface
// ---------------------------------------------------------------------

TEST(DesignFactory, TableKeysRoundTripThroughParse)
{
    for (const TranslationDesignDoc &doc : translationDesignTable()) {
        MmuKind kind;
        ASSERT_TRUE(translationDesignFromName(doc.key, kind))
            << doc.key;
        EXPECT_EQ(translationDesignKey(kind), doc.key);
        EXPECT_EQ(mmuKindName(kind), doc.title) << doc.key;
    }
}

TEST(DesignFactory, AliasesResolve)
{
    MmuKind kind;
    ASSERT_TRUE(translationDesignFromName("baseline", kind));
    EXPECT_EQ(kind, MmuKind::BaselineIommu);
    ASSERT_TRUE(translationDesignFromName("RangeMMU", kind));
    EXPECT_EQ(kind, MmuKind::RangeMmu);
    ASSERT_TRUE(translationDesignFromName("pom", kind));
    EXPECT_EQ(kind, MmuKind::PomTlb);
    EXPECT_FALSE(translationDesignFromName("radix", kind));
}

TEST(DesignFactory, UnknownDesignErrorEnumeratesValidKeys)
{
    SystemConfig cfg;
    try {
        sweep::applyOverride(cfg, "mmu.design", "bogus");
        FAIL() << "bogus design bound";
    } catch (const sweep::BindError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(translationDesignList()),
                  std::string::npos)
            << what;
        for (const TranslationDesignDoc &doc :
             translationDesignTable())
            EXPECT_NE(what.find(doc.key), std::string::npos)
                << doc.key;
    }
}

TEST(DesignFactory, BuildsEveryRegisteredDesign)
{
    for (const TranslationDesignDoc &doc : translationDesignTable()) {
        FrameAllocator node("host", Addr(1) << 40, 1 * GiB);
        PageTable pt(node);
        EventQueue eq;
        SystemConfig cfg;
        MmuKind kind;
        ASSERT_TRUE(translationDesignFromName(doc.key, kind));
        cfg.mmuKind = kind;
        std::unique_ptr<MmuEngine> engine = makeTranslationEngine(
            kind, std::string("mmu_") + doc.key, eq, pt, cfg);
        ASSERT_NE(engine, nullptr) << doc.key;
        EXPECT_GE(engine->walkerBudget(), 1u) << doc.key;
        // Walker-core designs (and only those) downcast to MmuCore.
        EXPECT_EQ(engine->asMmuCore() != nullptr,
                  isWalkerCoreKind(kind))
            << doc.key;
    }
}

// ---------------------------------------------------------------------
// Binder ordering (the override-ordering bugfix)
// ---------------------------------------------------------------------

TEST(DesignBinder, KindThenEditsCustomizesTheNamedPoint)
{
    SystemConfig cfg;
    sweep::applyOverride(cfg, "mmuKind", "neummu");
    sweep::applyOverride(cfg, "mmu.numPtws", "32");
    EXPECT_EQ(cfg.mmuKind, MmuKind::Custom);
    EXPECT_EQ(cfg.mmu.numPtws, 32u);
    // The rest of the materialized config is the NeuMMU point.
    EXPECT_EQ(cfg.mmu.prmbSlots, neuMmuConfig().prmbSlots);
}

TEST(DesignBinder, EditsThenKindIsAnOrderingError)
{
    // Before the fix this order silently discarded the mmu.* edit;
    // now it refuses deterministically.
    SystemConfig cfg;
    sweep::applyOverride(cfg, "mmu.numPtws", "32");
    EXPECT_EQ(cfg.mmuKind, MmuKind::Custom);
    for (const char *key : {"mmuKind", "mmu.design"}) {
        try {
            sweep::applyOverride(cfg, key, "neummu");
            FAIL() << key << " after mmu.* edits did not throw";
        } catch (const sweep::BindError &err) {
            EXPECT_NE(std::string(err.what()).find("discard"),
                      std::string::npos)
                << err.what();
        }
    }
    // The edit survived the rejected overrides.
    EXPECT_EQ(cfg.mmu.numPtws, 32u);
    // Re-selecting "custom" is a no-op, not an error.
    sweep::applyOverride(cfg, "mmu.design", "custom");
    EXPECT_EQ(cfg.mmuKind, MmuKind::Custom);
}

TEST(DesignBinder, WalkerCoreKeysRejectedOnZooDesigns)
{
    SystemConfig cfg;
    sweep::applyOverride(cfg, "mmu.design", "range");
    try {
        sweep::applyOverride(cfg, "mmu.numPtws", "32");
        FAIL() << "mmu.* keys bound onto a zoo design";
    } catch (const sweep::BindError &err) {
        EXPECT_NE(std::string(err.what()).find("mmu.range.*"),
                  std::string::npos)
            << err.what();
    }
}

TEST(DesignBinder, ZooKnobsBindWithoutFlippingTheKind)
{
    SystemConfig cfg;
    const MmuKind before = cfg.mmuKind;
    sweep::applyOverride(cfg, "mmu.range.entries", "8");
    sweep::applyOverride(cfg, "mmu.range.maxPages", "64");
    sweep::applyOverride(cfg, "mmu.pom.entries", "4096");
    sweep::applyOverride(cfg, "mmu.pom.ways", "2");
    sweep::applyOverride(cfg, "mmu.nmt.segmentShift", "4");
    sweep::applyOverride(cfg, "mmu.nmt.fetchLatency", "50");
    EXPECT_EQ(cfg.mmuKind, before);
    EXPECT_EQ(cfg.rangeMmu.entries, 8u);
    EXPECT_EQ(cfg.rangeMmu.maxRangePages, 64u);
    EXPECT_EQ(cfg.pomTlb.entries, 4096u);
    EXPECT_EQ(cfg.pomTlb.ways, 2u);
    EXPECT_EQ(cfg.nmt.segmentShift, 4u);
    EXPECT_EQ(cfg.nmt.fetchLatency, 50u);
    // ... and survive a later preset (machine swap keeps the zoo
    // sub-configs, like sim.*).
    sweep::applyOverride(cfg, "mmu.design", "nmt");
    sweep::applyOverride(cfg, "preset", "dlrm_paging");
    EXPECT_EQ(cfg.mmuKind, MmuKind::Nmt);
    EXPECT_EQ(cfg.nmt.fetchLatency, 50u);
    EXPECT_EQ(cfg.rangeMmu.entries, 8u);
}

// ---------------------------------------------------------------------
// Engine unit behavior
// ---------------------------------------------------------------------

namespace {

/** Fixture mapping a contiguous region behind a chosen zoo engine. */
class ZooEngineTest : public ::testing::Test
{
  protected:
    ZooEngineTest() : node("host", Addr(1) << 40, 1 * GiB), pt(node) {}

    void
    mapPages(std::uint64_t pages)
    {
        base = Addr(0x80) << 30;
        // Allocate all leaf frames before mapping: pt.map() carves
        // radix nodes from the same allocator, and interleaving them
        // would break the PA contiguity RangeMMU eagerly probes for.
        std::vector<Addr> frames;
        for (std::uint64_t i = 0; i < pages; i++)
            frames.push_back(node.allocate(4096, 4096));
        for (std::uint64_t i = 0; i < pages; i++)
            pt.map(base + i * 4096, frames[i], smallPageShift);
        mapped = pages;
    }

    void
    attach(MmuEngine &engine)
    {
        engine.setResponseCallback(
            [this](const TranslationResponse &r) {
                responses.push_back({eq.now(), r});
            });
        engine.setWakeCallback([this] { wakes++; });
    }

    FrameAllocator node;
    PageTable pt;
    EventQueue eq;
    Addr base = 0;
    std::uint64_t mapped = 0;
    std::vector<std::pair<Tick, TranslationResponse>> responses;
    unsigned wakes = 0;
};

} // namespace

TEST_F(ZooEngineTest, RangeMmuOneWalkCoversTheContiguousRun)
{
    mapPages(32);
    RangeMmuConfig cfg;
    RangeMmu mmu("range", eq, pt, smallPageShift, cfg);
    attach(mmu);

    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    // Miss cost: hit-latency probe + 4 radix levels.
    EXPECT_EQ(responses[0].first,
              cfg.hitLatency + 4 * cfg.walkLatencyPerLevel);
    EXPECT_EQ(mmu.counts().walks, 1u);
    EXPECT_EQ(mmu.liveRanges(), 1u);

    // The whole bump-allocated run was installed as ONE range: the
    // 31st page away hits without another walk.
    ASSERT_TRUE(mmu.translate(base + 31 * 4096 + 8, 2));
    const Tick t0 = eq.now();
    eq.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].first - t0, cfg.hitLatency);
    EXPECT_EQ(mmu.counts().walks, 1u);
    EXPECT_EQ(mmu.counts().tlbHits, 1u);
    // Translation is base+offset inside the run.
    const WalkResult w = pt.walk(base + 31 * 4096 + 8);
    EXPECT_EQ(responses[1].second.pa, w.pa);
}

TEST_F(ZooEngineTest, RangeMmuShootdownSplitsInsteadOfFlushing)
{
    mapPages(32);
    RangeMmu mmu("range", eq, pt, smallPageShift, RangeMmuConfig{});
    attach(mmu);
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(mmu.liveRanges(), 1u);

    // Kill a middle page: the covering range splits around it.
    const Addr victim = base + 16 * 4096;
    const UnmapResult um = pt.unmap(victim);
    ASSERT_TRUE(um.unmapped);
    mmu.shootdown(victim, um);
    EXPECT_EQ(mmu.liveRanges(), 2u);
    EXPECT_EQ(mmu.counts().shootdowns, 1u);

    // Both halves still hit; the dead page would miss.
    ASSERT_TRUE(mmu.translate(base + 4096, 2));
    ASSERT_TRUE(mmu.translate(base + 20 * 4096, 3));
    eq.run();
    EXPECT_EQ(mmu.counts().tlbHits, 2u);
    EXPECT_EQ(mmu.counts().walks, 1u);
}

TEST_F(ZooEngineTest, PomTlbServesL1MissesFromMemory)
{
    mapPages(8);
    PomTlbConfig cfg;
    cfg.l1.entries = 2;
    PomTlb mmu("pom", eq, pt, smallPageShift, cfg);
    attach(mmu);

    // Cold: L1 miss -> POM lookup (timed DRAM read) -> POM miss ->
    // radix walk -> install everywhere.
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(mmu.counts().walks, 1u);
    EXPECT_EQ(mmu.pomSize(), 1u);

    // Evict base from the tiny L1 with two other pages; the re-access
    // then misses L1 but hits the in-memory level: no second walk.
    ASSERT_TRUE(mmu.translate(base + 4096, 2));
    eq.run();
    ASSERT_TRUE(mmu.translate(base + 2 * 4096, 3));
    eq.run();
    ASSERT_TRUE(mmu.translate(base, 4));
    eq.run();
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(mmu.counts().walks, 3u); // one per distinct page only
    const WalkResult w = pt.walk(base);
    EXPECT_EQ(responses[3].second.pa, w.pa);
}

TEST_F(ZooEngineTest, PomTlbShootdownScrubsBothLevels)
{
    mapPages(4);
    PomTlb mmu("pom", eq, pt, smallPageShift, PomTlbConfig{});
    attach(mmu);
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(mmu.pomSize(), 1u);

    const UnmapResult um = pt.unmap(base);
    ASSERT_TRUE(um.unmapped);
    mmu.shootdown(base, um);
    EXPECT_EQ(mmu.pomSize(), 0u);
    EXPECT_EQ(mmu.counts().shootdowns, 1u);
}

TEST_F(ZooEngineTest, NmtSegmentHitNeedsTheMappedPage)
{
    mapPages(8);
    NmtConfig cfg;
    cfg.segmentShift = 4; // 16-page segments
    Nmt mmu("nmt", eq, pt, smallPageShift, cfg);
    attach(mmu);

    // One flat fetch -- not a 4-level walk -- per segment miss.
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].first, cfg.hitLatency + cfg.fetchLatency);
    EXPECT_EQ(mmu.counts().walkMemAccesses, 1u);
    EXPECT_EQ(mmu.liveSegments(), 1u);

    // A mapped sibling page in the cached segment hits...
    ASSERT_TRUE(mmu.translate(base + 3 * 4096, 2));
    const Tick t0 = eq.now();
    eq.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].first - t0, cfg.hitLatency);
    EXPECT_EQ(mmu.counts().tlbHits, 1u);

    // ...but an UNMAPPED page in the same segment must not ride the
    // segment hit past its demand fault: it faults and maps.
    bool faulted = false;
    mmu.setFaultHandler([&](Addr va, Tick now) -> Tick {
        faulted = true;
        pt.map(pageBase(va, smallPageShift),
               node.allocate(4096, 4096), smallPageShift);
        return now + 10;
    });
    ASSERT_TRUE(mmu.translate(base + 9 * 4096, 3));
    eq.run();
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_TRUE(faulted);
    EXPECT_EQ(mmu.counts().faults, 1u);
}

TEST_F(ZooEngineTest, NmtShootdownDropsTheSegment)
{
    mapPages(8);
    NmtConfig cfg;
    cfg.segmentShift = 2; // 4-page segments
    Nmt mmu("nmt", eq, pt, smallPageShift, cfg);
    attach(mmu);
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(mmu.liveSegments(), 1u);

    const UnmapResult um = pt.unmap(base + 4096);
    ASSERT_TRUE(um.unmapped);
    mmu.shootdown(base + 4096, um);
    EXPECT_EQ(mmu.liveSegments(), 0u);

    // The next access to the segment re-fetches.
    ASSERT_TRUE(mmu.translate(base + 2 * 4096, 2));
    eq.run();
    EXPECT_EQ(mmu.counts().walks, 2u);
}

TEST_F(ZooEngineTest, ZooEnginesBackpressureAtTheirWalkerBudget)
{
    mapPages(64);
    RangeMmuConfig r_cfg;
    r_cfg.numWalkers = 2;
    // Defeat eager construction so each page is its own miss: scatter
    // targets across far-apart segments of the mapped run.
    RangeMmu range("range", eq, pt, smallPageShift, r_cfg);
    attach(range);
    ASSERT_TRUE(range.translate(base + 0 * 4096, 1));
    ASSERT_TRUE(range.translate(base + 63 * 4096, 2));
    EXPECT_FALSE(range.translate(base + 32 * 4096, 3));
    EXPECT_EQ(range.counts().blockedIssues, 1u);
    const unsigned wakes_before = wakes;
    eq.run();
    EXPECT_GT(wakes, wakes_before); // retry signal on drain

    NmtConfig n_cfg;
    n_cfg.segmentShift = 0; // 1-page segments
    n_cfg.numUnits = 1;
    Nmt nmt("nmt", eq, pt, smallPageShift, n_cfg);
    attach(nmt);
    ASSERT_TRUE(nmt.translate(base, 10));
    EXPECT_FALSE(nmt.translate(base + 4096, 11));
    EXPECT_EQ(nmt.counts().blockedIssues, 1u);
    eq.run();
}

// ---------------------------------------------------------------------
// Coherence under demand paging (shootdown + fault, end to end)
// ---------------------------------------------------------------------

namespace {

/** The oversub_gather golden scenario on an arbitrary design. */
void
runOversubGather(MmuKind kind)
{
    const EmbeddingModelSpec spec = makeDlrm();
    const EmbeddingSystemConfig cluster;
    SystemConfig cfg = demandPagingSystemConfig(spec, cluster, kind);
    cfg.name = "zoo";
    cfg.seed = 7;
    cfg.paging.enabled = true;
    cfg.paging.policy = EvictionPolicy::Clock;
    cfg.paging.residentLimitBytes = 48 * pageSize(cfg.pageShift);
    cfg.paging.faultLatency = cluster.faultHandlerLatency;
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.add(std::make_unique<EmbeddingWorkload>(
                      demandPagingWorkloadConfig(spec, 1, cluster)),
                  0);
    const SchedulerResult result = scheduler.run();
    ASSERT_TRUE(result.allDone) << mmuKindName(kind);

    const MmuCounts counts = system.mmu().counts();
    // Every accepted request (requests counts blocked retries too)
    // got exactly one response.
    EXPECT_EQ(counts.responses, counts.requests - counts.blockedIssues)
        << mmuKindName(kind);
    EXPECT_GT(counts.faults, 0u) << mmuKindName(kind);
    // The 48-page cap forces steady-state eviction: the design saw
    // shootdowns and survived them (no stale PA broke the walk
    // asserts, every request completed).
    EXPECT_GT(counts.shootdowns, 0u) << mmuKindName(kind);
}

} // namespace

TEST(ZooCoherence, RangeMmuSurvivesPagingChurn)
{
    runOversubGather(MmuKind::RangeMmu);
}

TEST(ZooCoherence, PomTlbSurvivesPagingChurn)
{
    runOversubGather(MmuKind::PomTlb);
}

TEST(ZooCoherence, NmtSurvivesPagingChurn)
{
    runOversubGather(MmuKind::Nmt);
}

namespace {

/** Every registered design key, as test parameters. */
std::vector<std::string>
designKeys()
{
    std::vector<std::string> keys;
    for (const TranslationDesignDoc &doc : translationDesignTable())
        keys.push_back(doc.key);
    return keys;
}

class EveryDesign : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(EveryDesign, AnswersWithTheFrameMappedAtDeliveryAndDrainsIdle)
{
    // A seeded stream over four channels against a design with the
    // page lifecycle on, interleaved with unmaps of idle pages as the
    // paging engine makes them (shootdown right after the unmap) and
    // demand faults that map a fresh frame. Leaf frames are never
    // reused, so a stale frame can never pass for the current one.
    FrameAllocator node("host", Addr(1) << 40, 1 * GiB);
    PageTable pt(node);
    EventQueue eq;
    SystemConfig cfg;
    MmuKind kind;
    ASSERT_TRUE(translationDesignFromName(GetParam(), kind));
    cfg.mmuKind = kind;
    std::unique_ptr<MmuEngine> mmu =
        makeTranslationEngine(kind, "mmu", eq, pt, cfg);
    mmu->enableLifecycle();

    const Addr base = Addr(0x80) << 30;
    const unsigned pages = 192;
    for (unsigned p = 0; p < pages; p += 2)
        pt.map(base + Addr(p) * 4096, node.allocate(4096, 4096),
               smallPageShift);
    mmu->setFaultHandler([&](Addr va, Tick now) -> Tick {
        pt.map(pageBase(va, smallPageShift), node.allocate(4096, 4096),
               smallPageShift);
        return now + 300;
    });

    std::uint64_t responses = 0;
    mmu->setResponseCallback([&](const TranslationResponse &r) {
        responses++;
        const WalkResult walk = pt.walk(r.va);
        ASSERT_TRUE(walk.valid) << "va " << r.va << " unmapped at delivery";
        EXPECT_EQ(r.pa, walk.pa) << "va " << r.va << " id " << r.id;
    });

    // Refused requests wait in order and retry inside the wake.
    std::vector<std::pair<Addr, std::uint64_t>> waiting;
    std::size_t next_waiting = 0;
    std::uint64_t accepted = 0, refused = 0;
    mmu->setWakeCallback([&] {
        while (next_waiting < waiting.size()) {
            const auto [va, id] = waiting[next_waiting];
            if (!mmu->translate(va, id))
                return;
            accepted++;
            next_waiting++;
        }
    });

    Rng rng(29);
    std::vector<bool> touched(pages, false);
    std::uint64_t id = 0, unmaps = 0;
    for (unsigned round = 0; round < 600; round++) {
        const std::uint64_t burst = rng.range(24);
        for (std::uint64_t i = 0; i < burst; i++) {
            const unsigned page = rng.range(3) == 0
                                      ? unsigned(rng.range(8))
                                      : unsigned(rng.range(pages));
            touched[page] = true;
            const Addr va = base + Addr(page) * 4096 + rng.range(4096);
            const std::uint64_t tagged = (rng.range(4) << 56) | id++;
            if (next_waiting == waiting.size() &&
                mmu->translate(va, tagged)) {
                accepted++;
                continue;
            }
            refused++;
            waiting.emplace_back(va, tagged);
        }
        for (unsigned i = rng.range(3); i > 0; i--) {
            const Addr va = base + rng.range(pages) * 4096;
            if (!pt.isMapped(va) || mmu->vpnBusy(va >> smallPageShift))
                continue;
            const UnmapResult um = pt.unmap(va);
            ASSERT_TRUE(um.unmapped);
            mmu->shootdown(va, um);
            unmaps++;
        }
        const Tick next = eq.now() + 1 + rng.range(150);
        eq.schedule(next, [] {});
        eq.run(next);
    }
    eq.run();

    EXPECT_EQ(next_waiting, waiting.size()) << "a refused request was "
                                               "never retried";
    EXPECT_EQ(responses, accepted);
    EXPECT_EQ(mmu->counts().responses, accepted);
    EXPECT_EQ(accepted, id);
    for (unsigned p = 0; p < pages; p++) {
        if (touched[p]) {
            EXPECT_FALSE(mmu->vpnBusy((base >> smallPageShift) + p))
                << "page " << p << " busy after the drain";
        }
    }
    EXPECT_TRUE(mmu->idle());
    EXPECT_GT(unmaps, 0u);
    EXPECT_GT(mmu->counts().faults, 0u);
    EXPECT_EQ(mmu->counts().shootdowns, unmaps);
    if (kind != MmuKind::Oracle) {
        EXPECT_GT(mmu->counts().tlbHits, 0u);
    }
    // NeuMMU's 128 walkers and 32-slot PRMBs never fill on this
    // stream; every other design refuses and retries.
    if (kind != MmuKind::Oracle && kind != MmuKind::NeuMmu) {
        EXPECT_GT(refused, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Zoo, EveryDesign,
                         ::testing::ValuesIn(designKeys()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Sharded-kernel compatibility: every design, byte-identical dumps
// ---------------------------------------------------------------------

namespace {

std::string
runHotsetDump(const std::string &design, unsigned shards)
{
    SystemConfig cfg;
    cfg.name = "zoo";
    cfg.seed = 7;
    sweep::applyOverride(cfg, "mmu.design", design);
    if (shards) {
        sweep::applyOverride(cfg, "sim.shards",
                             std::to_string(shards));
    }
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.add(makeWorkloadFromSpec(
        "synthetic:pattern=hotset,footprint=8M,accesses=2048"));
    const SchedulerResult result = scheduler.run();
    EXPECT_TRUE(result.allDone) << design << " shards=" << shards;
    std::ostringstream os;
    system.dumpStatsJson(os);
    return os.str();
}

} // namespace

TEST(ZooSharded, EveryDesignDumpInvariantAcrossShardCounts)
{
    for (const TranslationDesignDoc &doc : translationDesignTable()) {
        // Shard count is an execution knob, never a model knob: the
        // legacy kernel runs (shards=0), and every sharded width
        // produces one byte-identical dump.
        const std::string legacy = runHotsetDump(doc.key, 0);
        EXPECT_FALSE(legacy.empty()) << doc.key;
        const std::string one = runHotsetDump(doc.key, 1);
        const std::string four = runHotsetDump(doc.key, 4);
        EXPECT_EQ(one, four)
            << doc.key << ": sim.shards changed simulated results";
    }
}
