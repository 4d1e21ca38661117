/**
 * @file
 * SweepEngine subsystem tests: the ConfigBinder key surface, the
 * JSONL manifest / grid-spec loaders, the engine's execution
 * contract (declarative jobs match direct System construction,
 * failure isolation, deterministic result ordering, rep
 * cross-checking), the ResultSink's merged JSON / CSV, the json_lite
 * reader, and the concurrency-safety regression: two Systems running
 * on two threads must dump byte-identical stats to their serial
 * runs, which is what makes parallel sweeps sound.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <utility>

#include "sweep/json_lite.hh"
#include "sweep/manifest.hh"
#include "sweep/result_sink.hh"
#include "sweep/sweep_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/** Serial reference: build + run one System, return its dump. */
std::string
runDirect(const SystemConfig &cfg,
          const std::vector<std::string> &workload_specs)
{
    SystemConfig sized = cfg;
    sized.numNpus = std::max<unsigned>(
        sized.numNpus, unsigned(workload_specs.size()));
    System system(sized);
    Scheduler scheduler(system);
    for (const std::string &spec : workload_specs)
        scheduler.add(makeWorkloadFromSpecChecked(spec));
    EXPECT_TRUE(scheduler.run().allDone);
    std::ostringstream os;
    system.dumpStatsJson(os);
    return os.str();
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

} // namespace

// ---------------------------------------------------------------------
// ConfigBinder.
// ---------------------------------------------------------------------

TEST(ConfigBinder, BindsSystemLevelKeys)
{
    SystemConfig cfg;
    sweep::applyOverrides(cfg, {{"name", "swept"},
                                {"seed", "42"},
                                {"numNpus", "4"},
                                {"mmuKind", "neummu"},
                                {"routerPolicy", "partitioned"},
                                {"sharedMemory", "1"},
                                {"pageShift", "21"},
                                {"npuHbmBytes", "2G"}});
    EXPECT_EQ(cfg.name, "swept");
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_EQ(cfg.numNpus, 4u);
    EXPECT_EQ(cfg.mmuKind, MmuKind::NeuMmu);
    EXPECT_EQ(cfg.routerPolicy, RouterPolicy::Partitioned);
    EXPECT_TRUE(cfg.sharedMemory);
    EXPECT_EQ(cfg.pageShift, 21u);
    EXPECT_EQ(cfg.npuHbmBytes, 2ull << 30);
}

TEST(ConfigBinder, MmuKeysMaterializeTheResolvedConfig)
{
    // Editing one MMU knob of a named design point starts from that
    // point's canned config and flips the kind to Custom.
    SystemConfig cfg;
    sweep::applyOverrides(
        cfg, {{"mmuKind", "neummu"}, {"mmu.numPtws", "32"}});
    EXPECT_EQ(cfg.mmuKind, MmuKind::Custom);
    const MmuConfig reference = neuMmuConfig();
    EXPECT_EQ(cfg.mmu.numPtws, 32u);
    EXPECT_EQ(cfg.mmu.prmbSlots, reference.prmbSlots);
    EXPECT_EQ(cfg.mmu.pathCache, reference.pathCache);
    EXPECT_EQ(cfg.mmu.tlb.entries, reference.tlb.entries);

    // A second mmu.* key must edit the same materialized config, not
    // re-resolve it.
    sweep::applyOverride(cfg, "mmu.prmbSlots", "4");
    EXPECT_EQ(cfg.mmu.numPtws, 32u);
    EXPECT_EQ(cfg.mmu.prmbSlots, 4u);
}

TEST(ConfigBinder, ResidentLimitPagesUsesCurrentPageShift)
{
    SystemConfig cfg;
    sweep::applyOverride(cfg, "paging.residentLimitPages", "48");
    EXPECT_EQ(cfg.paging.residentLimitBytes,
              48u * pageSize(smallPageShift));

    SystemConfig large;
    sweep::applyOverrides(
        large, {{"pageShift", "21"},
                {"paging.residentLimitPages", "3"}});
    EXPECT_EQ(large.paging.residentLimitBytes, 3u * pageSize(21));
}

TEST(ConfigBinder, PresetReplacesMachineKeepingIdentity)
{
    SystemConfig cfg;
    sweep::applyOverrides(cfg, {{"name", "keepme"},
                                {"seed", "9"},
                                {"mmuKind", "baseline"},
                                {"preset", "dlrm_paging"}});
    const SystemConfig reference = demandPagingSystemConfig(
        makeDlrm(), EmbeddingSystemConfig{}, MmuKind::BaselineIommu);
    EXPECT_EQ(cfg.name, "keepme");
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_EQ(cfg.mmuKind, MmuKind::BaselineIommu);
    EXPECT_EQ(cfg.dmaBurstBytes, reference.dmaBurstBytes);
    EXPECT_EQ(cfg.pageShift, reference.pageShift);
}

TEST(ConfigBinder, RejectsJunk)
{
    SystemConfig cfg;
    EXPECT_THROW(sweep::applyOverride(cfg, "noSuchKey", "1"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "seed", "banana"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "mmuKind", "magic"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "paging.enabled", "maybe"),
                 sweep::BindError);
    // preset needs a named kind to instantiate.
    EXPECT_THROW(sweep::applyOverride(cfg, "preset", "dlrm_paging"),
                 sweep::BindError);
    EXPECT_THROW(sweep::parseOverride("novalue"), sweep::BindError);
    // Every documented key must stay bindable (doc/table drift).
    for (const sweep::BinderKeyDoc &doc : sweep::binderKeyTable())
        EXPECT_NE(sweep::binderHelp().find(doc.key),
                  std::string::npos);
}

TEST(ConfigBinder, SimThreadsAndHubNpusAreUnknownKeys)
{
    // The hop model runs serially, so there is no thread knob; and
    // every hop-model NPU is remote, so there is no residency knob.
    SystemConfig cfg;
    for (const std::string gone : {"sim.threads", "sim.hubNpus"}) {
        try {
            sweep::applyOverride(cfg, gone, "1");
            FAIL() << gone << " was accepted";
        } catch (const sweep::BindError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("unknown sweep config key '" + gone +
                                "'"),
                      std::string::npos)
                << what;
            for (const char *key : {"sim.shards", "sim.hopTicks",
                                    "sim.portCredits", "sim.profile"})
                EXPECT_NE(what.find(key), std::string::npos) << what;
        }
    }
}

// ---------------------------------------------------------------------
// json_lite.
// ---------------------------------------------------------------------

TEST(JsonLite, ParsesValuesPreservingOrderAndRawNumbers)
{
    const sweep::JsonValue v = sweep::parseJson(
        "{\"b\": 1e3, \"a\": [true, null, \"x\\n\"], \"c\": -0.50}");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members.size(), 3u);
    // Insertion order, not sorted.
    EXPECT_EQ(v.members[0].first, "b");
    EXPECT_EQ(v.members[1].first, "a");
    // Numbers keep their raw spelling.
    EXPECT_EQ(v.members[0].second.text, "1e3");
    EXPECT_EQ(v.find("c")->text, "-0.50");
    EXPECT_DOUBLE_EQ(v.find("c")->number(), -0.5);
    const sweep::JsonValue &arr = *v.find("a");
    ASSERT_TRUE(arr.isArray());
    ASSERT_EQ(arr.items.size(), 3u);
    EXPECT_TRUE(arr.items[0].boolean);
    EXPECT_TRUE(arr.items[1].isNull());
    EXPECT_EQ(arr.items[2].text, "x\n");
}

TEST(JsonLite, RejectsJunk)
{
    EXPECT_THROW(sweep::parseJson("{\"a\": }"), sweep::JsonError);
    EXPECT_THROW(sweep::parseJson("{} trailing"), sweep::JsonError);
    EXPECT_THROW(sweep::parseJson("{\"a\": 1"), sweep::JsonError);
    EXPECT_THROW(sweep::parseJson(""), sweep::JsonError);
    // An exponent marker needs digits; "2e" must not silently parse
    // as 2 (a typo'd manifest reps/limit would run wrong).
    EXPECT_THROW(sweep::parseJson("{\"reps\": 2e}"),
                 sweep::JsonError);
    EXPECT_THROW(sweep::parseJson("{\"limit\": 3e+}"),
                 sweep::JsonError);
}

// ---------------------------------------------------------------------
// Manifest + grid expansion.
// ---------------------------------------------------------------------

TEST(Manifest, ParsesJsonlWithCommentsAndDefaults)
{
    std::istringstream in(
        "# comment line\n"
        "\n"
        "{\"id\": \"first\", \"set\": {\"seed\": 3, "
        "\"mmuKind\": \"neummu\"}, "
        "\"workloads\": [\"synthetic:pattern=stride\"], \"reps\": 2}\n"
        "{\"workloads\": \"synthetic:pattern=uniform\", "
        "\"limit\": 500}\n");
    const std::vector<sweep::JobSpec> jobs =
        sweep::parseManifest(in, "test", SystemConfig{});
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, "first");
    ASSERT_EQ(jobs[0].overrides.size(), 2u);
    // "set" preserves member order (it is order-sensitive).
    EXPECT_EQ(jobs[0].overrides[0].first, "seed");
    EXPECT_EQ(jobs[0].overrides[0].second, "3");
    EXPECT_EQ(jobs[0].reps, 2u);
    EXPECT_EQ(jobs[1].id, "job1");
    ASSERT_EQ(jobs[1].workloads.size(), 1u);
    EXPECT_EQ(jobs[1].limit, Tick(500));
}

TEST(Manifest, RejectsJunk)
{
    const SystemConfig base;
    auto parse = [&base](const std::string &text) {
        std::istringstream in(text);
        return sweep::parseManifest(in, "test", base);
    };
    EXPECT_THROW(parse("{\"workloads\": []}"), sweep::ManifestError);
    EXPECT_THROW(parse("{\"workloads\": [\"x\"], \"bogus\": 1}"),
                 sweep::ManifestError);
    EXPECT_THROW(parse("not json\n"), sweep::ManifestError);
    EXPECT_THROW(parse("\n# only comments\n"), sweep::ManifestError);
    EXPECT_THROW(
        parse("{\"id\": \"dup\", \"workloads\": [\"x\"]}\n"
              "{\"id\": \"dup\", \"workloads\": [\"x\"]}\n"),
        sweep::ManifestError);
}

TEST(Manifest, GridSpecExpandsCrossProduct)
{
    const std::vector<sweep::JobSpec> jobs = sweep::expandGrid(
        "mmuKind=neummu;mmu.numPtws=8|16;seed=1|2;"
        "workloads=synthetic:pattern=stride+synthetic:pattern=uniform",
        SystemConfig{});
    ASSERT_EQ(jobs.size(), 4u);
    // Rightmost clause varies fastest; ids name the varying keys.
    EXPECT_EQ(jobs[0].id, "mmu.numPtws=8,seed=1");
    EXPECT_EQ(jobs[1].id, "mmu.numPtws=8,seed=2");
    EXPECT_EQ(jobs[2].id, "mmu.numPtws=16,seed=1");
    EXPECT_EQ(jobs[3].id, "mmu.numPtws=16,seed=2");
    // '+' splits tenants within the workloads value.
    ASSERT_EQ(jobs[0].workloads.size(), 2u);
    EXPECT_EQ(jobs[0].workloads[1], "synthetic:pattern=uniform");
    // Non-varying clauses still bind.
    EXPECT_EQ(jobs[0].overrides.front().first, "mmuKind");

    EXPECT_THROW(sweep::expandGrid("mmuKind=neummu", SystemConfig{}),
                 sweep::ManifestError);
    EXPECT_THROW(sweep::expandGrid("", SystemConfig{}),
                 sweep::ManifestError);
    // A repeated value would produce two jobs under one id; ids key
    // the merged output, so that is an error like in a manifest.
    EXPECT_THROW(
        sweep::expandGrid("seed=1|1;workloads=synthetic:pattern="
                          "stride",
                          SystemConfig{}),
        sweep::ManifestError);
    // A trailing-'|' typo is a usage error up front, not a job that
    // fails (or half-vanishes from a plot) at run time.
    EXPECT_THROW(
        sweep::expandGrid("seed=1|;workloads=synthetic:pattern="
                          "stride",
                          SystemConfig{}),
        sweep::ManifestError);
}

// ---------------------------------------------------------------------
// SweepEngine execution contract.
// ---------------------------------------------------------------------

TEST(SweepEngine, LargePageGridsRunInEitherKeyOrder)
{
    // pageShift=21 on the default Custom design, and on a NeuMMU
    // whose mmu.* edit materialized it before or after the pageShift
    // key: each order must run to completion, and both orders must
    // build the same machine.
    const std::string dense = "workloads=dense:model=CNN1,layers=1";
    const std::vector<std::pair<std::string, std::string>> orders = {
        {"pageShift=21;" + dense, dense + ";pageShift=21"},
        {"mmuKind=neummu;mmu.numPtws=32;pageShift=21;" + dense,
         "pageShift=21;mmuKind=neummu;mmu.numPtws=32;" + dense},
    };
    for (const auto &[first, second] : orders) {
        std::vector<std::string> dumps;
        for (const std::string &grid : {first, second}) {
            const std::vector<sweep::JobSpec> jobs =
                sweep::expandGrid(grid, SystemConfig{});
            ASSERT_EQ(jobs.size(), 1u) << grid;
            sweep::SweepOptions opts;
            opts.threads = 1;
            const sweep::SweepResults results =
                sweep::SweepEngine(opts).run(jobs);
            ASSERT_TRUE(results.jobs[0].ok)
                << grid << ": " << results.jobs[0].error;
            EXPECT_TRUE(results.jobs[0].outcome.allDone) << grid;
            dumps.push_back(results.jobs[0].outcome.statsJson);
        }
        EXPECT_EQ(dumps[0], dumps[1]) << first << " vs " << second;
    }
}

TEST(SweepEngine, DeclarativeJobMatchesDirectConstruction)
{
    sweep::JobSpec job;
    job.id = "declarative";
    job.overrides = {{"seed", "5"}, {"mmuKind", "neummu"}};
    job.workloads = {
        "synthetic:pattern=hotset,footprint=2M,accesses=512"};
    const sweep::JobOutcome out =
        sweep::SweepEngine::runDeclarative(job);
    EXPECT_TRUE(out.allDone);

    SystemConfig direct;
    direct.seed = 5;
    direct.mmuKind = MmuKind::NeuMmu;
    EXPECT_EQ(out.statsJson, runDirect(direct, job.workloads));
}

TEST(SweepEngine, TwoTenantDeclarativeJobRaisesNpuCount)
{
    sweep::JobSpec job;
    job.id = "tenants";
    job.overrides = {{"seed", "5"}, {"mmuKind", "baseline"}};
    job.workloads = {
        "synthetic:pattern=stride,footprint=1M,accesses=256",
        "synthetic:pattern=uniform,footprint=1M,accesses=256"};
    const sweep::JobOutcome out =
        sweep::SweepEngine::runDeclarative(job);
    EXPECT_TRUE(out.allDone);

    SystemConfig direct;
    direct.seed = 5;
    direct.mmuKind = MmuKind::BaselineIommu;
    EXPECT_EQ(out.statsJson, runDirect(direct, job.workloads));
}

TEST(SweepEngine, IsolatesFailingJobsAndKeepsOrder)
{
    std::vector<sweep::JobSpec> jobs(5);
    jobs[0].id = "ok_a";
    jobs[0].overrides = {{"seed", "1"}};
    jobs[0].workloads = {"synthetic:pattern=stride,accesses=128"};
    jobs[1].id = "bad_binder_key";
    jobs[1].overrides = {{"mmu.noSuchKnob", "1"}};
    jobs[1].workloads = {"synthetic:pattern=stride,accesses=128"};
    jobs[2].id = "bad_workload_kind";
    jobs[2].workloads = {"warp:speed=9"};
    // A trace file that cannot be opened passes every binder check
    // and fails when the workload binds to its System.
    jobs[3].id = "bad_trace_path";
    jobs[3].workloads = {"trace:path=/nonexistent/no_such_trace.jsonl"};
    jobs[4].id = "ok_b";
    jobs[4].overrides = {{"seed", "2"}};
    jobs[4].workloads = {"synthetic:pattern=uniform,accesses=128"};

    sweep::SweepOptions opts;
    opts.threads = 2;
    unsigned progress_calls = 0;
    opts.progress = [&progress_calls](unsigned, unsigned,
                                      const sweep::JobResult &) {
        progress_calls++;
    };
    const sweep::SweepResults results =
        sweep::SweepEngine(opts).run(jobs);

    ASSERT_EQ(results.jobs.size(), 5u);
    EXPECT_EQ(results.summary.failures, 3u);
    EXPECT_EQ(progress_calls, 5u);
    // Results land at their manifest index, whatever the thread
    // interleaving was.
    EXPECT_EQ(results.jobs[0].id, "ok_a");
    EXPECT_TRUE(results.jobs[0].ok);
    EXPECT_FALSE(results.jobs[1].ok);
    EXPECT_NE(results.jobs[1].error.find("unknown sweep config key"),
              std::string::npos);
    EXPECT_FALSE(results.jobs[2].ok);
    EXPECT_NE(results.jobs[2].error.find("unknown workload kind"),
              std::string::npos);
    EXPECT_FALSE(results.jobs[3].ok);
    EXPECT_NE(results.jobs[3].error.find("cannot open trace file"),
              std::string::npos)
        << results.jobs[3].error;
    EXPECT_TRUE(results.jobs[4].ok);
    EXPECT_GT(results.jobs[4].outcome.totalCycles, 0u);
}

TEST(SweepEngine, ZeroCountsFailInIsolation)
{
    // A zero count, size, latency or bandwidth, an out-of-range shift,
    // or a pair of keys that contradict each other is one job's
    // BindError naming the key and its valid range; it must neither
    // be raised silently nor panic (or divide by zero in) a component
    // constructor and take the whole sweep down.
    struct BadJob
    {
        const char *id;
        const char *set;
        const char *key;
        const char *range;
    };
    const BadJob bad[] = {
        {"bad_npus", "\"numNpus\": 0", "numNpus", ">= 1"},
        {"bad_hop", "\"sim.shards\": 1, \"sim.hopTicks\": 0",
         "sim.hopTicks", ">= 1"},
        {"bad_credits", "\"sim.shards\": 1, \"sim.portCredits\": 0",
         "sim.portCredits", ">= 1"},
        {"bad_ways", "\"mmuKind\": \"neummu\", \"mmu.tlb.ways\": 3",
         "mmu.tlb.ways",
         "ways must divide entries (0 = fully associative)"},
        {"bad_ptws", "\"mmuKind\": \"neummu\", \"mmu.numPtws\": 0",
         "mmu.numPtws", ">= 1"},
        {"bad_entries",
         "\"mmuKind\": \"neummu\", \"mmu.tlb.entries\": 0",
         "mmu.tlb.entries", ">= 1"},
        {"huge_entries",
         "\"mmuKind\": \"neummu\", \"mmu.tlb.entries\": 268435456",
         "mmu.tlb.entries", "[1,268435455]"},
        {"bad_shift", "\"mmuKind\": \"neummu\", \"pageShift\": 30",
         "pageShift", "12|21"},
        {"bad_buffers", "\"bufferDepth\": 0", "bufferDepth", ">= 1"},
        {"bad_channels", "\"memory.channels\": 0", "memory.channels",
         ">= 1"},
        {"bad_bandwidth", "\"memory.bytesPerCycle\": 0",
         "memory.bytesPerCycle", "> 0"},
        {"bad_interleave", "\"memory.interleaveBytes\": 0",
         "memory.interleaveBytes", ">= 1"},
        {"wrapped_interleave", "\"memory.interleaveBytes\": \"4G\"",
         "memory.interleaveBytes", "[1,4294967295]"},
        {"bad_path_cache",
         "\"mmuKind\": \"neummu\", \"mmu.pathCache\": \"tpc\", "
         "\"mmu.sharedCacheEntries\": 0",
         "mmu.sharedCacheEntries", ">= 1"},
        {"bad_range_entries",
         "\"mmuKind\": \"range\", \"mmu.range.entries\": 0",
         "mmu.range.entries", ">= 1"},
        {"bad_range_pages",
         "\"mmuKind\": \"range\", \"mmu.range.maxPages\": 0",
         "mmu.range.maxPages", ">= 1"},
        {"bad_range_walkers",
         "\"mmuKind\": \"range\", \"mmu.range.walkers\": 0",
         "mmu.range.walkers", ">= 1"},
        {"bad_pom_l1",
         "\"mmuKind\": \"pomtlb\", \"mmu.pom.l1Entries\": 0",
         "mmu.pom.l1Entries", ">= 1"},
        {"huge_pom_l1",
         "\"mmuKind\": \"pomtlb\", \"mmu.pom.l1Entries\": \"1G\"",
         "mmu.pom.l1Entries", "[1,268435455]"},
        {"bad_pom_ways",
         "\"mmuKind\": \"pomtlb\", \"mmu.pom.ways\": 0",
         "mmu.pom.ways", ">= 1"},
        {"bad_pom_sets",
         "\"mmuKind\": \"pomtlb\", \"mmu.pom.entries\": 1",
         "mmu.pom.entries", "entries must be >= ways"},
        {"bad_pom_walkers",
         "\"mmuKind\": \"pomtlb\", \"mmu.pom.walkers\": 0",
         "mmu.pom.walkers", ">= 1"},
        {"bad_nmt_shift",
         "\"mmuKind\": \"nmt\", \"mmu.nmt.segmentShift\": 70",
         "mmu.nmt.segmentShift", "[0,63]"},
        {"bad_nmt_cache",
         "\"mmuKind\": \"nmt\", \"mmu.nmt.cacheEntries\": 0",
         "mmu.nmt.cacheEntries", ">= 1"},
        {"bad_nmt_units", "\"mmuKind\": \"nmt\", \"mmu.nmt.units\": 0",
         "mmu.nmt.units", ">= 1"},
        {"bad_home_node",
         "\"numNpus\": 2, \"paging.enabled\": 1, "
         "\"paging.homeNode\": 2",
         "paging.homeNode", "valid: 0..1"},
        {"bad_burst", "\"npu.dmaBurstBytes\": 0", "npu.dmaBurstBytes",
         ">= 1"},
        {"bad_serve_window", "\"serve.window\": 0", "serve.window",
         ">= 1"},
        {"bad_serve_tenants", "\"serve.tenants\": 0", "serve.tenants",
         ">= 1"},
        {"bad_scatter_low", "\"vaScatterShift\": 20",
         "vaScatterShift", "0 or an integer in [21,47]"},
        {"bad_scatter_high", "\"vaScatterShift\": 48",
         "vaScatterShift", "0 or an integer in [21,47]"},
        {"bad_host_dram", "\"hostDramBytes\": 0", "hostDramBytes",
         ">= 1"},
        {"bad_hbm", "\"npuHbmBytes\": 0", "npuHbmBytes", ">= 1"},
        {"bad_resident_cap",
         "\"paging.enabled\": 1, \"paging.residentLimitPages\": 1",
         "paging.residentLimitPages", ">= 2 pages"},
    };
    const auto job = [](const std::string &id, const std::string &set) {
        return "{\"id\": \"" + id + "\", \"set\": {" + set +
               "}, \"workloads\": "
               "[\"synthetic:pattern=uniform,accesses=128\"]}\n";
    };
    // The good job sits between bad ones, so neither neighbour's
    // failure may take it down.
    std::string manifest =
        job(bad[0].id, bad[0].set) + job("good", "\"sim.shards\": 1");
    for (std::size_t i = 1; i < std::size(bad); i++)
        manifest += job(bad[i].id, bad[i].set);
    std::istringstream in(manifest);
    const std::vector<sweep::JobSpec> jobs =
        sweep::parseManifest(in, "test", SystemConfig{});
    sweep::SweepOptions opts;
    opts.threads = 2;
    const sweep::SweepResults results =
        sweep::SweepEngine(opts).run(jobs);

    ASSERT_EQ(results.jobs.size(), std::size(bad) + 1);
    EXPECT_EQ(results.summary.failures, std::size(bad));
    EXPECT_TRUE(results.jobs[1].ok);
    EXPECT_GT(results.jobs[1].outcome.totalCycles, 0u);
    for (std::size_t i = 0; i < std::size(bad); i++) {
        const sweep::JobResult &r = results.jobs[i ? i + 1 : 0];
        ASSERT_EQ(r.id, bad[i].id);
        EXPECT_FALSE(r.ok) << r.id;
        EXPECT_NE(r.error.find(bad[i].key), std::string::npos)
            << r.id << ": " << r.error;
        EXPECT_NE(r.error.find(bad[i].range), std::string::npos)
            << r.id << ": " << r.error;
    }
}

TEST(SweepEngine, RepsCrossCheckDeterminism)
{
    std::vector<sweep::JobSpec> jobs(1);
    jobs[0].id = "reps";
    jobs[0].overrides = {{"seed", "7"}, {"mmuKind", "neummu"}};
    jobs[0].workloads = {"synthetic:pattern=uniform,accesses=256"};
    jobs[0].reps = 3;
    const sweep::SweepResults results =
        sweep::SweepEngine().run(jobs);
    ASSERT_TRUE(results.jobs[0].ok);
    EXPECT_EQ(results.jobs[0].reps, 3u);
    EXPECT_TRUE(results.jobs[0].deterministic);
}

TEST(SweepEngine, ParallelRunMatchesSerialRun)
{
    // The headline guarantee: the same manifest, serial and 4-wide,
    // produces byte-identical per-job stats.
    std::vector<sweep::JobSpec> jobs;
    for (unsigned seed = 1; seed <= 6; seed++) {
        sweep::JobSpec job;
        job.id = "seed" + std::to_string(seed);
        job.overrides = {{"seed", std::to_string(seed)},
                         {"mmuKind", seed % 2 ? "neummu"
                                              : "baseline"}};
        job.workloads = {
            "synthetic:pattern=hotset,footprint=2M,accesses=512"};
        jobs.push_back(std::move(job));
    }
    sweep::SweepOptions serial_opts;
    serial_opts.threads = 1;
    const sweep::SweepResults serial =
        sweep::SweepEngine(serial_opts).run(jobs);
    sweep::SweepOptions parallel_opts;
    parallel_opts.threads = 4;
    const sweep::SweepResults parallel =
        sweep::SweepEngine(parallel_opts).run(jobs);
    EXPECT_EQ(sweep::compareRuns(serial, parallel), "");
    EXPECT_EQ(parallel.summary.threads, 4u);
}

// ---------------------------------------------------------------------
// Concurrency-safety regression (independent of the engine): two
// different Systems on two raw threads must reproduce their serial
// dumps byte-for-byte. Hidden globals/statics in any hot path would
// race here and show up as a diff (or as tsan/asan noise in CI).
// ---------------------------------------------------------------------

TEST(SweepConcurrency, ConcurrentSystemsMatchSerialRuns)
{
    SystemConfig cfg_a;
    cfg_a.seed = 11;
    cfg_a.mmuKind = MmuKind::NeuMmu;
    const std::vector<std::string> wl_a = {
        "synthetic:pattern=hotset,footprint=4M,accesses=1024"};

    SystemConfig cfg_b;
    cfg_b.seed = 23;
    cfg_b.mmuKind = MmuKind::BaselineIommu;
    cfg_b.numNpus = 2;
    const std::vector<std::string> wl_b = {
        "synthetic:pattern=uniform,footprint=2M,accesses=512",
        "synthetic:pattern=stride,footprint=2M,accesses=512"};

    const std::string serial_a = runDirect(cfg_a, wl_a);
    const std::string serial_b = runDirect(cfg_b, wl_b);

    std::string threaded_a, threaded_b;
    std::thread ta(
        [&]() { threaded_a = runDirect(cfg_a, wl_a); });
    std::thread tb(
        [&]() { threaded_b = runDirect(cfg_b, wl_b); });
    ta.join();
    tb.join();

    EXPECT_EQ(threaded_a, serial_a);
    EXPECT_EQ(threaded_b, serial_b);
}

// ---------------------------------------------------------------------
// ResultSink.
// ---------------------------------------------------------------------

namespace {

/** A tiny mixed sweep (one success, one failure) for sink tests. */
sweep::SweepResults
sinkFixture()
{
    std::vector<sweep::JobSpec> jobs(2);
    jobs[0].id = "good";
    jobs[0].overrides = {{"seed", "3"}};
    jobs[0].workloads = {"synthetic:pattern=stride,accesses=128"};
    jobs[1].id = "bad";
    jobs[1].overrides = {{"noSuchKey", "1"}};
    jobs[1].workloads = {"synthetic:pattern=stride,accesses=128"};
    return sweep::SweepEngine().run(jobs);
}

} // namespace

TEST(ResultSink, MergedJsonParsesAndCarriesFailures)
{
    const sweep::SweepResults results = sinkFixture();
    std::ostringstream os;
    sweep::ResultSink::writeJson(os, results);
    const sweep::JsonValue doc = sweep::parseJson(os.str());
    EXPECT_EQ(doc.find("schema")->text, "neummu-sweep-1");
    const sweep::JsonValue &sum = *doc.find("sweep");
    EXPECT_EQ(sum.find("jobs")->text, "2");
    EXPECT_EQ(sum.find("failures")->text, "1");
    EXPECT_NE(sum.find("wallSeconds"), nullptr);
    const sweep::JsonValue &jobs = *doc.find("jobs");
    ASSERT_EQ(jobs.items.size(), 2u);
    EXPECT_TRUE(jobs.items[0].find("ok")->boolean);
    // The success embeds its full registry dump.
    EXPECT_NE(jobs.items[0].find("stats"), nullptr);
    EXPECT_NE(jobs.items[0].find("stats")->find("sys.mmu"), nullptr);
    // The failure reports its error and embeds no stats.
    EXPECT_FALSE(jobs.items[1].find("ok")->boolean);
    EXPECT_NE(jobs.items[1].find("error")->text.find("noSuchKey"),
              std::string::npos);
    EXPECT_EQ(jobs.items[1].find("stats"), nullptr);
}

TEST(ResultSink, TimingOffMakesOutputByteStable)
{
    // Two runs of the same manifest differ only in wall clock and
    // (here, simulated) worker count; with timing excluded the
    // merged documents must be byte-identical -- the property the
    // check.sh -j1-vs-jN cmp gate relies on.
    sweep::SweepResults first = sinkFixture();
    sweep::SweepResults second = sinkFixture();
    first.summary.threads = 1;
    second.summary.threads = 8;
    sweep::SinkOptions no_timing;
    no_timing.includeTiming = false;
    std::ostringstream os_a, os_b;
    sweep::ResultSink::writeJson(os_a, first, no_timing);
    sweep::ResultSink::writeJson(os_b, second, no_timing);
    EXPECT_EQ(os_a.str(), os_b.str());
    EXPECT_EQ(os_a.str().find("wallSeconds"), std::string::npos);
    EXPECT_EQ(os_a.str().find("threads"), std::string::npos);
}

TEST(ResultSink, CsvFlattensEveryScalar)
{
    const sweep::SweepResults results = sinkFixture();
    std::ostringstream os;
    sweep::ResultSink::writeCsv(os, results);
    const std::string csv = os.str();
    EXPECT_EQ(csv.rfind("job,ok,group,stat,value\n", 0), 0u);
    EXPECT_NE(csv.find("good,ok,,totalCycles,"), std::string::npos);
    EXPECT_NE(csv.find("good,ok,sys.mmu,requests,"),
              std::string::npos);
    EXPECT_NE(csv.find("bad,error,,,"), std::string::npos);

    const std::string path = tempPath("sweep_sink_test.csv");
    EXPECT_TRUE(sweep::ResultSink::writeCsvFile(path, results));
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
}

TEST(ResultSink, CsvQuotesJobIdsWithCommas)
{
    // Grid-generated ids join clauses with ',' -- the CSV must quote
    // them so the 5-column layout survives any reader.
    std::vector<sweep::JobSpec> jobs = sweep::expandGrid(
        "mmu.numPtws=8|16;seed=1|2;"
        "workloads=synthetic:pattern=stride,accesses=128",
        SystemConfig{});
    const sweep::SweepResults results =
        sweep::SweepEngine().run(jobs);
    ASSERT_EQ(results.summary.failures, 0u);
    std::ostringstream os;
    sweep::ResultSink::writeCsv(os, results);
    EXPECT_NE(os.str().find("\"mmu.numPtws=8,seed=1\",ok,,"
                            "totalCycles,"),
              std::string::npos)
        << os.str().substr(0, 200);
}

// ---------------------------------------------------------------------
// End-to-end: manifest file -> engine -> sink.
// ---------------------------------------------------------------------

TEST(SweepEndToEnd, BadTracesFailOnlyTheirOwnJobs)
{
    // Each bad trace -- a malformed line, a VA range that wraps, one
    // past 2^48, a missing file -- is its own job's WorkloadError; the
    // good replay between them runs to completion.
    const std::string header =
        "{\"neummu_trace\":1,\"pageShift\":12,\"source\":\"t\"}\n";
    const std::pair<const char *, std::string> traces[] = {
        {"good", "{\"t\":0,\"va\":4096,\"bytes\":64,\"ok\":true}\n"
                 "{\"t\":3,\"va\":8192,\"bytes\":64,\"ok\":true}\n"},
        {"malformed", "{\"t\":0,\"bytes\":64}\n"},
        {"wrapping", "{\"t\":0,\"va\":18446744073709551600,"
                     "\"bytes\":64}\n"},
        {"beyond_va", "{\"t\":0,\"va\":281474976710656,\"bytes\":64}\n"},
    };
    std::string manifest;
    for (const auto &[name, body] : traces) {
        const std::string path =
            tempPath(std::string("sweep_trace_") + name + ".jsonl");
        std::ofstream(path) << header << body;
        manifest += std::string("{\"id\": \"") + name +
                    "\", \"workloads\": [\"trace:path=" + path + "\"]}\n";
    }
    manifest += "{\"id\": \"missing\", \"workloads\": [\"trace:path=" +
                tempPath("sweep_trace_absent.jsonl") + "\"]}\n";
    std::istringstream in(manifest);
    const std::vector<sweep::JobSpec> jobs =
        sweep::parseManifest(in, "test", SystemConfig{});
    sweep::SweepOptions opts;
    opts.threads = 2;
    const sweep::SweepResults results =
        sweep::SweepEngine(opts).run(jobs);

    ASSERT_EQ(results.jobs.size(), 5u);
    EXPECT_EQ(results.summary.failures, 4u);
    EXPECT_TRUE(results.jobs[0].ok) << results.jobs[0].error;
    EXPECT_GT(results.jobs[0].outcome.totalCycles, 0u);
    for (std::size_t i = 1; i < results.jobs.size(); i++) {
        const sweep::JobResult &r = results.jobs[i];
        EXPECT_FALSE(r.ok) << r.id;
        EXPECT_NE(r.error.find("cannot load trace"), std::string::npos)
            << r.id << ": " << r.error;
    }
}

TEST(SweepEndToEnd, ManifestFileRunsAndMerges)
{
    const std::string path = tempPath("sweep_e2e_manifest.jsonl");
    {
        std::ofstream out(path);
        out << "{\"id\": \"a\", \"set\": {\"seed\": 1}, "
               "\"workloads\": "
               "[\"synthetic:pattern=stride,accesses=128\"]}\n"
            << "{\"id\": \"b\", \"set\": {\"seed\": 2, "
               "\"mmuKind\": \"neummu\"}, \"workloads\": "
               "[\"synthetic:pattern=uniform,accesses=128\"]}\n";
    }
    const std::vector<sweep::JobSpec> jobs =
        sweep::loadManifest(path, SystemConfig{});
    ASSERT_EQ(jobs.size(), 2u);
    sweep::SweepOptions opts;
    opts.threads = 2;
    const sweep::SweepResults results =
        sweep::SweepEngine(opts).run(jobs);
    EXPECT_EQ(results.summary.failures, 0u);

    const std::string json_path = tempPath("sweep_e2e_out.json");
    EXPECT_TRUE(
        sweep::ResultSink::writeJsonFile(json_path, results));
    std::ifstream in(json_path);
    std::ostringstream merged;
    merged << in.rdbuf();
    const sweep::JsonValue doc = sweep::parseJson(merged.str());
    EXPECT_EQ(doc.find("jobs")->items.size(), 2u);

    EXPECT_THROW(sweep::loadManifest(tempPath("missing.jsonl"),
                                     SystemConfig{}),
                 sweep::ManifestError);
}
