/**
 * @file
 * The repository benchmark's runner. One invocation runs one workload
 * in one mode and prints one JSON document on stdout; run.py (next to
 * this file) builds this program, runs it, and turns the document into
 * the benchmark's result line.
 *
 *   neummu_perfbench --workload=dense_grid --seed=1 --seconds=10 \
 *       --mode=measure
 *
 * Workloads (README.md has the why of each):
 *  - dense_grid: CNN1-3 / RNN1-3 at batch 4 on oracle, IOMMU and
 *    NeuMMU -- 18 Systems on the serial kernel (the Fig. 8/10 grid).
 *  - serve_churn: the churn64 serving machine, open loop, run to a
 *    fixed cycle limit; several seeded instances per pass.
 *  - npu64_mix: 64 synthetic tenants on one shared NeuMMU hub at
 *    sim.shards=2; several seeded instances per pass.
 *
 * Every System starts cold: fresh TLB, PTW caches and PRMB.
 *
 * A pass runs each System ("cell") of the workload as one SweepEngine
 * job, on one worker. The runner uses only public entry points and
 * times the calls it makes into each layer: System construction,
 * workload placement, Scheduler::run, the stats dump, and
 * SweepEngine::run.
 *
 * Modes:
 *  - measure: a warm-up pass, then a fixed number of timed passes,
 *    about --seconds of them on the reference host. Host metrics are
 *    medians over the timed passes of calibrated totals (see
 *    HostTimes); the simulated metrics are exact. One untimed pass of
 *    each other workload then supplies the simulated metrics that
 *    workload defines, so every result carries the whole end-to-end
 *    set.
 *  - observe: a reference pass, then rounds of (untraced,
 *    sim.profile=1, trace.enabled) passes until --seconds elapse.
 *    Reports the per-layer metrics; both observed passes must
 *    reproduce the reference pass's simulated counters exactly.
 *
 * Every System run is one attempt; it fails when it throws, leaves a
 * workload unfinished, or fails one of the correctness checks.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/arg_parser.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/stats_registry.hh"
#include "serving/serving_engine.hh"
#include "sim/profiler.hh"
#include "sweep/sweep_engine.hh"
#include "system/paging_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "trace/trace_engine.hh"
#include "workloads/dense_dnn_workload.hh"
#include "workloads/models.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

using Clock = std::chrono::steady_clock;

// --- Workload sizes -----------------------------------------------------

constexpr unsigned denseBatch = 4;

constexpr unsigned serveInstances = 64;
constexpr Tick serveCycles = 2500000;
constexpr std::uint64_t serveSloCycles = 200000;

constexpr unsigned mixInstances = 2;
/** Accesses per NPU: 1024 x scale (chase: 512 x scale). */
constexpr unsigned mixScale = 2;
constexpr unsigned mixShards = 2;
/**
 * One worker runs both shard domains: windows, mailboxes, credits and
 * the hub bridge all still run, and results do not depend on the
 * thread count. With two workers the barrier waits on whichever vCPU
 * a shared host slows, and ten seeds spread by up to 56% in host time.
 */
constexpr unsigned mixThreads = 1;

const char *const workloadNames[] = {"dense_grid", "serve_churn",
                                     "npu64_mix"};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::uint64_t
fnv(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

// --- Host-speed calibration -------------------------------------------

/** Rounds of each reference kernel in one calibration. */
constexpr unsigned calRounds = 60000;
/**
 * calibrate() on the reference host, a 4-vCPU Xeon VM, at its usual
 * speed: about 3 ms. Host times are reported in seconds of that host.
 */
constexpr double calReferenceS = 0.003;

volatile std::uint64_t calibrationSink;

std::vector<std::uint64_t>
filledTable(std::size_t entries)
{
    std::vector<std::uint64_t> t(entries);
    for (std::size_t i = 0; i < entries; i++)
        t[i] = i * 0x9e3779b97f4a7c15ull;
    return t;
}

/**
 * Host seconds of one fixed reference kernel: a binary heap used like
 * an event queue, and read-modify-writes with data-dependent branches
 * in a 1 MiB table. With @p random_keys every key pushed depends on a
 * chain of loads and mixes, so the heap's sifts branch unpredictably;
 * without, keys mostly ascend. The table is brought into cache first,
 * so the time does not depend on what ran before.
 */
double
referenceKernel(bool random_keys)
{
    static std::vector<std::uint64_t> table =
        filledTable(std::size_t(1) << 17);
    static const std::vector<std::uint64_t> mix = filledTable(2);
    std::vector<std::uint64_t> heap;
    heap.reserve(1024);
    std::uint64_t acc = 0;
    for (const std::uint64_t v : table)
        acc += v;
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (unsigned i = 0; i < calRounds; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (random_keys)
            acc += mix[(x >> 20 ^ acc) & 1];
        std::uint64_t &slot = table[x & (table.size() - 1)];
        if ((slot ^ x) & 4)
            slot += x >> 3;
        else
            slot ^= acc;
        heap.push_back(acc + (x & 0xffff));
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
        if (heap.size() > 512) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>());
            acc = heap.back();
            heap.pop_back();
        }
    }
    calibrationSink = acc + heap.size();
    return secondsSince(t0);
}

/**
 * How fast the host runs right now: the geometric mean of the two
 * reference kernels' times. Neither depends on the simulator, so a
 * change to the simulator leaves it alone, while other tenants of a
 * shared host slow it much as they slow the simulator. Each kernel
 * alone tracks some workloads' drains and set-ups better than others;
 * their geometric mean tracked all of them (README.md, "Host noise and
 * calibration").
 */
double
calibrate()
{
    const double random_keys = referenceKernel(true);
    const double ascending_keys = referenceKernel(false);
    return std::sqrt(random_keys * ascending_keys);
}

// --- Workload definitions -----------------------------------------------

/** One System of a workload: machine, placement and run limit. */
struct Cell
{
    std::string id;
    SystemConfig cfg;
    std::function<void(Scheduler &)> place;
    Tick limit = maxTick;
    /** dense_grid only: the model this cell runs ("" elsewhere). */
    std::string model;
    /** Counted in the traced per-stage decomposition. */
    bool decomposed = true;
};

struct WorkloadDef
{
    std::string name;
    /** Closed loop: every cell drains all of its workloads. */
    bool drained = true;
    /**
     * Host seconds of one timed pass on the reference host, at its
     * usual speed. --seconds / passS fixes the number of timed passes,
     * so a faster or slower simulator is measured over as many.
     */
    double passS = 1.0;
    std::vector<Cell> cells;
};

std::uint64_t
instanceSeed(std::uint64_t seed, unsigned instance)
{
    return deriveSeed(seed, hashString("perfbench.instance") + instance);
}

WorkloadDef
denseGrid()
{
    WorkloadDef w{"dense_grid", true, 1.2, {}};
    for (const WorkloadId id : allWorkloads()) {
        for (const MmuKind kind : {MmuKind::Oracle, MmuKind::BaselineIommu,
                                   MmuKind::NeuMmu}) {
            Cell c;
            c.model = workloadName(id);
            c.id = c.model + "_" + mmuKindName(kind);
            c.cfg.mmuKind = kind;
            // The stage decomposition explains the NeuMMU result.
            c.decomposed = kind == MmuKind::NeuMmu;
            c.place = [id](Scheduler &s) {
                DenseDnnWorkloadConfig wl;
                wl.workload = id;
                wl.batch = denseBatch;
                s.add(std::make_unique<DenseDnnWorkload>(std::move(wl)),
                      0);
            };
            w.cells.push_back(std::move(c));
        }
    }
    return w;
}

WorkloadDef
serveChurn(std::uint64_t seed)
{
    WorkloadDef w{"serve_churn", false, 4.0, {}};
    for (unsigned i = 0; i < serveInstances; i++) {
        Cell c;
        c.id = "churn64_" + std::to_string(i);
        SystemConfig &cfg = c.cfg;
        cfg.seed = instanceSeed(seed, i);
        cfg.numNpus = 64;
        // bench_serving's churn64 machine keeps the default walker
        // core (the Table I IOMMU configuration); under mmuKind=NeuMmu
        // this machine completes under a fifth of its arrivals, which
        // leaves no stable latency to measure (see README.md).
        cfg.paging.enabled = true;
        cfg.paging.residentLimitBytes = 512 * pageSize(cfg.pageShift);
        cfg.paging.faultLatency = 2000;
        cfg.serve.enabled = true;
        cfg.serve.arrival.kind = serving::ArrivalKind::Bursty;
        cfg.serve.arrival.ratePerMcycle = 800.0;
        cfg.serve.tenants = 112;
        cfg.serve.workload = "embedding:footprint=64K,accesses=16";
        cfg.serve.demandPaged = true;
        cfg.serve.tenantLifetimeRequests = 25;
        cfg.serve.sloLatencyCycles = serveSloCycles;
        c.limit = serveCycles;
        // Serving admits its tenants itself when the run starts.
        c.place = [](Scheduler &) {};
        w.cells.push_back(std::move(c));
    }
    return w;
}

WorkloadDef
npu64Mix(std::uint64_t seed)
{
    WorkloadDef w{"npu64_mix", true, 0.8, {}};
    for (unsigned i = 0; i < mixInstances; i++) {
        Cell c;
        c.id = "mix64_" + std::to_string(i);
        c.cfg.seed = instanceSeed(seed, i);
        c.cfg.numNpus = 64;
        c.cfg.mmuKind = MmuKind::NeuMmu;
        c.cfg.sim.shards = mixShards;
        c.cfg.sim.threads = mixThreads;
        c.place = [](Scheduler &s) {
            const std::string big =
                ",footprint=8M,accesses=" + std::to_string(1024 * mixScale);
            const std::string mix[] = {
                "synthetic:pattern=uniform" + big,
                "synthetic:pattern=stride" + big,
                "synthetic:pattern=hotset" + big,
                "synthetic:pattern=chase,footprint=2M,accesses=" +
                    std::to_string(512 * mixScale),
            };
            for (unsigned t = 0; t < 64; t++)
                s.add(makeWorkloadFromSpecChecked(mix[t % 4]));
        };
        w.cells.push_back(std::move(c));
    }
    return w;
}

WorkloadDef
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "dense_grid")
        return denseGrid();
    if (name == "serve_churn")
        return serveChurn(seed);
    if (name == "npu64_mix")
        return npu64Mix(seed);
    throw std::runtime_error("unknown workload '" + name +
                             "' (dense_grid, serve_churn, npu64_mix)");
}

// --- Running one cell ---------------------------------------------------

/** Which opt-in observer a pass turns on. */
enum class Observe
{
    None,
    Profile,
    Trace,
};

/** What one cell run measured and counted. */
struct CellRun
{
    bool ok = true;
    std::string error;
    double buildS = 0.0;
    double placeS = 0.0;
    double drainS = 0.0;
    double dumpS = 0.0;
    /** SweepEngine's wall time for the job. */
    double jobS = 0.0;
    /** calibrate() run right after the cell. */
    double calS = 0.0;
    Tick cycles = 0;
    bool allDone = false;
    unsigned threads = 1;
    /** FNV-1a of the whole JSON stats dump. */
    std::uint64_t dumpHash = 0;
    /** FNV-1a over every stats group except the observers' own. */
    std::uint64_t simHash = 0;
    /** Raw simulated counters, summed across cells by name. */
    std::map<std::string, double> counts;
    std::uint64_t peakQueueDepth = 0;
    SimProfiler prof;

    // Trace passes: the charged per-stage decomposition.
    std::vector<std::uint64_t> stageTicks =
        std::vector<std::uint64_t>(trace::numStages, 0);
    std::vector<stats::Histogram> stageHist =
        std::vector<stats::Histogram>(trace::numStages);
    std::vector<stats::Histogram> rawHist =
        std::vector<stats::Histogram>(trace::numStages);

    // Serving cells.
    stats::Histogram latency;
    stats::Histogram queueWait;
    stats::Histogram service;
    double backlogGrowth = 0.0;
};

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Groups only an opt-in observer registers (profiler, tracer). */
bool
observerGroup(const std::string &name)
{
    return endsWith(name, ".prof") || endsWith(name, ".fastpath") ||
           endsWith(name, ".trace");
}

/** Digest of every simulated statistic, observers' groups excluded. */
std::uint64_t
simFingerprint(const stats::StatsRegistry &reg)
{
    std::string buf;
    char num[64];
    const auto put = [&](double v) {
        std::snprintf(num, sizeof(num), "%.17g,", v);
        buf += num;
    };
    const auto addGroup = [&](const stats::Group &g) {
        if (observerGroup(g.name()))
            return;
        buf += g.name() + "{";
        for (const auto &kv : g.scalars()) {
            buf += kv.first + "=";
            put(kv.second.value());
        }
        for (const auto &kv : g.averages()) {
            buf += kv.first + "=";
            put(double(kv.second.count()));
            put(kv.second.sum());
            put(kv.second.min());
            put(kv.second.max());
        }
        for (const auto &kv : g.histograms()) {
            buf += kv.first + "=";
            put(double(kv.second.count()));
            put(double(kv.second.min()));
            put(double(kv.second.max()));
            put(double(kv.second.quantile(0.5)));
            put(double(kv.second.quantile(0.99)));
            put(kv.second.mean());
        }
        for (const auto &kv : g.allSeries()) {
            buf += kv.first + "=";
            put(double(kv.second.points()));
            for (const double v : kv.second.values())
                put(v);
        }
        buf += "}";
    };
    for (const stats::Group *g : reg.groups())
        addGroup(*g);
    for (const auto &kv : reg.dynamicGroups())
        addGroup(*kv.second);
    return fnv(buf);
}

double
scalarOf(const stats::Group &g, const std::string &name)
{
    const auto it = g.scalars().find(name);
    return it == g.scalars().end() ? 0.0 : it->second.value();
}

void
collectCounters(System &sys, CellRun &r)
{
    std::map<std::string, double> &c = r.counts;
    const MmuCounts &m = sys.mmu().counts();
    c["events"] = double(sys.eventsExecuted());
    c["translations"] = double(m.responses);
    c["mmu_requests"] = double(m.requests);
    c["tlb_hits"] = double(m.tlbHits);
    c["tlb_misses"] = double(m.tlbMisses);
    c["walks"] = double(m.walks);
    c["walk_mem_accesses"] = double(m.walkMemAccesses);
    c["prmb_merges"] = double(m.prmbMerges);
    c["redundant_walks"] = double(m.redundantWalks);
    c["blocked_issues"] = double(m.blockedIssues);
    c["path_cache_skipped_levels"] = double(m.pathCacheSkippedLevels);
    c["mmu_shootdowns"] = double(m.shootdowns);
    c["squashed_walks"] = double(m.squashedWalks);
    c["trains_inlined"] = double(sys.trainSubEventsInlined());
    c["same_tick_shortcuts"] = double(sys.sameTickShortcuts());
    c["walk_cache_hits"] = double(sys.pageTable().walkCacheHits());
    r.peakQueueDepth = sys.peakQueueDepth();
    if (MmuCore *core = sys.mmu().asMmuCore())
        c["xlate_reg_hits"] = double(core->xlateRegisterHits());
    if (sys.sharded()) {
        DomainRuntime &dom = sys.domains();
        c["sync_windows"] = double(dom.windowsExecuted());
        c["cross_messages"] = double(dom.messagesPosted());
        c["sharded_events"] = double(sys.eventsExecuted());
        r.threads = dom.numThreads();
    }
    if (sys.hasRouter()) {
        for (unsigned i = 0; i < sys.numNpus(); i++)
            c["cap_rejections"] += double(sys.router().capRejections(i));
    }
    for (unsigned i = 0; i < sys.numNpus(); i++) {
        c["dma_issued"] += double(sys.dma(i).translationsIssued());
        c["dma_stall"] += double(sys.dma(i).stallCycles());
        const stats::Group &mem = sys.memory(i).stats();
        c["mem_accesses"] += scalarOf(mem, "accesses");
        c["mem_bytes"] += scalarOf(mem, "bytesRead") +
                          scalarOf(mem, "bytesWritten");
    }
    if (sys.hasPagingEngine()) {
        const PagingEngine &p = sys.pagingEngine();
        c["paging_faults"] = double(p.faults());
        c["paging_coalesced"] = double(p.coalescedFaults());
        c["paging_evictions"] = double(p.evictions());
        c["paging_shootdowns"] = double(p.shootdowns());
        c["paging_stall"] = double(p.stallCycles());
        c["paging_overcommits"] = double(p.overcommits());
    }
}

void
collectServing(System &sys, CellRun &r)
{
    serving::ServingEngine &se = sys.servingEngine();
    const serving::ServeReport rep = se.report();
    std::map<std::string, double> &c = r.counts;
    c["serve_arrivals"] = double(rep.arrivals);
    c["serve_completed"] = double(rep.completed);
    c["serve_violations"] = double(rep.sloViolations);
    c["serve_dropped"] = double(rep.dropped);
    c["serve_unrouted"] = double(rep.unrouted);
    c["serve_admitted"] = double(rep.admitted);
    c["serve_retired"] = double(rep.retired);
    const auto &hists = se.stats().histograms();
    const auto mergeHist = [&](stats::Histogram &into, const char *name) {
        const auto it = hists.find(name);
        if (it != hists.end())
            into.merge(it->second);
    };
    mergeHist(r.latency, "latencyCycles");
    mergeHist(r.queueWait, "queueWaitCycles");
    mergeHist(r.service, "serviceCycles");

    // Backlog growth: mean queued requests over the last quarter of
    // the sampled windows minus the first quarter's.
    const auto &series = se.stats().allSeries();
    const auto it = series.find("windowQueueDepth");
    if (it != series.end() && !it->second.values().empty()) {
        const std::vector<double> &v = it->second.values();
        const std::size_t q = std::max<std::size_t>(1, v.size() / 4);
        double early = 0.0;
        double late = 0.0;
        for (std::size_t i = 0; i < q; i++) {
            early += v[i];
            late += v[v.size() - 1 - i];
        }
        r.backlogGrowth = (late - early) / double(q);
    }
}

void
collectTrace(System &sys, CellRun &r, const std::string &trace_out)
{
    trace::TraceEngine &te = sys.traceEngine();
    // The stats dump already drained the engine; report() is current.
    const trace::TraceEngine::Report &rep = te.report();
    for (unsigned s = 0; s < trace::numStages; s++) {
        r.stageTicks[s] = rep.stages[s].totalTicks;
        r.stageHist[s].merge(rep.stages[s].hist);
        for (unsigned q = 0; q < te.numBuffers(); q++)
            r.rawHist[s].merge(te.buffer(q).stageHist(trace::Stage(s)));
    }
    r.counts["spans_recorded"] = double(rep.spansRecorded);
    r.counts["spans_dropped"] = double(rep.dropped);
    if (!trace_out.empty() && !te.writeChromeTraceFile(trace_out))
        throw std::runtime_error("cannot write trace file " + trace_out);
}

CellRun
runCell(const Cell &cell, Observe obs, const std::string &trace_out)
{
    CellRun r;
    SystemConfig cfg = cell.cfg;
    cfg.sim.profile = obs == Observe::Profile;
    // tailThreshold 0 (the default) keeps every request's lifecycle.
    cfg.trace.enabled = obs == Observe::Trace;

    const auto t0 = Clock::now();
    System sys(std::move(cfg));
    const auto t1 = Clock::now();
    Scheduler sched(sys);
    cell.place(sched);
    const auto t2 = Clock::now();
    const SchedulerResult res = sched.run(cell.limit);
    const auto t3 = Clock::now();
    std::ostringstream dump;
    sys.dumpStatsJson(dump);
    const auto t4 = Clock::now();
    r.calS = calibrate();

    using Sec = std::chrono::duration<double>;
    r.buildS = Sec(t1 - t0).count();
    r.placeS = Sec(t2 - t1).count();
    r.drainS = Sec(t3 - t2).count();
    r.dumpS = Sec(t4 - t3).count();
    r.cycles = res.totalCycles;
    r.allDone = res.allDone;
    r.dumpHash = fnv(dump.str());
    r.simHash = simFingerprint(sys.statsRegistry());
    collectCounters(sys, r);
    if (sys.hasServingEngine())
        collectServing(sys, r);
    if (obs == Observe::Profile)
        r.prof = sys.mergedProfile();
    if (obs == Observe::Trace)
        collectTrace(sys, r, trace_out);
    return r;
}

// --- Passes and checks --------------------------------------------------

struct Pass
{
    Observe observe = Observe::None;
    /** SweepEngine::run wall time. */
    double wallS = 0.0;
    std::vector<CellRun> cells;

    /**
     * Host-speed factor of cell @p i: host times multiplied by it read
     * as they would on the reference host at its usual speed.
     */
    double
    scale(std::size_t i) const
    {
        return ratio(calReferenceS, cells[i].calS);
    }

    double
    meanScale() const
    {
        double s = 0.0;
        for (std::size_t i = 0; i < cells.size(); i++)
            s += scale(i);
        return ratio(s, double(cells.size()));
    }

    /** Σ over cells of a host time, each multiplied by its scale(). */
    double
    scaled(double CellRun::*field) const
    {
        double s = 0.0;
        for (std::size_t i = 0; i < cells.size(); i++)
            s += cells[i].*field * scale(i);
        return s;
    }

    double
    sum(double CellRun::*field) const
    {
        double s = 0.0;
        for (const CellRun &c : cells)
            s += c.*field;
        return s;
    }

    double
    count(const std::string &name) const
    {
        double s = 0.0;
        for (const CellRun &c : cells) {
            const auto it = c.counts.find(name);
            if (it != c.counts.end())
                s += it->second;
        }
        return s;
    }
};

Pass
runPass(const WorkloadDef &w, Observe obs, const std::string &trace_out)
{
    Pass p;
    p.observe = obs;
    p.cells.resize(w.cells.size());
    // The trace file shows the first decomposed cell's lifecycles.
    std::size_t traced = 0;
    while (traced < w.cells.size() && !w.cells[traced].decomposed)
        traced++;
    std::vector<sweep::JobSpec> jobs(w.cells.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        jobs[i].id = w.cells[i].id;
        const std::string out = i == traced ? trace_out : std::string();
        jobs[i].runner = [&w, &p, i, obs, out] {
            p.cells[i] = runCell(w.cells[i], obs, out);
            sweep::JobOutcome o;
            o.totalCycles = p.cells[i].cycles;
            o.allDone = p.cells[i].allDone;
            return o;
        };
    }
    sweep::SweepOptions opts;
    opts.threads = 1;
    const auto t0 = Clock::now();
    const sweep::SweepResults res = sweep::SweepEngine(opts).run(jobs);
    p.wallS = secondsSince(t0);
    for (std::size_t i = 0; i < jobs.size(); i++) {
        p.cells[i].jobS = res.jobs[i].wallSeconds;
        if (!res.jobs[i].ok) {
            p.cells[i].ok = false;
            p.cells[i].error = res.jobs[i].error;
        }
    }
    return p;
}

/** Attempts and failures: every System run is one attempt. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    record(bool ok, const std::string &what)
    {
        attempted++;
        if (ok)
            return;
        failed++;
        if (failures.size() < 32)
            failures.push_back(what);
    }
};

/**
 * Check every cell of @p p: it ran, its workloads finished, a drained
 * workload's DMA engines issued exactly the translations the MMU
 * answered, the oracle is never slower than a design on the same
 * model, and -- against @p ref, when given -- the simulated counters
 * are the reference pass's.
 */
void
checkPass(const WorkloadDef &w, const Pass &p, const Pass *ref,
          Ledger &ledger)
{
    std::map<std::string, Tick> oracle;
    for (std::size_t i = 0; i < p.cells.size(); i++) {
        if (w.cells[i].cfg.mmuKind == MmuKind::Oracle)
            oracle[w.cells[i].model] = p.cells[i].cycles;
    }
    for (std::size_t i = 0; i < p.cells.size(); i++) {
        const CellRun &c = p.cells[i];
        const Cell &cell = w.cells[i];
        std::string why;
        if (!c.ok) {
            why = "threw: " + c.error;
        } else if (!c.allDone) {
            why = "a workload did not finish";
        } else if (w.drained && c.counts.at("dma_issued") !=
                                    c.counts.at("translations")) {
            why = "DMA translations issued != MMU responses";
        } else if (!cell.model.empty() && oracle.count(cell.model) &&
                   oracle[cell.model] > c.cycles) {
            why = "oracle slower than the design";
        } else if (ref && c.simHash != ref->cells[i].simHash) {
            why = "simulated counters differ from the reference pass";
        }
        ledger.record(why.empty(), w.name + "/" + cell.id + ": " + why);
    }
}

// --- Metrics ------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/**
 * Host end-to-end metrics over the timed passes: the median over the
 * passes of each pass's calibrated total (see Pass::scale). Other
 * tenants of a shared host slow the whole machine in phases lasting
 * from a fraction of a second to minutes; calibrating each cell by
 * reference work timed beside it takes most of that out, and the median
 * over a fixed number of passes the rest. The raw per-pass totals and
 * the calibrations are kept as samples for the run record.
 */
class HostTimes
{
  public:
    void
    add(const Pass &p)
    {
        const double setup =
            p.scaled(&CellRun::buildS) + p.scaled(&CellRun::placeS);
        const double drain = p.scaled(&CellRun::drainS);
        // Set-up, drain and dump of every cell, plus the sweep's own
        // cost around its jobs.
        const double run = setup + drain + p.scaled(&CellRun::dumpS) +
                           (p.wallS - p.sum(&CellRun::jobS)) * p.meanScale();
        _samples["setup_s"].push_back(setup);
        _samples["drain_s"].push_back(drain);
        _samples["run_s"].push_back(run);
        _samples["raw_setup_s"].push_back(p.sum(&CellRun::buildS) +
                                          p.sum(&CellRun::placeS));
        _samples["raw_drain_s"].push_back(p.sum(&CellRun::drainS));
        _samples["calibration_ms"].push_back(
            1e3 * p.sum(&CellRun::calS) / double(p.cells.size()));
    }

    /** @p ref supplies the (identical in every pass) translations. */
    void
    report(const Pass &ref, Metrics &m) const
    {
        m["setup_s"] = median(_samples.at("setup_s"));
        m["run_s"] = median(_samples.at("run_s"));
        m["translations_per_s"] =
            ratio(ref.count("translations"), median(_samples.at("drain_s")));
    }

    const std::map<std::string, std::vector<double>> &
    samples() const
    {
        return _samples;
    }

  private:
    std::map<std::string, std::vector<double>> _samples;
};

/** Per-cell oracle-normalized results of a dense_grid pass. */
struct FidelityCell
{
    std::string model;
    std::string design;
    Tick cycles = 0;
    Tick oracleCycles = 0;
};

std::vector<FidelityCell>
fidelityCells(const WorkloadDef &w, const Pass &p)
{
    std::map<std::string, Tick> oracle;
    for (std::size_t i = 0; i < p.cells.size(); i++) {
        if (w.cells[i].cfg.mmuKind == MmuKind::Oracle)
            oracle[w.cells[i].model] = p.cells[i].cycles;
    }
    std::vector<FidelityCell> out;
    for (std::size_t i = 0; i < p.cells.size(); i++) {
        FidelityCell f;
        f.model = w.cells[i].model;
        f.design = mmuKindName(w.cells[i].cfg.mmuKind);
        f.cycles = p.cells[i].cycles;
        f.oracleCycles = oracle[f.model];
        out.push_back(f);
    }
    return out;
}

/** The simulated end-to-end metrics workload @p w defines. */
void
simulatedMetrics(const WorkloadDef &w, const Pass &p, Metrics &m)
{
    if (w.name == "dense_grid") {
        std::map<std::string, std::vector<double>> norms;
        for (const FidelityCell &f : fidelityCells(w, p))
            norms[f.design].push_back(
                ratio(double(f.oracleCycles), double(f.cycles)));
        m["neummu_norm_perf"] =
            stats::geomean(norms[mmuKindName(MmuKind::NeuMmu)]);
        m["iommu_norm_perf"] =
            stats::geomean(norms[mmuKindName(MmuKind::BaselineIommu)]);
    } else if (w.name == "serve_churn") {
        stats::Histogram lat;
        for (const CellRun &c : p.cells)
            lat.merge(c.latency);
        m["serve_p50_cycles"] = double(lat.quantile(0.5));
        m["serve_p99_cycles"] = double(lat.quantile(0.99));
        m["serve_latency_samples"] = double(lat.count());
        m["serve_goodput"] =
            ratio(p.count("serve_completed") - p.count("serve_violations"),
                  p.count("serve_arrivals"));
    } else {
        // Mean drain over the pass's instances.
        double cycles = 0.0;
        for (const CellRun &c : p.cells)
            cycles += double(c.cycles);
        m["sim_cycles"] = ratio(cycles, double(p.cells.size()));
    }
}

/** Host self time of one profiler slot, summed over cells, in ms. */
double
profMs(const Pass &p, ProfSubsystem sub)
{
    double ns = 0.0;
    for (std::size_t i = 0; i < p.cells.size(); i++)
        ns += double(p.cells[i].prof.slot(sub).nanos) * p.scale(i);
    return ns * 1e-6;
}

double
profTotalNs(const Pass &p)
{
    double ns = 0.0;
    for (const CellRun &c : p.cells)
        for (unsigned s = 0; s < SimProfiler::numSlots; s++)
            ns += double(c.prof.slot(ProfSubsystem(s)).nanos);
    return ns;
}

/** The per-layer metrics of an observe run. */
Metrics
layerMetrics(const WorkloadDef &w, const Pass &ref,
             const std::vector<Pass> &rounds)
{
    Metrics m;
    const auto n = [&](const char *name) { return ref.count(name); };

    // Medians over the round passes of each observer kind.
    const auto med = [&](Observe kind,
                         const std::function<double(const Pass &)> &f) {
        std::vector<double> xs;
        for (const Pass &p : rounds)
            if (p.observe == kind)
                xs.push_back(f(p));
        return median(xs);
    };
    const auto profMed = [&](ProfSubsystem sub) {
        return med(Observe::Profile,
                   [sub](const Pass &p) { return profMs(p, sub); });
    };

    std::uint64_t peak = 0;
    for (const CellRun &c : ref.cells)
        peak = std::max(peak, c.peakQueueDepth);

    // sim
    m["sim.events_per_translation"] = ratio(n("events"), n("translations"));
    m["sim.train_inline_ratio"] = ratio(n("trains_inlined"), n("events"));
    m["sim.same_tick_shortcuts"] = n("same_tick_shortcuts");
    m["sim.peak_queue_depth"] = double(peak);
    m["prof.kernel_self_ms"] = profMed(ProfSubsystem::Kernel);

    // sim (domain)
    m["domain.sync_windows"] = n("sync_windows");
    m["domain.events_per_window"] =
        ratio(n("sharded_events"), n("sync_windows"));
    m["domain.cross_messages"] = n("cross_messages");
    m["prof.unattributed_share"] = med(Observe::Profile, [](const Pass &p) {
        double thread_ns = 0.0;
        for (const CellRun &c : p.cells)
            thread_ns += c.drainS * 1e9 * double(c.threads);
        return 1.0 - ratio(profTotalNs(p), thread_ns);
    });

    // npu
    m["dma.translations_issued"] = n("dma_issued");
    m["dma.stall_cycles"] = n("dma_stall");
    m["dma.blocked_issue_ratio"] =
        ratio(n("blocked_issues"), n("mmu_requests"));
    m["prof.dma_issue_self_ms"] = profMed(ProfSubsystem::DmaIssue);
    m["prof.dma_data_self_ms"] = profMed(ProfSubsystem::DmaData);

    // mmu
    m["mmu.tlb_hit_rate"] =
        ratio(n("tlb_hits"), n("tlb_hits") + n("tlb_misses"));
    m["mmu.walks_per_translation"] = ratio(n("walks"), n("translations"));
    m["mmu.walk_mem_accesses"] = n("walk_mem_accesses");
    m["mmu.prmb_merges"] = n("prmb_merges");
    m["mmu.redundant_walks"] = n("redundant_walks");
    m["mmu.xlate_reg_hits"] = n("xlate_reg_hits");
    m["mmu.path_cache_skipped_levels"] = n("path_cache_skipped_levels");
    m["router.cap_rejections"] = n("cap_rejections");
    m["prof.mmu_translate_self_ms"] = profMed(ProfSubsystem::MmuTranslate);
    m["prof.mmu_walk_self_ms"] = profMed(ProfSubsystem::MmuWalk);
    m["prof.mmu_respond_self_ms"] = profMed(ProfSubsystem::MmuRespond);
    m["mmu.shootdowns"] = n("mmu_shootdowns");
    m["mmu.squashed_walks"] = n("squashed_walks");

    // per-stage decomposition, over the decomposed cells of the first
    // traced pass (simulated, so every traced pass agrees)
    const Pass *traced = nullptr;
    for (const Pass &p : rounds)
        if (!traced && p.observe == Observe::Trace)
            traced = &p;
    static const char *const stageNames[] = {
        "TlbHit",     "TlbMiss",  "PrmbMerge", "Walk",
        "QueueDelay", "CreditWait", "HopToHub", "HubQueue",
        "Fault",      "PageFetch", "Respond"};
    std::vector<std::uint64_t> ticks(trace::numStages, 0);
    std::vector<stats::Histogram> charged(trace::numStages);
    std::vector<stats::Histogram> raw(trace::numStages);
    if (traced) {
        for (std::size_t i = 0; i < traced->cells.size(); i++) {
            const CellRun &c = traced->cells[i];
            if (!w.cells[i].decomposed)
                continue;
            for (unsigned s = 0; s < trace::numStages; s++) {
                ticks[s] += c.stageTicks[s];
                charged[s].merge(c.stageHist[s]);
                raw[s].merge(c.rawHist[s]);
            }
        }
    }
    std::uint64_t total_ticks = 0;
    for (const std::uint64_t t : ticks)
        total_ticks += t;
    for (const char *name : stageNames) {
        unsigned s = 0;
        while (s < trace::numStages &&
               std::string(trace::stageName(trace::Stage(s))) != name)
            s++;
        if (s == trace::numStages)
            throw std::runtime_error(std::string("unknown stage ") + name);
        // Stages the decomposition never charges (page fetches run
        // beside the request) report their recorded span p99.
        const stats::Histogram &h =
            charged[s].count() ? charged[s] : raw[s];
        m[std::string("stage.") + name + ".share"] =
            ratio(double(ticks[s]), double(total_ticks));
        m[std::string("stage.") + name + ".p99"] = double(h.quantile(0.99));
    }

    // vm / mem
    m["vm.place_ms"] = med(Observe::None, [](const Pass &p) {
        return p.scaled(&CellRun::placeS) * 1e3;
    });
    m["vm.walk_cache_hits"] = n("walk_cache_hits");
    m["mem.accesses"] = n("mem_accesses");
    m["mem.bytes"] = n("mem_bytes");
    m["prof.memory_self_ms"] = profMed(ProfSubsystem::Memory);

    // system / paging
    m["system.build_ms"] = med(Observe::None, [](const Pass &p) {
        return p.scaled(&CellRun::buildS) * 1e3;
    });
    m["paging.faults"] = n("paging_faults");
    m["paging.coalesced_ratio"] =
        ratio(n("paging_coalesced"), n("paging_faults"));
    m["paging.evictions"] = n("paging_evictions");
    m["paging.shootdowns"] = n("paging_shootdowns");
    m["paging.stall_cycles"] = n("paging_stall");
    m["paging.overcommits"] = n("paging_overcommits");

    // serving
    stats::Histogram queue_wait;
    stats::Histogram service;
    stats::Histogram latency;
    double backlog = 0.0;
    unsigned serving_cells = 0;
    for (const CellRun &c : ref.cells) {
        queue_wait.merge(c.queueWait);
        service.merge(c.service);
        latency.merge(c.latency);
        if (c.counts.count("serve_arrivals")) {
            backlog += c.backlogGrowth;
            serving_cells++;
        }
    }
    m["serve.arrivals"] = n("serve_arrivals");
    m["serve.completed"] = n("serve_completed");
    m["serve.dropped"] = n("serve_dropped");
    m["serve.unrouted"] = n("serve_unrouted");
    m["serve.queue_wait_p99"] = double(queue_wait.quantile(0.99));
    m["serve.service_p99"] = double(service.quantile(0.99));
    m["serve.backlog_growth"] = ratio(backlog, double(serving_cells));
    m["serve.admitted"] = n("serve_admitted");
    m["serve.retired"] = n("serve_retired");
    m["serve.latency_samples"] = double(latency.count());

    // sweep / stats
    m["sweep.overhead_ms"] = med(Observe::None, [](const Pass &p) {
        return (p.wallS - p.sum(&CellRun::jobS)) * p.meanScale() * 1e3;
    });
    m["sweep.job_p50_ms"] = med(Observe::None, [](const Pass &p) {
        std::vector<double> jobs;
        for (std::size_t i = 0; i < p.cells.size(); i++)
            jobs.push_back(p.cells[i].jobS * p.scale(i) * 1e3);
        return median(jobs);
    });
    m["stats.dump_ms"] = med(Observe::None, [](const Pass &p) {
        return p.scaled(&CellRun::dumpS) * 1e3;
    });

    // trace
    const double untraced_drain = med(Observe::None, [](const Pass &p) {
        return p.scaled(&CellRun::drainS);
    });
    const double traced_drain = med(Observe::Trace, [](const Pass &p) {
        return p.scaled(&CellRun::drainS);
    });
    m["trace.overhead"] = ratio(traced_drain, untraced_drain) - 1.0;
    if (traced) {
        m["trace.spans_recorded"] = traced->count("spans_recorded");
        m["trace.dropped"] = traced->count("spans_dropped");
    }
    return m;
}

/**
 * This process's peak resident set (VmHWM), in MiB. Unlike getrusage's
 * ru_maxrss, VmHWM starts afresh at exec, so it does not inherit the
 * peak of the process that launched the benchmark.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- Output -------------------------------------------------------------

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonMetrics(const Metrics &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &kv : m) {
        out += (first ? "\"" : ", \"") + kv.first +
               "\": " + jsonNumber(kv.second);
        first = false;
    }
    return out + "}";
}

/** The 18 dense cells' cycles, for the fidelity record. */
std::string
fidelityJson(const WorkloadDef &w, const Pass &p)
{
    std::string out = "[";
    for (const FidelityCell &f : fidelityCells(w, p)) {
        out += out.size() > 1 ? ", " : "";
        out += "{\"model\": \"" + f.model + "\", \"design\": \"" +
               f.design + "\", \"cycles\": " +
               jsonNumber(double(f.cycles)) + ", \"oracle_cycles\": " +
               jsonNumber(double(f.oracleCycles)) + "}";
    }
    return out + "]";
}

/** Simulation threads a cell of @p p used (domain workers). */
unsigned
threadsUsed(const Pass &p)
{
    unsigned threads = 1;
    for (const CellRun &c : p.cells)
        threads = std::max(threads, c.threads);
    return threads;
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    const std::string workload = args.get("workload", "");
    const std::string mode = args.get("mode", "measure");
    const std::uint64_t seed = std::uint64_t(args.getInt("seed", 1));
    const double seconds = args.getDouble("seconds", 10.0);
    const std::string trace_out = args.get("trace-out", "");
    if (mode != "measure" && mode != "observe") {
        std::fprintf(stderr, "unknown --mode=%s (measure, observe)\n",
                     mode.c_str());
        return 2;
    }

    try {
        const WorkloadDef w = makeWorkload(workload, seed);
        Ledger ledger;
        Metrics metrics;
        std::string fidelity;
        std::string samples;

        const Pass ref = runPass(w, Observe::None, "");
        checkPass(w, ref, nullptr, ledger);
        const unsigned threads = threadsUsed(ref);

        std::size_t passes = 0;
        if (mode == "measure") {
            HostTimes host;
            const std::size_t timed = std::max<std::size_t>(
                3, std::size_t(std::lround(seconds / w.passS)));
            while (passes < timed) {
                const Pass p = runPass(w, Observe::None, "");
                checkPass(w, p, &ref, ledger);
                host.add(p);
                passes++;
            }
            metrics["peak_rss_mb"] = peakRssMb();
            host.report(ref, metrics);
            for (const auto &kv : host.samples()) {
                samples += (samples.empty() ? "{\"" : ", \"") + kv.first +
                           "\": [";
                for (std::size_t i = 0; i < kv.second.size(); i++)
                    samples += (i ? ", " : "") + jsonNumber(kv.second[i]);
                samples += "]";
            }
            samples += "}";

            // The sharded kernel must give the same dump at any shard
            // count: re-run the first mix instance at sim.shards=1.
            if (w.name == "npu64_mix") {
                Cell one = w.cells.front();
                one.cfg.sim.shards = 1;
                one.cfg.sim.threads = 1;
                bool same = false;
                std::string why = "shards=1 dump differs from shards=2";
                try {
                    same = runCell(one, Observe::None, "").dumpHash ==
                           ref.cells.front().dumpHash;
                } catch (const std::exception &e) {
                    why = std::string("shards=1 run threw: ") + e.what();
                }
                ledger.record(same, w.name + "/" + one.id + ": " + why);
            }

            // Simulated end-to-end metrics: this workload's from its
            // reference pass, the others' from one untimed pass each,
            // whose cost the run record keeps as cross_workload_s.
            simulatedMetrics(w, ref, metrics);
            const auto cross = Clock::now();
            if (w.name == "dense_grid")
                fidelity = fidelityJson(w, ref);
            for (const char *other : workloadNames) {
                if (other == w.name)
                    continue;
                const WorkloadDef ow = makeWorkload(other, seed);
                const Pass op = runPass(ow, Observe::None, "");
                checkPass(ow, op, nullptr, ledger);
                simulatedMetrics(ow, op, metrics);
                if (ow.name == "dense_grid")
                    fidelity = fidelityJson(ow, op);
            }
            metrics["cross_workload_s"] = secondsSince(cross);
        } else {
            std::vector<Pass> rounds;
            const auto start = Clock::now();
            while (passes < 1 || secondsSince(start) < seconds) {
                for (const Observe obs :
                     {Observe::None, Observe::Profile, Observe::Trace}) {
                    const bool first_trace =
                        obs == Observe::Trace && passes == 0;
                    rounds.push_back(
                        runPass(w, obs, first_trace ? trace_out : ""));
                    checkPass(w, rounds.back(), &ref, ledger);
                }
                passes++;
            }
            metrics = layerMetrics(w, ref, rounds);
        }

        std::printf(
            "{\"workload\": \"%s\", \"seed\": %" PRIu64
            ", \"mode\": \"%s\", \"passes\": %zu, \"attempted\": %" PRIu64
            ", \"failed\": %" PRIu64 ", \"failures\": [",
            w.name.c_str(), seed, mode.c_str(), passes, ledger.attempted,
            ledger.failed);
        for (std::size_t i = 0; i < ledger.failures.size(); i++)
            std::printf("%s\"%s\"", i ? ", " : "",
                        stats::jsonEscape(ledger.failures[i]).c_str());
        std::printf("], \"context\": {\"build_type\": \"%s\", "
                    "\"compiler\": \"%s\", \"hardware_threads\": %u, "
                    "\"sweep_workers\": 1, \"sim_threads\": %u}",
                    NEUMMU_PERFBENCH_BUILD_TYPE, NEUMMU_PERFBENCH_COMPILER,
                    std::thread::hardware_concurrency(), threads);
        std::printf(", \"metrics\": %s", jsonMetrics(metrics).c_str());
        if (!samples.empty())
            std::printf(", \"samples\": %s", samples.c_str());
        if (!fidelity.empty())
            std::printf(", \"fidelity_cells\": %s", fidelity.c_str());
        std::printf("}\n");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
