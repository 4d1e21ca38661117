#include "sweep/sweep_engine.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "system/scheduler.hh"
#include "workloads/workload_factory.hh"

namespace neummu {
namespace sweep {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

SweepEngine::SweepEngine(SweepOptions opts) : _opts(std::move(opts)) {}

unsigned
SweepEngine::effectiveThreads(unsigned requested, std::size_t num_jobs)
{
    unsigned threads = requested;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (num_jobs > 0 && threads > num_jobs)
        threads = unsigned(num_jobs);
    return threads > 0 ? threads : 1;
}

JobOutcome
SweepEngine::runDeclarative(const JobSpec &spec)
{
    SystemConfig cfg = spec.base;
    applyOverrides(cfg, spec.overrides);

    // A serving job generates its own traffic open-loop, so an empty
    // workload list is legal there -- but it must bound the run.
    if (spec.workloads.empty() && !cfg.serve.enabled)
        throw BindError("job '" + spec.id + "' has no workloads");
    if (cfg.serve.enabled && spec.limit == maxTick)
        throw BindError("job '" + spec.id + "' enables serving but "
                        "has no cycle limit (open-loop runs forever)");
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(spec.workloads.size());
    for (const std::string &wl_spec : spec.workloads)
        workloads.push_back(makeWorkloadFromSpecChecked(wl_spec));
    cfg.numNpus = std::max<unsigned>(cfg.numNpus,
                                     unsigned(workloads.size()));

    System system(cfg);
    Scheduler scheduler(system);
    for (auto &wl : workloads)
        scheduler.add(std::move(wl));
    const SchedulerResult run = scheduler.run(spec.limit);

    JobOutcome out;
    out.totalCycles = run.totalCycles;
    out.allDone = run.allDone;
    std::ostringstream os;
    system.dumpStatsJson(os);
    out.statsJson = os.str();
    return out;
}

JobResult
SweepEngine::runOne(const JobSpec &spec, unsigned index) const
{
    JobResult result;
    result.id = spec.id;
    result.index = index;
    const auto start = Clock::now();
    // A broken invariant inside the job throws instead of aborting:
    // the job fails alone and its System unwinds.
    const InvariantTrap trap;
    try {
        const unsigned reps = spec.reps > 0 ? spec.reps : 1;
        for (unsigned rep = 0; rep < reps; rep++) {
            JobOutcome outcome =
                spec.runner ? spec.runner() : runDeclarative(spec);
            if (rep == 0) {
                result.outcome = std::move(outcome);
            } else if (outcome.statsJson != result.outcome.statsJson ||
                       outcome.totalCycles !=
                           result.outcome.totalCycles) {
                result.deterministic = false;
            }
        }
        result.reps = reps;
        result.ok = true;
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
    } catch (...) {
        result.ok = false;
        result.error = "unknown exception";
    }
    result.wallSeconds = secondsSince(start);
    return result;
}

SweepResults
SweepEngine::run(const std::vector<JobSpec> &jobs)
{
    SweepResults out;
    out.jobs.resize(jobs.size());
    const unsigned threads =
        effectiveThreads(_opts.threads, jobs.size());
    out.summary.jobs = unsigned(jobs.size());
    out.summary.threads = threads;

    const auto start = Clock::now();
    std::atomic<std::size_t> next{0};
    unsigned completed = 0;
    std::mutex mu;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            JobResult result = runOne(jobs[i], unsigned(i));
            std::lock_guard<std::mutex> lock(mu);
            out.jobs[i] = std::move(result);
            completed++;
            if (_opts.progress)
                _opts.progress(completed, unsigned(jobs.size()),
                               out.jobs[i]);
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    out.summary.wallSeconds = secondsSince(start);
    for (const JobResult &r : out.jobs)
        if (!r.ok)
            out.summary.failures++;
    return out;
}

std::string
compareRuns(const SweepResults &a, const SweepResults &b)
{
    if (a.jobs.size() != b.jobs.size())
        return "job count differs: " + std::to_string(a.jobs.size()) +
               " vs " + std::to_string(b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); i++) {
        const JobResult &ja = a.jobs[i];
        const JobResult &jb = b.jobs[i];
        if (ja.id != jb.id)
            return "job " + std::to_string(i) + " id differs: '" +
                   ja.id + "' vs '" + jb.id + "'";
        if (ja.ok != jb.ok)
            return "job '" + ja.id + "' success differs";
        if (ja.outcome.totalCycles != jb.outcome.totalCycles)
            return "job '" + ja.id + "' totalCycles differs: " +
                   std::to_string(ja.outcome.totalCycles) + " vs " +
                   std::to_string(jb.outcome.totalCycles);
        if (ja.outcome.statsJson != jb.outcome.statsJson)
            return "job '" + ja.id + "' stats dump differs";
    }
    return "";
}

} // namespace sweep
} // namespace neummu
