/**
 * @file
 * neummu_trace: run one simulation job with lifecycle tracing forced
 * on and write the Chrome trace-event JSON (load it in Perfetto /
 * chrome://tracing). The trace front door of the simulator -- any
 * manifest job or ad-hoc --set configuration becomes a `.trace.json`
 * plus the per-stage "where did p99 go" latency decomposition.
 *
 *   neummu_trace --manifest=jobs.jsonl --job=ptw32 --out=ptw32.trace.json
 *   neummu_trace --set="numNpus=4;serve.enabled=1;serve.tenants=8" \
 *       --cycles=2000000 --tail=50000 --out=serve.trace.json
 *   neummu_trace --workloads=dense:model=CNN1,batch=1 --out=-
 *
 * Options:
 *   --manifest=FILE     JSONL manifest to pick the job from
 *   --job=ID            job id within the manifest (default: first)
 *   --set=K=V;K=V;...   ConfigBinder overrides (applied after the
 *                       manifest job's own "set" when both given)
 *   --workloads=SPEC    '+'-separated workload specs (ad-hoc mode)
 *   --cycles=N          run limit in cycles (default: drain, but
 *                       serving configs require a finite limit)
 *   --seed=N            root seed override
 *   --tail=N            trace.tailThreshold: flush only requests
 *                       with e2e latency >= N ticks (0 = keep all)
 *   --auto-p99=0|1      trace.autoP99 live-p99 trigger
 *   --out=FILE          Chrome trace JSON path; "-" for stdout
 *                       (default: trace.json)
 *   --report=0|1        print the latency decomposition (default 1)
 *   --list-keys         print the ConfigBinder key table and exit
 *
 * Exit codes: 0 success; 1 usage/config error.
 */

#include <array>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "common/logging.hh"
#include "sweep/config_binder.hh"
#include "sweep/manifest.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "trace/trace_engine.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/** Split a '+'-separated workload list ("dense:...+embedding:..."). */
std::vector<std::string>
splitWorkloads(const std::string &spec)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t plus = spec.find('+', start);
        const std::string part =
            spec.substr(start, plus == std::string::npos
                                   ? std::string::npos
                                   : plus - start);
        if (!part.empty())
            out.push_back(part);
        if (plus == std::string::npos)
            break;
        start = plus + 1;
    }
    return out;
}

void
printDecomposition(const char *title,
                   const std::array<trace::TraceEngine::StageRow,
                                    trace::numStages> &rows,
                   std::uint64_t traced, std::uint64_t charged,
                   std::uint64_t e2e)
{
    if (!traced)
        return;
    std::printf("--- %s latency decomposition (%llu traced) ---\n",
                title, (unsigned long long)traced);
    std::printf("%-12s %10s %14s %10s %10s %7s\n", "stage",
                "requests", "totalTicks", "mean", "p99", "share");
    for (unsigned s = 0; s < trace::numStages; s++) {
        const trace::TraceEngine::StageRow &row = rows[s];
        if (!row.count)
            continue;
        std::printf("%-12s %10llu %14llu %10.1f %10llu %6.2f%%\n",
                    trace::stageName(trace::Stage(s)),
                    (unsigned long long)row.count,
                    (unsigned long long)row.totalTicks,
                    row.hist.mean(),
                    (unsigned long long)row.hist.quantile(0.99),
                    e2e ? 100.0 * double(row.totalTicks) / double(e2e)
                        : 0.0);
    }
    std::printf("%-12s %10s %14llu  (e2e %llu, %s)\n", "total", "",
                (unsigned long long)charged, (unsigned long long)e2e,
                charged == e2e ? "stage sum == e2e" : "MISMATCH");
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);

    if (args.getBool("list-keys", false)) {
        std::printf("ConfigBinder keys (--set entries):\n%s",
                    sweep::binderHelp().c_str());
        return 0;
    }

    const std::string out_path = args.get("out", "trace.json");
    // "--out=-" owns stdout: the trace itself is the only output.
    const bool quiet = out_path == "-";

    try {
        sweep::JobSpec job;
        const std::string manifest_path = args.get("manifest", "");
        if (!manifest_path.empty()) {
            const std::vector<sweep::JobSpec> jobs =
                sweep::loadManifest(manifest_path, SystemConfig{});
            const std::string want = args.get("job", "");
            bool found = false;
            for (const sweep::JobSpec &candidate : jobs) {
                if (want.empty() || candidate.id == want) {
                    job = candidate;
                    found = true;
                    break;
                }
            }
            if (!found)
                NEUMMU_FATAL("manifest " + manifest_path +
                             " has no job '" + want + "'");
        }

        SystemConfig cfg = job.base;
        sweep::OverrideList overrides = job.overrides;
        for (const std::string &entry : args.getList("set", "", ';'))
            overrides.push_back(sweep::parseOverride(entry));
        sweep::applyOverrides(cfg, overrides);
        if (args.has("seed"))
            cfg.seed = std::uint64_t(args.getInt("seed", 0));

        // This binary IS tracing mode.
        cfg.trace.enabled = true;
        if (args.has("tail"))
            cfg.trace.tailThreshold =
                Tick(args.getInt("tail", 0));
        if (args.has("auto-p99"))
            cfg.trace.autoP99 = args.getBool("auto-p99", false);

        const std::string wl_spec = args.get("workloads", "");
        std::vector<std::string> wl_specs = job.workloads;
        if (!wl_spec.empty())
            wl_specs = splitWorkloads(wl_spec);

        Tick limit = job.limit;
        if (args.has("cycles"))
            limit = Tick(args.getInt("cycles", 0));
        if (wl_specs.empty() && !cfg.serve.enabled)
            NEUMMU_FATAL("nothing to run: give --workloads=SPEC, a "
                         "manifest job with workloads, or a serving "
                         "config (serve.enabled=1)");
        if (cfg.serve.enabled && limit == maxTick)
            NEUMMU_FATAL("serving configs need a finite --cycles "
                         "limit (open-loop runs forever)");

        std::vector<std::unique_ptr<Workload>> workloads;
        workloads.reserve(wl_specs.size());
        for (const std::string &spec : wl_specs)
            workloads.push_back(makeWorkloadFromSpecChecked(spec));
        cfg.numNpus = std::max<unsigned>(cfg.numNpus,
                                         unsigned(workloads.size()));

        System system(cfg);
        Scheduler scheduler(system);
        for (auto &wl : workloads)
            scheduler.add(std::move(wl));
        if (!quiet)
            std::printf("tracing: %u NPU(s), tailThreshold=%llu%s, "
                        "%s run limit\n",
                        system.numNpus(),
                        (unsigned long long)cfg.trace.tailThreshold,
                        cfg.trace.autoP99 ? " + live p99" : "",
                        limit == maxTick ? "drain" : "finite");
        scheduler.run(limit);

        trace::TraceEngine &engine = system.traceEngine();
        if (out_path == "-") {
            engine.writeChromeTrace(std::cout);
        } else {
            if (!engine.writeChromeTraceFile(out_path))
                NEUMMU_FATAL("cannot write trace JSON to " +
                             out_path);
        }

        const trace::TraceEngine::Report &rep = engine.report();
        if (args.getBool("report", true) && !quiet) {
            std::printf("spans: recorded=%llu emitted=%llu "
                        "dropped=%llu openAtDrain=%llu\n",
                        (unsigned long long)rep.spansRecorded,
                        (unsigned long long)rep.spansEmitted,
                        (unsigned long long)rep.dropped,
                        (unsigned long long)rep.openAtDrain);
            printDecomposition("request", rep.requestStages,
                               rep.tracedRequests,
                               rep.requestChargedTicks,
                               rep.requestE2eTicks);
            printDecomposition("translation", rep.stages,
                               rep.tracedTranslations,
                               rep.translationChargedTicks,
                               rep.translationE2eTicks);
        }
        if (!quiet)
            std::printf("wrote Chrome trace JSON to %s "
                        "(open in Perfetto: ui.perfetto.dev)\n",
                        out_path.c_str());
        return 0;
    } catch (const std::exception &e) {
        NEUMMU_FATAL(e.what());
    }
}
