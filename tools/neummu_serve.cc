/**
 * @file
 * neummu_serve: run one System in open-loop serving mode and print an
 * SLO report. The serving front door of the simulator -- where
 * neummu_sweep runs closed-loop jobs to completion, this drives an
 * arrival process over a churning tenant population for a fixed
 * number of cycles and reports tail latency the way a production
 * serving stack would.
 *
 *   neummu_serve --cycles=10000000 \
 *       --set="numNpus=8;serve.process=poisson;serve.tenants=16"
 *   neummu_serve --set="serve.process=bursty" --json=- --report=0
 *
 * Options:
 *   --set=K=V;K=V;...   ConfigBinder overrides (serve.enabled is
 *                       forced on; see --list-keys for the table)
 *   --cycles=N          simulated cycles to run (default 2000000)
 *   --seed=N            root seed (shorthand for --set=seed=N)
 *   --json=FILE         write the full stats dump as JSON; "-" for
 *                       stdout
 *   --trace=FILE        force trace.enabled and write the Chrome
 *                       trace-event JSON (Perfetto-loadable) here
 *   --report=0|1        print the human SLO report (default 1);
 *                       with tracing on, appends the per-stage
 *                       "where did p99 go" latency decomposition
 *   --tenants=0|1       include the per-tenant table in the report
 *                       (default 1)
 *   --quiet=1           suppress everything but explicit outputs
 *   --list-keys         print the ConfigBinder key table and exit
 *
 * Exit codes: 0 success; 1 usage/config error.
 */

#include <array>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "common/arg_parser.hh"
#include "common/logging.hh"
#include "serving/serving_engine.hh"
#include "sweep/config_binder.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "trace/trace_engine.hh"

using namespace neummu;

namespace {

void
printReport(const serving::ServeReport &rep, const serving::ServeConfig &cfg,
            Tick cycles, bool tenant_table)
{
    std::printf("=== serving report (%llu cycles) ===\n",
                (unsigned long long)cycles);
    std::printf("  arrivals      %llu\n",
                (unsigned long long)rep.arrivals);
    std::printf("  completed     %llu\n",
                (unsigned long long)rep.completed);
    std::printf("  dropped       %llu\n",
                (unsigned long long)rep.dropped);
    std::printf("  unrouted      %llu\n",
                (unsigned long long)rep.unrouted);
    std::printf("  tenants       live=%llu admitted=%llu "
                "retired=%llu\n",
                (unsigned long long)rep.liveTenants,
                (unsigned long long)rep.admitted,
                (unsigned long long)rep.retired);
    std::printf("  latency       mean=%.1f p50=%llu p90=%llu "
                "p99=%llu p999=%llu cycles\n",
                rep.meanLatency, (unsigned long long)rep.p50,
                (unsigned long long)rep.p90,
                (unsigned long long)rep.p99,
                (unsigned long long)rep.p999);
    std::printf("  slo           target=%llu cycles  violations=%llu"
                "  goodput=%.4f\n",
                (unsigned long long)cfg.sloLatencyCycles,
                (unsigned long long)rep.sloViolations, rep.goodput);
    if (!tenant_table || rep.tenants.empty())
        return;
    std::printf("  %-8s %-5s %12s %12s %8s %s\n", "tenant", "slot",
                "completed", "violations", "pending", "state");
    for (const serving::ServeReport::TenantLine &t : rep.tenants)
        std::printf("  %-8s %-5u %12llu %12llu %8llu %s\n",
                    t.name.c_str(), t.slot,
                    (unsigned long long)t.completed,
                    (unsigned long long)t.violations,
                    (unsigned long long)t.pending,
                    t.draining ? "draining" : "running");
}

/**
 * The "where did p99 go" table: one partition of traced latency per
 * lifecycle level (serving requests, translation requests). Every
 * tick of every traced request is charged to exactly one stage, so
 * the "total" row equals the traced end-to-end latency sum -- the
 * decomposition explains the tail instead of sampling around it.
 */
void
printDecomposition(const char *title,
                   const std::array<trace::TraceEngine::StageRow,
                                    trace::numStages> &rows,
                   std::uint64_t traced, std::uint64_t charged,
                   std::uint64_t e2e)
{
    if (!traced)
        return;
    std::printf("  --- %s latency decomposition (%llu traced) ---\n",
                title, (unsigned long long)traced);
    std::printf("  %-12s %10s %14s %10s %10s %7s\n", "stage",
                "requests", "totalTicks", "mean", "p99", "share");
    for (unsigned s = 0; s < trace::numStages; s++) {
        const trace::TraceEngine::StageRow &row = rows[s];
        if (!row.count)
            continue;
        std::printf("  %-12s %10llu %14llu %10.1f %10llu %6.2f%%\n",
                    trace::stageName(trace::Stage(s)),
                    (unsigned long long)row.count,
                    (unsigned long long)row.totalTicks,
                    row.hist.mean(),
                    (unsigned long long)row.hist.quantile(0.99),
                    e2e ? 100.0 * double(row.totalTicks) /
                              double(e2e)
                        : 0.0);
    }
    std::printf("  %-12s %10s %14llu  (e2e %llu, %s)\n", "total", "",
                (unsigned long long)charged,
                (unsigned long long)e2e,
                charged == e2e ? "stage sum == e2e"
                               : "MISMATCH");
}

void
printTraceReport(const trace::TraceEngine::Report &rep)
{
    std::printf("=== trace report ===\n");
    std::printf("  spans         recorded=%llu emitted=%llu "
                "dropped=%llu openAtDrain=%llu\n",
                (unsigned long long)rep.spansRecorded,
                (unsigned long long)rep.spansEmitted,
                (unsigned long long)rep.dropped,
                (unsigned long long)rep.openAtDrain);
    printDecomposition("request", rep.requestStages,
                       rep.tracedRequests, rep.requestChargedTicks,
                       rep.requestE2eTicks);
    printDecomposition("translation", rep.stages,
                       rep.tracedTranslations,
                       rep.translationChargedTicks,
                       rep.translationE2eTicks);
    if (rep.tenants.empty())
        return;
    std::printf("  --- per-tenant traced latency (ticks) ---\n");
    std::printf("  %-8s %10s %10s %10s %10s\n", "tenant", "traced",
                "e2e p99", "queue p99", "service p99");
    for (const trace::TraceEngine::TenantRow &t : rep.tenants)
        std::printf("  t%-7u %10llu %10llu %10llu %10llu\n",
                    t.tenant, (unsigned long long)t.count,
                    (unsigned long long)t.e2e.quantile(0.99),
                    (unsigned long long)t.queue.quantile(0.99),
                    (unsigned long long)t.service.quantile(0.99));
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);

    if (args.getBool("list-keys", false)) {
        std::printf("ConfigBinder keys (--set entries; serve.* is "
                    "the serving layer):\n%s",
                    sweep::binderHelp().c_str());
        return 0;
    }

    const Tick cycles = Tick(args.getInt("cycles", 2000000));
    if (cycles == 0 || cycles == maxTick)
        NEUMMU_FATAL("--cycles must be a finite positive cycle "
                     "count (open-loop serving runs forever)");
    // "--json=-" owns stdout: everything else is suppressed so the
    // output parses as one JSON document.
    const bool quiet = args.getBool("quiet", false) ||
                       args.get("json", "") == "-";

    try {
        SystemConfig cfg;
        sweep::OverrideList sets;
        for (const std::string &entry : args.getList("set", "", ';'))
            sets.push_back(sweep::parseOverride(entry));
        sweep::applyOverrides(cfg, sets);
        // This binary IS serving mode; saying so twice is harmless.
        cfg.serve.enabled = true;
        if (args.has("seed"))
            cfg.seed = std::uint64_t(args.getInt("seed", 0));
        const std::string trace_path = args.get("trace", "");
        if (!trace_path.empty())
            cfg.trace.enabled = true;

        System system(cfg);
        Scheduler scheduler(system);
        if (!quiet)
            std::printf("serving: %u NPU(s), %s arrivals at "
                        "%.1f req/Mcycle, %u tenant(s), %llu "
                        "cycles\n",
                        system.numNpus(),
                        serving::arrivalKindName(
                            cfg.serve.arrival.kind),
                        cfg.serve.arrival.ratePerMcycle,
                        cfg.serve.tenants,
                        (unsigned long long)cycles);
        scheduler.run(cycles);

        const serving::ServingEngine &engine =
            system.servingEngine();
        if (args.getBool("report", true) && !quiet) {
            printReport(engine.report(), engine.config(),
                        system.now(), args.getBool("tenants", true));
            if (system.hasTraceEngine()) {
                system.traceEngine().drain();
                printTraceReport(system.traceEngine().report());
            }
        }

        if (!trace_path.empty()) {
            if (!system.traceEngine().writeChromeTraceFile(
                    trace_path))
                NEUMMU_FATAL("cannot write trace JSON to " +
                             trace_path);
            if (!quiet)
                std::printf("wrote Chrome trace JSON to %s\n",
                            trace_path.c_str());
        }

        const std::string json_path = args.get("json", "");
        if (json_path == "-") {
            system.dumpStatsJson(std::cout);
        } else if (!json_path.empty()) {
            if (!system.writeStatsJsonFile(json_path))
                NEUMMU_FATAL("cannot write JSON dump to " +
                             json_path);
            if (!quiet)
                std::printf("wrote stats JSON to %s\n",
                            json_path.c_str());
        }
        return 0;
    } catch (const std::exception &e) {
        NEUMMU_FATAL(e.what());
    }
}
