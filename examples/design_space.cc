/**
 * @file
 * Example: use the library as a design-space exploration tool --
 * sweep a custom MMU configuration grid over one workload and print
 * the performance/energy Pareto view. Demonstrates building MmuConfig
 * by hand rather than using the canned design points.
 *
 * Usage:
 *   design_space [--workload=RNN-2] [--batch=4]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"

using namespace neummu;

namespace {

/** Place @p wl alone on NPU 0 of @p system and run it to completion. */
void
runAlone(System &system, const DenseDnnWorkloadConfig &wl)
{
    Scheduler scheduler(system);
    scheduler.add(std::make_unique<DenseDnnWorkload>(wl), 0);
    if (!scheduler.run().allDone)
        std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const std::string wanted = args.get("workload", "RNN-2");
    WorkloadId workload = WorkloadId::RNN2;
    for (const WorkloadId id : allWorkloads()) {
        if (workloadName(id) == wanted)
            workload = id;
    }
    const unsigned batch = unsigned(args.getInt("batch", 4));

    DenseDnnWorkloadConfig wl;
    wl.workload = workload;
    wl.batch = batch;
    SystemConfig oracle_cfg;
    oracle_cfg.mmu = oracleMmuConfig();
    System oracle_system(oracle_cfg);
    runAlone(oracle_system, wl);
    const Tick oracle = oracle_system.now();

    std::printf("%s b%u: oracle = %llu cycles\n\n",
                workloadName(workload).c_str(), batch,
                (unsigned long long)oracle);
    std::printf("%-6s %-6s %-8s %-6s %10s %12s %14s\n", "ptws",
                "prmb", "cache", "tlb", "norm", "walks",
                "energy(uJ)");

    struct Candidate
    {
        unsigned ptws;
        unsigned prmb;
        MmuCacheKind cache;
        std::size_t tlb;
    };
    std::vector<Candidate> grid;
    for (const unsigned ptws : {8u, 32u, 128u})
        for (const unsigned prmb : {0u, 8u, 32u})
            for (const MmuCacheKind cache :
                 {MmuCacheKind::None, MmuCacheKind::TpReg})
                grid.push_back(Candidate{ptws, prmb, cache, 2048});

    double best_norm = 0.0;
    Candidate best{};
    for (const Candidate &c : grid) {
        SystemConfig cfg;
        cfg.mmu = MmuConfig{};
        cfg.mmu.tlb = TlbConfig{c.tlb, 0, 5};
        cfg.mmu.numPtws = c.ptws;
        cfg.mmu.prmbSlots = c.prmb;
        cfg.mmu.pathCache = c.cache;
        System system(cfg);
        runAlone(system, wl);
        const double norm = double(oracle) / double(system.now());
        std::printf("%-6u %-6u %-8s %-6zu %10.4f %12llu %14.2f\n",
                    c.ptws, c.prmb,
                    c.cache == MmuCacheKind::TpReg ? "tpreg" : "none",
                    c.tlb, norm,
                    (unsigned long long)system.mmu().counts().walks,
                    system.mmu().translationEnergyNj() / 1000.0);
        if (norm > best_norm) {
            best_norm = norm;
            best = c;
        }
    }
    std::printf("\nbest point: %u PTWs, PRMB(%u), %s (%.4f of "
                "oracle)\n",
                best.ptws, best.prmb,
                best.cache == MmuCacheKind::TpReg ? "TPreg" : "no cache",
                best_norm);
    return 0;
}
