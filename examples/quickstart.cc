/**
 * @file
 * Quickstart: run AlexNet (CNN-1) through the simulated NPU under the
 * three MMU design points of the paper -- oracular, baseline IOMMU,
 * and NeuMMU -- and print cycle counts, translation activity, and
 * energy, reproducing the headline result (Section IV-D): the IOMMU
 * loses ~95% of performance, NeuMMU ~0%.
 *
 * The machine is described declaratively (SystemConfig) and built by
 * the System layer; pass --dump-stats=1 to see every component's
 * counters from the StatsRegistry after the NeuMMU run.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/arg_parser.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const unsigned batch = unsigned(args.getInt("batch", 1));

    DenseDnnWorkloadConfig wl;
    wl.workload = WorkloadId::CNN1;
    wl.batch = batch;

    const MmuKind points[] = {MmuKind::Oracle, MmuKind::BaselineIommu,
                              MmuKind::NeuMmu};

    std::printf("AlexNet (CNN-1), batch %u, 4 KB pages\n\n", batch);
    std::printf("%-8s %14s %10s %12s %12s %14s\n", "MMU", "cycles",
                "norm", "walks", "walkDram", "energy(uJ)");

    Tick oracle_cycles = 0;
    for (const MmuKind kind : points) {
        // Build the machine, place the workload on NPU 0, run it to
        // completion, then read the live components.
        SystemConfig cfg;
        cfg.mmuKind = kind;
        System system(cfg);
        Scheduler scheduler(system);
        scheduler.add(std::make_unique<DenseDnnWorkload>(wl), 0);
        if (!scheduler.run().allDone)
            return 1;

        const Tick cycles = system.now();
        const MmuCounts &counts = system.mmu().counts();
        if (oracle_cycles == 0)
            oracle_cycles = cycles;
        std::printf("%-8s %14llu %10.4f %12llu %12llu %14.2f\n",
                    mmuKindName(kind).c_str(),
                    (unsigned long long)cycles,
                    double(oracle_cycles) / double(cycles),
                    (unsigned long long)counts.walks,
                    (unsigned long long)counts.walkMemAccesses,
                    system.mmu().translationEnergyNj() / 1000.0);

        if (kind == MmuKind::NeuMmu &&
            args.getBool("dump-stats", false)) {
            std::printf("\nStatsRegistry dump (NeuMMU machine):\n");
            system.dumpStatsText(std::cout);
        }
    }
    return 0;
}
