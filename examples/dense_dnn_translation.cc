/**
 * @file
 * Example: explore how a dense DNN of your choice behaves under the
 * full MMU design space -- oracle, baseline IOMMU, PRMB-only,
 * throughput-only (many PTWs, no PRMB), and the full NeuMMU --
 * with per-layer cycle breakdowns.
 *
 * Usage:
 *   dense_dnn_translation [--workload=CNN-3] [--batch=4]
 *                         [--pages=4k|2m] [--spatial]
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"

using namespace neummu;

namespace {

WorkloadId
parseWorkload(const std::string &name)
{
    for (const WorkloadId id : allWorkloads()) {
        if (workloadName(id) == name)
            return id;
    }
    std::fprintf(stderr,
                 "unknown workload '%s' (use CNN-1..3, RNN-1..3)\n",
                 name.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const WorkloadId workload =
        parseWorkload(args.get("workload", "CNN-3"));
    const unsigned batch = unsigned(args.getInt("batch", 4));
    const unsigned page_shift =
        args.get("pages", "4k") == "2m" ? largePageShift
                                        : smallPageShift;

    DenseDnnWorkloadConfig wl;
    wl.workload = workload;
    wl.batch = batch;
    SystemConfig cfg;
    cfg.pageShift = page_shift;
    if (args.getBool("spatial", false))
        cfg.npu.compute = ComputeKind::Spatial;

    struct DesignPoint
    {
        const char *name;
        MmuConfig mmu;
    };
    std::vector<DesignPoint> points;
    points.push_back({"Oracle", oracleMmuConfig(page_shift)});
    points.push_back({"IOMMU", baselineIommuConfig(page_shift)});
    MmuConfig prmb_only = baselineIommuConfig(page_shift);
    prmb_only.prmbSlots = 32;
    points.push_back({"IOMMU+PRMB", prmb_only});
    MmuConfig ptw_only = baselineIommuConfig(page_shift);
    ptw_only.numPtws = 128;
    points.push_back({"IOMMU+128PTW", ptw_only});
    points.push_back({"NeuMMU", neuMmuConfig(page_shift)});

    std::printf("%s, batch %u, %s pages, %s array\n\n",
                workloadName(workload).c_str(), batch,
                page_shift == smallPageShift ? "4 KB" : "2 MB",
                cfg.npu.compute == ComputeKind::Systolic ? "systolic"
                                                         : "spatial");

    Tick oracle_cycles = 0;
    std::vector<LayerResult> layers; // under the baseline IOMMU
    std::printf("%-14s %14s %8s %12s %12s %10s\n", "design", "cycles",
                "norm", "walks", "walkDram", "stall");
    for (const DesignPoint &dp : points) {
        cfg.mmu = dp.mmu;
        System system(cfg);
        Scheduler scheduler(system);
        const Workload &run =
            scheduler.add(std::make_unique<DenseDnnWorkload>(wl), 0);
        if (!scheduler.run().allDone)
            return 1;

        const Tick cycles = system.now();
        const MmuCounts &counts = system.mmu().counts();
        if (oracle_cycles == 0)
            oracle_cycles = cycles;
        std::printf("%-14s %14llu %8.4f %12llu %12llu %10llu\n",
                    dp.name, (unsigned long long)cycles,
                    double(oracle_cycles) / double(cycles),
                    (unsigned long long)counts.walks,
                    (unsigned long long)counts.walkMemAccesses,
                    (unsigned long long)system.dma(0).stallCycles());
        if (std::string(dp.name) == "IOMMU")
            layers = static_cast<const DenseDnnWorkload &>(run).layers();
    }

    // Per-layer view under the baseline IOMMU: which layers hurt.
    std::printf("\nper-layer breakdown under the baseline IOMMU "
                "(top 8 by cycles):\n");
    std::sort(layers.begin(), layers.end(),
              [](const LayerResult &a, const LayerResult &b) {
                  return a.cycles > b.cycles;
              });
    std::printf("%-16s %14s %8s %14s\n", "layer", "cycles", "tiles",
                "translations");
    for (std::size_t i = 0; i < layers.size() && i < 8; i++) {
        std::printf("%-16s %14llu %8llu %14llu\n",
                    layers[i].name.c_str(),
                    (unsigned long long)layers[i].cycles,
                    (unsigned long long)layers[i].tiles,
                    (unsigned long long)layers[i].translations);
    }
    return 0;
}
