/**
 * @file
 * Section VI-C (b): robustness of NeuMMU across large batch sizes
 * (32/64/128) on each workload's common layer configuration. The
 * design-space sweep of part (a) is a paper-claims ledger row
 * (scripts/paper_claims.jsonl); the common layers need layerOverride,
 * which a sweep job cannot set.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Section VI-C",
                       "NeuMMU sensitivity: large-batch common layers");
    bench::Reporter reporter("sec6c", argc, argv);

    std::printf("large-batch common layers (normalized performance)\n");
    std::printf("%-12s %-6s %10s %10s\n", "workload", "batch", "IOMMU",
                "NeuMMU");
    std::vector<double> iommu_all, neummu_all;
    for (const WorkloadId id : allWorkloads()) {
        for (const unsigned batch : {32u, 64u, 128u}) {
            DenseDnnWorkloadConfig wl;
            wl.workload = id;
            wl.batch = batch;
            wl.layerOverride = makeCommonLayer(id, batch).layers;
            auto cycles = [&wl](const MmuConfig &mmu) {
                SystemConfig cfg;
                cfg.mmu = mmu;
                System system(cfg);
                bench::runDense(system, wl);
                return system.now();
            };

            const Tick oracle = cycles(oracleMmuConfig());
            const double iommu =
                double(oracle) / double(cycles(baselineIommuConfig()));
            const double neummu =
                double(oracle) / double(cycles(neuMmuConfig()));

            iommu_all.push_back(iommu);
            neummu_all.push_back(neummu);
            std::printf("%-12s %-6u %10.4f %10.4f\n",
                        workloadName(id).c_str(), batch, iommu, neummu);
            std::fflush(stdout);
        }
    }
    std::printf("\nlarge-batch averages: IOMMU %.1f%% of oracle "
                "(paper: 5.9%%), NeuMMU %.1f%% (paper: 99.9%%)\n",
                bench::mean(iommu_all) * 100.0,
                bench::mean(neummu_all) * 100.0);

    stats::Group &g = reporter.group("largeBatch");
    g.scalar("iommuMeanNorm").set(bench::mean(iommu_all));
    g.scalar("neummuMeanNorm").set(bench::mean(neummu_all));
    reporter.finish();
    return 0;
}
