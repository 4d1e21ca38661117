/**
 * @file
 * Fig. 12: (a) PTW sweep WITHOUT the PRMB -- raw walker parallelism
 * can match NeuMMU's performance but burns redundant walks; and
 * (b) performance/energy of [M PRMB slots, N PTWs] design points with
 * M x N = 4096 held constant, normalized to the nominal [32, 128].
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Figure 12",
                       "Walker parallelism vs. PRMB filtering: "
                       "performance and energy");
    bench::Reporter reporter("fig12", argc, argv);

    // (a) PTW sweep without PRMB.
    const std::vector<unsigned> ptw_counts = {8,  16,  32,  64,
                                              128, 256, 512, 1024};
    std::vector<bench::DesignPoint> ptw_designs;
    for (const unsigned p : ptw_counts) {
        ptw_designs.push_back({"noPRMB_PTW" + std::to_string(p),
                               [p](SystemConfig &cfg) {
                                   cfg.mmu = baselineIommuConfig();
                                   // no PTS/PRMB, no TPreg
                                   cfg.mmu.numPtws = p;
                               }});
    }

    std::printf("(a) normalized performance, no PRMB\n%-12s",
                "workload");
    for (const unsigned p : ptw_counts)
        std::printf(" PTW(%4u)", p);
    std::printf("\n");

    const bench::GridResults ptw_results = bench::runGrid(
        SystemConfig{}, ptw_designs, bench::denseGrid(), &reporter,
        [](const bench::GridPoint &gp,
           const std::vector<bench::GridCell> &row) {
            std::printf("%-12s", gp.label().c_str());
            for (const bench::GridCell &c : row)
                std::printf(" %9.4f", c.normalized);
            std::printf("\n");
            std::fflush(stdout);
        });
    std::printf("%-12s", "average");
    for (const bench::DesignPoint &d : ptw_designs)
        std::printf(" %9.4f", ptw_results.meanNormalized(d.name));
    std::printf("\n\n");

    // (b) iso-capacity [M, N] sweep with M x N = 4096.
    std::printf("(b) [M PRMB, N PTW] with M*N = 4096, averaged over "
                "the grid;\n    energy normalized to the nominal "
                "[32,128] point\n");
    struct Point
    {
        unsigned prmb;
        unsigned ptws;
    };
    const std::vector<Point> points = {
        {512, 8},  {256, 16}, {128, 32}, {64, 64},   {32, 128},
        {16, 256}, {8, 512},  {4, 1024}, {2, 2048}, {1, 4096},
    };
    std::vector<bench::DesignPoint> iso_designs;
    for (const Point &pt : points) {
        iso_designs.push_back(
            {"PRMB" + std::to_string(pt.prmb) + "_PTW" +
                 std::to_string(pt.ptws),
             [pt](SystemConfig &cfg) {
                 cfg.mmu = neuMmuConfig();
                 cfg.mmu.numPtws = pt.ptws;
                 cfg.mmu.prmbSlots = pt.prmb;
                 // Isolate the PRMB-vs-PTW tradeoff (no TPreg).
                 cfg.mmu.pathCache = MmuCacheKind::None;
             }});
    }
    const bench::GridResults iso_results = bench::runGrid(
        SystemConfig{}, iso_designs, bench::denseGrid(), &reporter);

    const double nominal_energy = iso_results.energyNj("PRMB32_PTW128");
    std::printf("%-12s %12s %14s %14s\n", "[M,N]", "norm_perf",
                "energy(uJ)", "norm_energy");
    for (std::size_t i = 0; i < points.size(); i++) {
        const Point &pt = points[i];
        const double energy = iso_results.energyNj(iso_designs[i].name);
        char label[24];
        std::snprintf(label, sizeof(label), "[%u,%u]%s", pt.prmb,
                      pt.ptws,
                      (pt.prmb == 32 && pt.ptws == 128) ? "*" : "");
        std::printf("%-12s %12.4f %14.2f %14.3f\n", label,
                    iso_results.meanNormalized(iso_designs[i].name),
                    energy / 1000.0, energy / nominal_energy);
    }

    std::printf("\nPTW(1024) without PRMB: %.4f of oracle at %.1fx "
                "the [32,128] energy\n(paper: matches NeuMMU's "
                "performance at up to 7.1x the energy -- the PRMB\n"
                "is what filters the redundant same-page walks).\n",
                ptw_results.meanNormalized("noPRMB_PTW1024"),
                ptw_results.energyNj("noPRMB_PTW1024") /
                    nominal_energy);
    reporter.finish();
    return 0;
}
