/**
 * @file
 * Fig. 7: number of address translations requested by the DMA within
 * consecutive 1000-cycle windows, over the full run of (a) CNN-1 and
 * (b) RNN-1 at batch 1 (4 KB pages). The DMA issues one translation
 * per cycle, so 1000 marks a full-rate burst.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

namespace {

void
traceWorkload(WorkloadId id)
{
    std::vector<std::uint64_t> windows;
    DenseDnnWorkloadConfig wl;
    wl.workload = id;
    wl.batch = 1;
    wl.translationHook = [&](Tick t, Addr) {
        const std::size_t w = std::size_t(t / 1000);
        if (windows.size() <= w)
            windows.resize(w + 1, 0);
        windows[w]++;
    };
    // The burst pattern is a property of the DMA/workload; run under
    // the oracular MMU so the issue stream is not throttled.
    SystemConfig cfg;
    cfg.mmu = oracleMmuConfig();
    System system(cfg);
    bench::runDense(system, std::move(wl));

    std::printf("workload %s: %llu cycles, %llu translations\n",
                workloadName(id).c_str(),
                (unsigned long long)system.now(),
                (unsigned long long)system.mmu().counts().requests);
    std::printf("%-12s %s\n", "cycle", "translations_in_window");
    // Print a decimated series (every 4th window) to keep the output
    // plottable yet bounded.
    for (std::size_t w = 0; w < windows.size(); w += 4) {
        std::printf("%-12llu %llu\n",
                    (unsigned long long)(w * 1000),
                    (unsigned long long)windows[w]);
    }

    std::uint64_t full_rate = 0;
    for (const std::uint64_t c : windows)
        full_rate += (c >= 900);
    std::printf("windows at >=900/1000 (full-rate burst): %llu of %zu\n\n",
                (unsigned long long)full_rate, windows.size());
}

} // namespace

int
main()
{
    bench::printHeader("Figure 7",
                       "Translations requested per 1000-cycle window "
                       "(CNN-1 and RNN-1, b01)");
    traceWorkload(WorkloadId::CNN1);
    traceWorkload(WorkloadId::RNN1);
    std::printf("Paper reference: both workloads show sustained bursts "
                "at the 1/cycle issue\nlimit separated by compute "
                "phases (Fig. 7a/7b).\n");
    return 0;
}
