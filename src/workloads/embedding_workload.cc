#include "workloads/embedding_workload.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "npu/compute_model.hh"
#include "system/system.hh"

namespace neummu {

std::string
policyName(EmbeddingPolicy policy)
{
    switch (policy) {
      case EmbeddingPolicy::HostStagedCopy: return "Baseline";
      case EmbeddingPolicy::NumaSlow: return "NUMA(slow)";
      case EmbeddingPolicy::NumaFast: return "NUMA(fast)";
    }
    NEUMMU_PANIC("unknown embedding policy");
}

LatencyBreakdown
embeddingDenseBackend(const EmbeddingModelSpec &spec,
                      std::uint64_t samples,
                      const EmbeddingSystemConfig &cfg)
{
    LatencyBreakdown lat;
    unsigned kernels = 0;
    auto add_mlp = [&](const std::vector<GemmDims> &mlp) {
        for (const GemmDims &layer : mlp) {
            lat.gemm += tileComputeCycles(cfg.npu, layer.m * samples,
                                          layer.k, layer.n);
            kernels++;
        }
    };
    add_mlp(spec.bottomMlp);
    add_mlp(spec.topMlp);

    // Feature interaction / reductions are memory-bound element-wise
    // work over the gathered vectors.
    const std::uint64_t red_bytes =
        spec.interactionBytesPerSample * samples;
    lat.reduction =
        Tick(double(red_bytes) / cfg.hbm.bytesPerCycle) +
        cfg.hbm.accessLatency;
    kernels += 2; // interaction + concat

    lat.other = Tick(kernels) * cfg.kernelLaunchOverhead + 2000;
    return lat;
}

LatencyBreakdown
computeEmbeddingInference(const EmbeddingModelSpec &spec, unsigned batch,
                          EmbeddingPolicy policy,
                          const EmbeddingSystemConfig &cfg)
{
    NEUMMU_ASSERT(cfg.numNpus >= 2, "NUMA study needs >= 2 NPUs");
    // Data-parallel MLPs: this device owns batch/N samples (Fig. 5).
    const std::uint64_t samples =
        std::max<std::uint64_t>(1, batch / cfg.numNpus);

    LatencyBreakdown lat = embeddingDenseBackend(spec, samples, cfg);

    // Embedding gathers for this device's samples: tables are
    // round-robin partitioned, so (N-1)/N of the bytes are remote.
    const std::uint64_t lookups = samples * spec.lookupsPerSample();
    const std::uint64_t bytes = samples * spec.embeddingBytesPerSample();
    const std::uint64_t remote_bytes =
        bytes * (cfg.numNpus - 1) / cfg.numNpus;
    const std::uint64_t local_bytes = bytes - remote_bytes;
    const std::uint64_t remote_lookups =
        lookups * (cfg.numNpus - 1) / cfg.numNpus;
    const double avg_row =
        lookups ? double(bytes) / double(lookups) : 0.0;

    // Local gathers always go to HBM.
    const Tick local_gather =
        Tick(double(local_bytes) / cfg.hbm.bytesPerCycle) +
        cfg.hbm.accessLatency;

    Tick remote = 0;
    switch (policy) {
      case EmbeddingPolicy::HostStagedCopy: {
        // Each remote peer's shard: NPUs -> CPU pinned buffer (hop 1,
        // peers proceed in parallel on their own links), CPU gather,
        // then CPU -> local NPU (hop 2, serialized on this device's
        // PCIe link). Every copy pays the runtime launch overhead.
        const std::uint64_t per_src =
            remote_bytes / (cfg.numNpus - 1);
        const Tick hop1 =
            cfg.copyLaunchOverhead +
            Tick(double(per_src) / cfg.pcie.bytesPerCycle) +
            cfg.pcie.latency;
        const Tick cpu_gather =
            Tick(double(remote_bytes) / cfg.cpuGatherBytesPerCycle);
        Tick hop2 = 0;
        for (unsigned s = 1; s < cfg.numNpus; s++) {
            hop2 += cfg.copyLaunchOverhead +
                    Tick(double(per_src) / cfg.pcie.bytesPerCycle) +
                    cfg.pcie.latency;
        }
        remote = hop1 + cpu_gather + hop2;
        break;
      }
      case EmbeddingPolicy::NumaSlow:
      case EmbeddingPolicy::NumaFast: {
        const LinkConfig &link = (policy == EmbeddingPolicy::NumaSlow)
                                     ? cfg.pcie
                                     : cfg.npuLink;
        // Fine-grained loads: round-trip latency amortized over
        // numaConcurrency outstanding accesses, floored by the link
        // serialization bandwidth.
        const Tick latency_bound =
            remote_lookups
                ? Tick(double(remote_lookups) *
                       double(2 * link.latency + avg_row /
                                                     link.bytesPerCycle) /
                       double(cfg.numaConcurrency))
                : 0;
        const Tick bandwidth_bound =
            Tick(double(remote_bytes) / link.bytesPerCycle);
        // Translations ride NeuMMU: walks overlap the transfers and
        // only show through when walk throughput binds.
        const double walks_per_cycle =
            double(cfg.numPtws) /
            double(pageTableLevels * cfg.walkLatencyPerLevel);
        const Tick translation_bound =
            Tick(double(remote_lookups) / walks_per_cycle);
        remote = std::max({latency_bound, bandwidth_bound,
                           translation_bound}) +
                 2 * link.latency;
        break;
      }
    }

    lat.embeddingLookup = local_gather + remote;
    return lat;
}

EmbeddingWorkload::EmbeddingWorkload(EmbeddingWorkloadConfig cfg)
    : Workload(std::string("embedding.") + cfg.spec.name + "." +
               (cfg.mode == EmbeddingWorkloadMode::Inference
                    ? policyName(cfg.policy)
                    : "paging") +
               ".b" + std::to_string(cfg.batch)),
      _cfg(std::move(cfg))
{
}

void
EmbeddingWorkload::onBind()
{
    if (_cfg.mode == EmbeddingWorkloadMode::DemandPaging)
        bindDemandPaging();
}

void
EmbeddingWorkload::bindDemandPaging()
{
    // Device 0 of the cluster gathers everything for its shard;
    // tables whose index is not congruent to 0 mod N live on remote
    // devices and their pages fault in on first touch.
    System &sys = system();
    // Both paging paths touch hub state synchronously (the legacy
    // fault handler maps pages inline; completion reads MMU/paging
    // counters), so this slot must be hub-resident when sharded.
    sys.requireHubResident(npuSlot(), "demand-paging workload '" +
                                          name() + "'");
    const unsigned page_shift = sys.config().pageShift;
    const std::uint64_t samples = std::max<std::uint64_t>(
        1, _cfg.batch / _cfg.cluster.numNpus);

    PageTable &page_table = sys.pageTable();
    FrameAllocator &local_node = sys.hbmNode(npuSlot());

    // Reserve VA for every table; nothing is mapped yet.
    AddressSpace &vas = sys.addressSpace();
    _tableSegs.reserve(_cfg.spec.tables.size());
    for (const auto &table : _cfg.spec.tables) {
        _tableSegs.push_back(vas.allocateUnbacked(
            table.name, table.bytes(), page_shift));
    }

    Rng rng(_cfg.seed ? _cfg.seed : derivedSeed());
    std::vector<EmbeddingLookup> lookups =
        generateLookups(_cfg.spec, unsigned(samples), rng);

    // Pre-map local tables' touched pages: device 0's own shard is
    // resident by construction (no faults on local data). Under a
    // system PagingEngine the shard flows through installResident()
    // so residency accounting covers it and oversubscription can
    // evict it like everything else.
    for (const EmbeddingLookup &lu : lookups) {
        if (lu.table % _cfg.cluster.numNpus != 0)
            continue;
        const auto &table = _cfg.spec.tables[lu.table];
        const Addr va = _tableSegs[lu.table].base +
                        lu.row * table.rowBytes();
        const Addr page = pageBase(va, page_shift);
        if (sys.hasPagingEngine()) {
            sys.pagingEngine().installResident(page);
        } else if (!page_table.isMapped(page)) {
            page_table.map(page, local_node.allocate(
                                     pageSize(page_shift),
                                     pageSize(page_shift)),
                           page_shift);
        }
    }

    // With a system PagingEngine the remote pages fault through it
    // (timed evict+fetch, shootdowns, paging.* stats); the legacy
    // workload-owned handler below maps pages permanently and is kept
    // for the paging-disabled configurations (golden-pinned).
    if (!sys.hasPagingEngine()) {
        _migrateLink =
            std::make_unique<Link>("pcie", _cfg.cluster.pcie);

        // Fault handler: migrate the whole page over the
        // interconnect. In-flight migrations are deduplicated (a
        // second fault on the same page waits for the first
        // migration).
        sys.mmu().setFaultHandler(
            [this, &sys, &page_table, &local_node,
             page_shift](Addr va, Tick now) -> Tick {
                const Addr page = pageBase(va, page_shift);
                const auto it = _migrating.find(page);
                if (it != _migrating.end())
                    return it->second;
                _paging.faults++;
                _paging.migratedBytes += pageSize(page_shift);
                page_table.map(page, local_node.allocate(
                                         pageSize(page_shift),
                                         pageSize(page_shift)),
                               page_shift);
                const Tick ready = _migrateLink->transfer(
                    now + _cfg.cluster.faultHandlerLatency,
                    pageSize(page_shift));
                _migrating.emplace(page, ready);
                return ready;
            });
    }

    // The gather engine: one embedding-row run per lookup, issued at
    // one translation per cycle through the DMA unit.
    _runs.reserve(lookups.size());
    for (const EmbeddingLookup &lu : lookups) {
        const auto &table = _cfg.spec.tables[lu.table];
        _runs.push_back(VaRun{_tableSegs[lu.table].base +
                                  lu.row * table.rowBytes(),
                              table.rowBytes()});
        _paging.usefulBytes += table.rowBytes();
    }
}

void
EmbeddingWorkload::onStart()
{
    System &sys = system();
    const std::uint64_t samples = std::max<std::uint64_t>(
        1, _cfg.batch / _cfg.cluster.numNpus);

    if (_cfg.mode == EmbeddingWorkloadMode::Inference) {
        // The closed-form Fig. 15 model: hold the slot for the
        // modeled latency, then complete.
        _breakdown = computeEmbeddingInference(_cfg.spec, _cfg.batch,
                                               _cfg.policy,
                                               _cfg.cluster);
        stats().scalar("modeledCycles").set(double(_breakdown.total()));
        eventQueue().scheduleIn(_breakdown.total(), [this] {
            finish(now());
        });
        return;
    }

    sys.dma(npuSlot()).fetch(
        std::move(_runs), [this, samples](Tick at) {
            // Dense backend is identical across design points.
            const LatencyBreakdown dense = embeddingDenseBackend(
                _cfg.spec, samples, _cfg.cluster);
            _paging.totalCycles = at + dense.total();
            _paging.mmu = system().mmu().counts();
            if (system().hasPagingEngine()) {
                // The engine serviced the faults; mirror its totals
                // into the legacy result struct.
                PagingEngine &pe = system().pagingEngine();
                _paging.faults = pe.faults();
                _paging.migratedBytes =
                    pe.fetchedBytes() + pe.writebackBytes();
            }
            stats::Group &g = stats();
            g.scalar("faults").set(double(_paging.faults));
            g.scalar("migratedBytes")
                .set(double(_paging.migratedBytes));
            g.scalar("usefulBytes").set(double(_paging.usefulBytes));
            finish(at);
        });
}

} // namespace neummu
