/**
 * @file
 * Declarative machine composition. A SystemConfig describes the whole
 * simulated machine -- N NPUs (tile pipeline + DMA), one translation
 * engine (oracle / baseline IOMMU / NeuMMU / custom, optionally
 * fanned out through a TranslationRouter when several NPUs share it,
 * Section IV-B), per-NPU local memory, and the host-owned page
 * table / virtual address space -- and System builds and owns that
 * stack on one EventQueue.
 *
 * Every experiment driver (dense DNNs, embedding gathers, the bench
 * grid, the examples) constructs its machine through this one layer,
 * so a new scenario is a config, not new wiring, and every component
 * registers its counters in one StatsRegistry with a single text/JSON
 * dump path.
 */

#ifndef NEUMMU_SYSTEM_SYSTEM_HH
#define NEUMMU_SYSTEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats_registry.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "mem/memory_model.hh"
#include "mmu/mmu_core.hh"
#include "mmu/mmu_engine.hh"
#include "mmu/nmt.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/range_mmu.hh"
#include "mmu/translation_router.hh"
#include "npu/dma_engine.hh"
#include "npu/npu_config.hh"
#include "npu/tile_pipeline.hh"
#include "serving/serve_config.hh"
#include "sim/event_queue.hh"
#include "sim/retry_round.hh"
#include "system/paging_engine.hh"
#include "system/shard_port.hh"
#include "trace/trace.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

namespace neummu {

namespace serving {
class ServingEngine;
} // namespace serving

namespace trace {
class TraceEngine;
} // namespace trace

/**
 * Simulation-kernel execution/model knobs (ConfigBinder group
 * "sim.*"). shards = 0 runs the legacy kernel: synchronous ports,
 * byte-identical to every pre-sharding golden dump. shards >= 1
 * switches to the hop model, which is an explicitly different
 * machine: every NPU<->hub interaction (translation
 * requests/responses, invalidations) crosses an interconnect hop of
 * hopTicks each way, flow-controlled by portCredits outstanding
 * translations per NPU. Both run on one EventQueue on the calling
 * thread; parallelism lives a level up, in the sweep engine's job
 * pool.
 *
 * Within the hop model every NPU is remote (the on-hub machine is
 * shards = 0), and results are byte-identical for ANY shards >= 1 --
 * only hopTicks and portCredits are model parameters.
 */
struct SimConfig
{
    /**
     * 0 selects the legacy synchronous-port kernel; any value >= 1 the
     * hop model (every value >= 1 gives the same machine).
     */
    unsigned shards = 0;
    /** NPU<->hub interconnect latency in ticks, each way (>= 1).
     *  Pure model latency: every hop is a delivery scheduled this
     *  many ticks after the send. */
    Tick hopTicks = 64;
    /** Outstanding-translation credits per NPU port (>= 1). */
    unsigned portCredits = 64;
    /** Ignored: the hop model runs serially. Kept only because the
     *  frozen perfbench runner writes it; drop at the next benchmark
     *  change. */
    unsigned threads = 0;
    /**
     * Host-side cycle attribution (see sim/profiler.hh): the event
     * queue carries a SimProfiler and the dump gains `prof.*` /
     * `fastpath.*` groups. Purely observational -- simulated results
     * are identical with it on or off -- but the extra stats groups
     * mean golden dumps are recorded with it off.
     */
    bool profile = false;
};

/**
 * Full machine description. Defaults reproduce the paper's baseline
 * single-NPU system (Table I) with a baseline IOMMU.
 */
struct SystemConfig
{
    /** Stats prefix for every component this system builds. */
    std::string name = "sys";

    /**
     * Root random seed. Every stochastic workload bound to this
     * system derives its own independent stream from this one value
     * (see Workload::derivedSeed), so multi-tenant runs are
     * reproducible regardless of scheduling order.
     */
    std::uint64_t seed = 1;

    // --- NPUs ------------------------------------------------------
    /** NPU count; > 1 shares the MMU through a TranslationRouter. */
    unsigned numNpus = 1;
    /** Core parameters, identical across NPUs (Table I). */
    NpuConfig npu{};
    /** Tile-buffer depth (2 = double buffering, Fig. 3). */
    unsigned bufferDepth = 2;
    /** DMA burst override in bytes; 0 uses npu.dmaBurstBytes. */
    std::uint64_t dmaBurstBytes = 0;

    // --- Translation -----------------------------------------------
    /**
     * Named design point, resolved through the translation factory
     * (see translation_factory.hh). For the named walker-core kinds
     * the canned MmuConfig (at this system's pageShift) is
     * instantiated and the `mmu` field below is IGNORED -- tweak
     * individual walker-core knobs by leaving mmuKind at Custom and
     * editing `mmu` directly. The zoo kinds (RangeMmu/PomTlb/Nmt)
     * read their own sub-structs below instead of `mmu`.
     */
    MmuKind mmuKind = MmuKind::Custom;
    /** Explicit walker-core config; authoritative only under Custom. */
    MmuConfig mmu = baselineIommuConfig();
    /**
     * ConfigBinder bookkeeping: set when an mmu.* override
     * materialized the Custom design point, so a LATER mmuKind= /
     * mmu.design= / preset= key errors instead of silently discarding
     * the edits. Never set by hand.
     */
    bool mmuEdited = false;
    /** RangeMMU design knobs (mmuKind == RangeMmu only). */
    RangeMmuConfig rangeMmu{};
    /** POM-TLB design knobs (mmuKind == PomTlb only). */
    PomTlbConfig pomTlb{};
    /** NMT design knobs (mmuKind == Nmt only). */
    NmtConfig nmt{};
    /** Walker arbitration across NPUs (numNpus > 1 only). */
    RouterPolicy routerPolicy = RouterPolicy::Shared;

    // --- Memory system ---------------------------------------------
    /** Per-NPU local memory (HBM) timing. */
    MemoryConfig memory{};
    /**
     * SoC topology: all NPUs contend for one memory node (shared
     * system DRAM) instead of each owning a private HBM stack. Only
     * meaningful when numNpus > 1.
     */
    bool sharedMemory = false;
    /** Host DRAM capacity backing the page tables. */
    std::uint64_t hostDramBytes = 32 * GiB;
    /** Per-NPU HBM capacity backing the tensors. */
    std::uint64_t npuHbmBytes = 64 * GiB;

    // --- Page lifecycle / oversubscription -------------------------
    /**
     * Demand-paging / eviction engine. Disabled (the default) keeps
     * mappings immutable after setup, exactly the legacy behavior;
     * enabled, the System owns a PagingEngine that services faults
     * with timed evict+fetch and system-wide shootdown. The
     * residentLimitBytes knob below the workload footprint is how
     * oversubscription scenarios are built.
     */
    PagingConfig paging{};

    // --- Simulation kernel -----------------------------------------
    /** Hop-model knobs (sim.shards = 0 keeps the legacy kernel). */
    SimConfig sim{};

    // --- Open-loop serving -----------------------------------------
    /**
     * Serving-mode knobs (ConfigBinder group "serve.*"). Disabled
     * (the default) keeps the System purely closed-loop; enabled, the
     * System owns a ServingEngine that generates open-loop request
     * arrivals over churning tenants. Under sim.shards >= 1 the
     * serving slots are auto-raised onto the hub (like
     * paging.homeNode), so the dump stays byte-identical across
     * shard counts.
     */
    serving::ServeConfig serve{};

    // --- Lifecycle tracing -----------------------------------------
    /**
     * Request-lifecycle tracing (ConfigBinder group "trace.*").
     * Disabled (the default) builds no trace machinery at all: the
     * instrumented hot paths carry one null-pointer test each and no
     * trace.* stats group is registered, so golden dumps are
     * untouched. Enabled, the System owns a TraceEngine recording
     * per-translation-request spans in simulated ticks -- see
     * trace/trace_engine.hh for the determinism story.
     */
    trace::TraceConfig trace{};

    // --- Page table / VA layout ------------------------------------
    /** Page size of the translation stream (12 or 21). */
    unsigned pageShift = smallPageShift;
    /** First virtual address handed out by the AddressSpace. */
    Addr vaBase = Addr(0x100) << 30;
    /** VA-layout scatter shift (see AddressSpace; 0 = packed). */
    unsigned vaScatterShift = 0;

    /**
     * The MmuConfig a walker-core system will instantiate: the canned
     * config for a named kind (at this system's pageShift), or `mmu`
     * as-is for Custom.
     * @pre isWalkerCoreKind(mmuKind) -- the zoo designs have no
     *      MmuConfig; they are described by their sub-structs.
     */
    MmuConfig resolvedMmuConfig() const;
};

class System;

/**
 * Counters-only stand-in for the deleted hop-window runtime, kept
 * because the frozen perfbench runner reads it; drop at the next
 * benchmark change.
 */
class DomainRuntime
{
  public:
    explicit DomainRuntime(const System &sys) : _sys(sys) {}
    /** Always 0: the hop model runs on one queue, in no windows. */
    std::uint64_t windowsExecuted() const { return 0; }
    /** Hops sent across every NPU link (sim.crossDomainMessages). */
    std::uint64_t messagesPosted() const;
    /** Always 1: the hop model is serial. */
    unsigned numThreads() const { return 1; }

  private:
    const System &_sys;
};

/**
 * Builds and owns the machine a SystemConfig describes. Construction
 * order (host node, page table, MMU, router, then per-NPU memory /
 * DMA / pipeline) is fixed, so identical configs produce identical
 * simulations. Handles stay valid for the System's lifetime.
 */
class System
{
  public:
    explicit System(SystemConfig cfg);
    System(const System &) = delete;
    System &operator=(const System &) = delete;
    ~System();

    const SystemConfig &config() const { return _cfg; }
    unsigned numNpus() const { return unsigned(_npus.size()); }

    // --- Simulation ------------------------------------------------
    /** The one event queue every component runs on. */
    EventQueue &eventQueue() { return _eq; }
    /** Simulated time. */
    Tick now() const { return _eq.now(); }
    /**
     * Drain the event queue (up to and including @p limit -- see
     * EventQueue::run); returns final time. A DMA woken on the last
     * tick has its wait charged before this returns, although its
     * retry round lies past @p limit.
     */
    Tick run(Tick limit = maxTick);
    std::uint64_t eventsExecuted() const { return _eq.eventsExecuted(); }
    std::uint64_t peakQueueDepth() const { return _eq.peakDepth(); }

    // --- Kernel fast-path observability ----------------------------
    /** Always 0: the kernel has no event trains. Kept because the
     *  benchmark runner (perfbench/) reads it. */
    std::uint64_t trainSubEventsInlined() const { return 0; }
    /** Same-tick dispatch shortcuts taken. */
    std::uint64_t sameTickShortcuts() const
    {
        return _eq.sameTickShortcuts();
    }
    /** Host-cycle attribution (all zero when sim.profile=0). */
    SimProfiler mergedProfile();

    // --- Hop model -------------------------------------------------
    /** True under the hop model (sim.shards >= 1). */
    bool sharded() const { return _cfg.sim.shards > 0; }
    /** The perfbench counters shim. @pre sharded() */
    DomainRuntime &domains();
    /** Hops sent across every NPU link (0 unsharded). */
    std::uint64_t crossDomainMessages() const;

    // --- Virtual memory --------------------------------------------
    FrameAllocator &hostNode() { return _hostNode; }
    /** NPU @p npu's memory node (the one shared node under
     *  sharedMemory). */
    FrameAllocator &hbmNode(unsigned npu = 0);
    PageTable &pageTable() { return _pageTable; }
    AddressSpace &addressSpace() { return _vas; }

    // --- Translation -----------------------------------------------
    /** The translation engine the factory built for cfg.mmuKind. */
    MmuEngine &mmu() { return *_mmu; }
    /**
     * Walker-core downcast for drivers that read MmuCore-only stats.
     * @pre isWalkerCoreKind(config().mmuKind)
     */
    MmuCore &mmuCore();
    bool hasRouter() const { return _router != nullptr; }
    /** @pre hasRouter() */
    TranslationRouter &router();
    /** NPU @p npu's translation port: a router port, or the MMU. */
    TranslationEngine &translationPort(unsigned npu = 0);

    // --- Per-NPU pipeline ------------------------------------------
    MemoryModel &memory(unsigned npu = 0);
    DmaEngine &dma(unsigned npu = 0);
    TilePipeline &pipeline(unsigned npu = 0);

    // --- Page lifecycle --------------------------------------------
    bool hasPagingEngine() const { return _paging != nullptr; }
    /** @pre hasPagingEngine() */
    PagingEngine &pagingEngine();

    /**
     * Tear down every mapped page of @p segment: pages the paging
     * engine manages go through its release path; the rest are
     * unmapped, shot down system-wide, and their frames returned to
     * NPU slot @p owner_slot's node. The tenant-retirement primitive;
     * the caller guarantees no translation activity is in flight on
     * the segment's pages.
     */
    void releaseSegment(const Segment &segment, unsigned owner_slot);

    // --- Open-loop serving -----------------------------------------
    bool hasServingEngine() const { return _serving != nullptr; }
    /** @pre hasServingEngine() */
    serving::ServingEngine &servingEngine();

    // --- Lifecycle tracing -----------------------------------------
    bool hasTraceEngine() const { return _trace != nullptr; }
    /** @pre hasTraceEngine() */
    trace::TraceEngine &traceEngine();

    // --- Statistics ------------------------------------------------
    /** Every component's counters, registered at construction. */
    stats::StatsRegistry &statsRegistry() { return _stats; }
    /** Refresh system-level scalars (simTicks, events) and dump. */
    void dumpStatsText(std::ostream &os);
    void dumpStatsJson(std::ostream &os);
    /** Refresh and write the JSON dump to @p path. */
    bool writeStatsJsonFile(const std::string &path);

  private:
    struct Npu
    {
        std::unique_ptr<FrameAllocator> hbm;
        std::unique_ptr<MemoryModel> mem;
        std::unique_ptr<DmaEngine> dma;
        std::unique_ptr<TilePipeline> pipeline;
    };

    Npu &npuAt(unsigned idx);
    void refreshSystemStats();
    /** Populate prof.* / fastpath.* groups (sim.profile only). */
    void refreshProfileStats();

    SystemConfig _cfg;
    EventQueue _eq;
    /** The DMA retry round every DMA engine shares. */
    RetryRound _retryRound{_eq};
    DomainRuntime _domainShim{*this};
    /** Per-NPU credit ports / hub bridges (hop model only). */
    std::vector<std::unique_ptr<ShardTranslationPort>> _shardPorts;
    std::vector<std::unique_ptr<HubTranslationBridge>> _hubBridges;
    FrameAllocator _hostNode;
    PageTable _pageTable;
    AddressSpace _vas;
    std::unique_ptr<MmuEngine> _mmu;
    std::unique_ptr<TranslationRouter> _router;
    std::unique_ptr<PagingEngine> _paging;
    std::unique_ptr<serving::ServingEngine> _serving;
    std::unique_ptr<trace::TraceEngine> _trace;
    std::unique_ptr<FrameAllocator> _sharedHbm;
    std::unique_ptr<MemoryModel> _sharedMem;
    std::vector<Npu> _npus;
    stats::StatsRegistry _stats;
};

} // namespace neummu

#endif // NEUMMU_SYSTEM_SYSTEM_HH
