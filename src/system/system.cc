#include "system/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mmu/translation_factory.hh"
#include "mmu/translation_router.hh"
#include "serving/serving_engine.hh"
#include "trace/trace_engine.hh"

namespace neummu {

namespace {

std::string
prefixed(const std::string &system_name, const std::string &component)
{
    return system_name.empty() ? component
                               : system_name + "." + component;
}

} // namespace

MmuConfig
SystemConfig::resolvedMmuConfig() const
{
    NEUMMU_ASSERT(isWalkerCoreKind(mmuKind),
                  "design '" + mmuKindName(mmuKind) + "' has no "
                  "MmuConfig; it is configured via its own sub-struct");
    if (mmuKind == MmuKind::Custom)
        return mmu;
    return mmuConfigFor(mmuKind, pageShift);
}

System::System(SystemConfig cfg)
    : _cfg(std::move(cfg)),
      _hostNode(prefixed(_cfg.name, "host.dram"), Addr(1) << 40,
                _cfg.hostDramBytes),
      _pageTable(_hostNode),
      _vas(_pageTable, _cfg.vaBase, _cfg.vaScatterShift)
{
    NEUMMU_ASSERT(_cfg.numNpus >= 1, "a system needs at least one NPU");

    if (sharded()) {
        NEUMMU_ASSERT(_cfg.sim.hopTicks >= 1,
                      "sim.hopTicks must be at least 1");
        NEUMMU_ASSERT(_cfg.sim.portCredits >= 1,
                      "sim.portCredits must be at least 1");
    }

    // The translation engine is whatever design the factory builds
    // for cfg.mmuKind; everything downstream (router, shard ports,
    // paging, serving) only sees the MmuEngine surface.
    _mmu = makeTranslationEngine(_cfg.mmuKind,
                                 prefixed(_cfg.name, "mmu"),
                                 _eq, _pageTable, _cfg);
    _stats.add(_mmu->stats());

    if (_cfg.numNpus > 1) {
        _router = std::make_unique<TranslationRouter>(
            *_mmu, _cfg.numNpus, _cfg.routerPolicy,
            _mmu->walkerBudget(), prefixed(_cfg.name, "router"),
            &_eq);
        for (unsigned c = 0; c < _cfg.numNpus; c++)
            _stats.add(_router->clientStats(c));
    }

    DmaConfig dma_cfg;
    dma_cfg.burstBytes =
        _cfg.dmaBurstBytes ? _cfg.dmaBurstBytes : _cfg.npu.dmaBurstBytes;
    dma_cfg.pageShift = _cfg.pageShift;
    // Pre-size each DMA's outstanding-burst ring so it never grows
    // in steady state (a ring that outgrows its span still works, it
    // just doubles and copies). Two independent config-derived
    // bounds on one port's accepted-but-unanswered translations,
    // take the smaller: (a) occupancy -- the engine can hold at most
    // its walker pool times the PRMB fan-out; (b) lifetime -- the
    // port issues at most one id per cycle and an accepted request
    // is answered within the longest walk (plus fault service when
    // paging can stretch a walk), so its ids span at most that many.
    // The DMA sizes its ring to twice the hint. Bound (b) keeps the
    // ring small and cache-resident for wide-MMU configs where (a)
    // alone would reserve a 128x33-entry ring per DMA port.
    {
        std::uint64_t occupancy = _mmu->walkerBudget();
        std::uint64_t lifetime =
            std::uint64_t(pageTableLevels) * 100 + 64;
        if (isWalkerCoreKind(_cfg.mmuKind)) {
            const MmuConfig mmu_cfg = _cfg.resolvedMmuConfig();
            occupancy *= 1 + std::uint64_t(mmu_cfg.prmbSlots);
            lifetime = std::uint64_t(pageTableLevels) *
                           mmu_cfg.walkLatencyPerLevel +
                       mmu_cfg.prmbSlots + mmu_cfg.tlb.hitLatency + 64;
        }
        if (_cfg.paging.enabled)
            lifetime += _cfg.paging.faultLatency;
        dma_cfg.inflightHint =
            std::size_t(std::min(occupancy + 64, lifetime));
    }

    if (_cfg.sharedMemory) {
        // One memory node for the whole SoC: every DMA engine
        // contends for the same channels.
        _sharedHbm = std::make_unique<FrameAllocator>(
            prefixed(_cfg.name, "hbm"), Addr(2) << 40,
            _cfg.npuHbmBytes);
        _sharedMem = std::make_unique<MemoryModel>(
            prefixed(_cfg.name, "mem"), _cfg.memory);
        _stats.add(_sharedMem->stats());
    }

    _npus.reserve(_cfg.numNpus);
    for (unsigned i = 0; i < _cfg.numNpus; i++) {
        const std::string id = "npu" + std::to_string(i);
        Npu npu;
        if (!_cfg.sharedMemory) {
            // Each NPU owns a private physical HBM range; npu0's
            // base matches the historical single-NPU layout so
            // physical addresses (and thus channel interleaving) are
            // unchanged.
            npu.hbm = std::make_unique<FrameAllocator>(
                prefixed(_cfg.name, id + ".hbm"), Addr(2 + i) << 40,
                _cfg.npuHbmBytes);
            npu.mem = std::make_unique<MemoryModel>(
                prefixed(_cfg.name, id + ".mem"), _cfg.memory);
            _stats.add(npu.mem->stats());
        }
        TranslationEngine *dma_port =
            _router ? &_router->port(i)
                    : static_cast<TranslationEngine *>(_mmu.get());
        if (sharded()) {
            // Hop model: the DMA talks to a credit port; the hub
            // bridge plays its hop deliveries into the real port.
            auto port = std::make_unique<ShardTranslationPort>(
                prefixed(_cfg.name, id + ".port"), _eq,
                _cfg.sim.hopTicks, _cfg.sim.portCredits);
            _hubBridges.push_back(
                std::make_unique<HubTranslationBridge>(*dma_port,
                                                       *port));
            port->connectHub(*_hubBridges.back());
            _stats.add(port->stats());
            dma_port = port.get();
            _shardPorts.push_back(std::move(port));
        }
        npu.dma = std::make_unique<DmaEngine>(
            prefixed(_cfg.name, id + ".dma"), _eq, *dma_port,
            _cfg.sharedMemory ? *_sharedMem : *npu.mem, dma_cfg,
            _retryRound);
        npu.pipeline = std::make_unique<TilePipeline>(
            _eq, *npu.dma, _cfg.bufferDepth);
        _stats.add(npu.dma->stats());
        _npus.push_back(std::move(npu));
    }

    // The paging engine comes last: it needs the memory nodes built,
    // and it installs itself as the MMU's fault handler.
    if (_cfg.paging.enabled) {
        NEUMMU_ASSERT(_cfg.paging.homeNode < _cfg.numNpus,
                      "paging home node out of range");
        _paging = std::make_unique<PagingEngine>(*this, _cfg.paging);
        _stats.add(_paging->stats());
        _stats.add(_paging->linkStats());
    }

    // The serving engine comes after paging: it may route demand-paged
    // tenants through the fault path, and its retire path frees frames
    // back to the nodes built above.
    if (_cfg.serve.enabled) {
        _serving =
            std::make_unique<serving::ServingEngine>(*this, _cfg.serve);
        _stats.add(_serving->stats());
    }

    // Lifecycle tracing comes after everything it observes exists.
    // The engine (and its trace.* stats group) is built only when
    // enabled, so the disabled-path cost is one null pointer per
    // component and the dump surface -- including the goldens -- is
    // byte-identical to a build without tracing.
    if (_cfg.trace.enabled) {
        // Key-space top bytes 0xFD..0xFF are reserved for prefetch /
        // paging / serving span families (see trace/trace.hh).
        NEUMMU_ASSERT(_cfg.numNpus < 0xFD,
                      "tracing supports at most 252 NPUs");
        // Lane 0 is the hub; under the hop model NPU i records into
        // its own lane 1 + i, each lane with its own ring.
        _trace = std::make_unique<trace::TraceEngine>(
            _cfg.name, _cfg.trace, sharded() ? 1 + _cfg.numNpus : 1,
            _stats.group(prefixed(_cfg.name, "trace")));
        for (unsigned i = 0; i < _cfg.numNpus; i++) {
            // The router tags request ids with the client index in
            // the top byte; components that see raw (untagged) ids --
            // the DMA and the shard port/bridge pair -- prepend the
            // same tag so every span of one request shares one key.
            const std::uint64_t key_base =
                _router ? std::uint64_t(i) << trace::clientShift : 0;
            const unsigned lane = sharded() ? 1 + i : 0;
            _npus[i].dma->setTrace(&_trace->buffer(lane), key_base);
            if (sharded()) {
                _shardPorts[i]->setTrace(&_trace->buffer(lane),
                                         key_base);
                _hubBridges[i]->setTrace(&_trace->buffer(0),
                                         key_base);
            }
        }
        _mmu->setTraceBuffer(&_trace->buffer(0));
        if (_paging)
            _paging->setTrace(&_trace->buffer(0));
        if (_serving)
            _serving->setTrace(&_trace->buffer(0));
    }

    // System-level counters live in a registry-owned group so they
    // appear in the same dump as the components'.
    _stats.group(prefixed(_cfg.name, "sim"));

    // Host-side cycle attribution: observational only, and the extra
    // prof.*/fastpath.* stats groups are registered lazily at dump
    // time, so the default dump surface (and the goldens) is untouched.
    if (_cfg.sim.profile)
        _eq.enableProfiling();
}

System::~System() = default;

std::uint64_t
DomainRuntime::messagesPosted() const
{
    return _sys.crossDomainMessages();
}

DomainRuntime &
System::domains()
{
    NEUMMU_ASSERT(sharded(), "system is not sharded (sim.shards = 0)");
    return _domainShim;
}

std::uint64_t
System::crossDomainMessages() const
{
    std::uint64_t n = 0;
    for (const auto &port : _shardPorts)
        n += port->messagesPosted();
    return n;
}

Tick
System::run(Tick limit)
{
    const Tick end = _eq.run(limit);
    if (_router)
        _router->chargePendingWaits();
    // Conservation at drain: with nothing left to run, no miss may be
    // outstanding and no response still on its way.
    if (_eq.empty()) {
        NEUMMU_ASSERT(_mmu->idle(),
                      "the event queue drained with MMU work in flight");
    }
    return end;
}

System::Npu &
System::npuAt(unsigned idx)
{
    NEUMMU_ASSERT(idx < _npus.size(), "NPU index out of range");
    return _npus[idx];
}

FrameAllocator &
System::hbmNode(unsigned npu)
{
    if (_sharedHbm) {
        NEUMMU_ASSERT(npu < _npus.size(), "NPU index out of range");
        return *_sharedHbm;
    }
    return *npuAt(npu).hbm;
}

MmuCore &
System::mmuCore()
{
    MmuCore *core = _mmu->asMmuCore();
    NEUMMU_ASSERT(core, "design '" + mmuKindName(_cfg.mmuKind) +
                            "' is not a walker-core MmuCore");
    return *core;
}

TranslationRouter &
System::router()
{
    NEUMMU_ASSERT(_router, "single-NPU system has no router");
    return *_router;
}

TranslationEngine &
System::translationPort(unsigned npu)
{
    if (sharded()) {
        NEUMMU_ASSERT(npu < _shardPorts.size(),
                      "NPU index out of range");
        return *_shardPorts[npu];
    }
    if (_router)
        return _router->port(npu);
    NEUMMU_ASSERT(npu == 0, "NPU index out of range");
    return *_mmu;
}

MemoryModel &
System::memory(unsigned npu)
{
    if (_sharedMem) {
        NEUMMU_ASSERT(npu < _npus.size(), "NPU index out of range");
        return *_sharedMem;
    }
    return *npuAt(npu).mem;
}

DmaEngine &
System::dma(unsigned npu)
{
    return *npuAt(npu).dma;
}

TilePipeline &
System::pipeline(unsigned npu)
{
    return *npuAt(npu).pipeline;
}

PagingEngine &
System::pagingEngine()
{
    NEUMMU_ASSERT(_paging, "paging engine is disabled on this system");
    return *_paging;
}

serving::ServingEngine &
System::servingEngine()
{
    NEUMMU_ASSERT(_serving,
                  "serving engine is disabled on this system "
                  "(serve.enabled=0)");
    return *_serving;
}

trace::TraceEngine &
System::traceEngine()
{
    NEUMMU_ASSERT(_trace, "tracing is disabled on this system "
                          "(trace.enabled=0)");
    return *_trace;
}

void
System::releaseSegment(const Segment &segment, unsigned owner_slot)
{
    const std::uint64_t page_bytes = pageSize(segment.pageShift);
    for (Addr va = segment.base; va < segment.end(); va += page_bytes) {
        // Pages the paging engine fetched must leave through it so
        // its resident set and the managed node stay coherent.
        if (_paging && _paging->releasePage(va))
            continue;
        if (!_pageTable.isMapped(va))
            continue;
        const UnmapResult um = _pageTable.unmap(va);
        _mmu->shootdown(va, um);
        hbmNode(owner_slot).free(um.frame, page_bytes);
    }
}

void
System::refreshSystemStats()
{
    _mmu->refreshStats();
    if (_paging)
        _paging->refreshStats();
    if (_serving)
        _serving->refreshStats();
    stats::Group &sim = _stats.group(prefixed(_cfg.name, "sim"));
    stats::Scalar &ticks = sim.scalar("simTicks");
    ticks.reset();
    ticks += double(now());
    stats::Scalar &events = sim.scalar("eventsExecuted");
    events.reset();
    events += double(eventsExecuted());
    // Peak pending-event count: a kernel-implementation invariant
    // (identical schedule/dispatch sequences give identical depths),
    // so the golden-stats tests pin it across kernel rewrites.
    stats::Scalar &peak = sim.scalar("peakQueueDepth");
    peak.reset();
    peak += double(peakQueueDepth());
    if (sharded()) {
        stats::Scalar &msgs = sim.scalar("crossDomainMessages");
        msgs.reset();
        msgs += double(crossDomainMessages());
    }
    if (_cfg.sim.profile)
        refreshProfileStats();
    if (_trace)
        _trace->refreshStats();
}

SimProfiler
System::mergedProfile()
{
    return _eq.profiler() ? *_eq.profiler() : SimProfiler{};
}

void
System::refreshProfileStats()
{
    const auto set = [](stats::Scalar &s, double v) {
        s.reset();
        s += v;
    };

    // Host-nanosecond attribution; each row is a subsystem's SELF
    // time (nested scopes subtract), so the rows sum to the measured
    // dispatch wall clock.
    const SimProfiler total = mergedProfile();

    stats::Group &prof = _stats.group(prefixed(_cfg.name, "prof"));
    for (unsigned i = 0; i < SimProfiler::numSlots; i++) {
        const ProfSubsystem s = ProfSubsystem(i);
        const SimProfiler::Slot &slot = total.slot(s);
        const std::string base = profSubsystemName(s);
        set(prof.scalar(base + "Scopes"), double(slot.count));
        set(prof.scalar(base + "Nanos"), double(slot.nanos));
    }

    // Fast-path hit counters: always accumulated (they are plain
    // increments), surfaced only here so the default dump -- and the
    // goldens -- keep their exact legacy shape.
    stats::Group &fast = _stats.group(prefixed(_cfg.name, "fastpath"));
    set(fast.scalar("sameTickShortcuts"), double(sameTickShortcuts()));
    set(fast.scalar("walkCacheHits"), double(_pageTable.walkCacheHits()));
    set(fast.scalar("xlateRegisterHits"),
        double(_mmu->xlateRegisterHits()));
    std::uint64_t rehashes = 0;
    for (Npu &npu : _npus)
        rehashes += npu.dma->burstPoolRehashes();
    set(fast.scalar("burstTrackerRehashes"), double(rehashes));
    if (_router) {
        set(fast.scalar("routerAdmitReports"),
            double(_router->admitReports()));
        set(fast.scalar("routerAdmitScans"), double(_router->admitScans()));
    }
}

void
System::dumpStatsText(std::ostream &os)
{
    refreshSystemStats();
    _stats.dumpText(os);
}

void
System::dumpStatsJson(std::ostream &os)
{
    refreshSystemStats();
    _stats.dumpJson(os);
}

bool
System::writeStatsJsonFile(const std::string &path)
{
    refreshSystemStats();
    return _stats.writeJsonFile(path);
}

} // namespace neummu
