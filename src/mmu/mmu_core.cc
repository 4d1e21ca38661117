#include "mmu/mmu_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_engine.hh"

namespace neummu {

MmuConfig
baselineIommuConfig(unsigned page_shift)
{
    MmuConfig cfg;
    cfg.tlb = TlbConfig{2048, 0, 5};
    cfg.numPtws = 8;
    cfg.prmbSlots = 0;
    cfg.pathCache = MmuCacheKind::None;
    cfg.pageShift = page_shift;
    return cfg;
}

MmuConfig
neuMmuConfig(unsigned page_shift)
{
    MmuConfig cfg;
    cfg.tlb = TlbConfig{2048, 0, 5};
    cfg.numPtws = 128;
    cfg.prmbSlots = 32;
    cfg.pathCache = MmuCacheKind::TpReg;
    cfg.pageShift = page_shift;
    return cfg;
}

MmuConfig
oracleMmuConfig(unsigned page_shift)
{
    MmuConfig cfg;
    cfg.oracle = true;
    cfg.pageShift = page_shift;
    return cfg;
}

std::string
mmuKindName(MmuKind kind)
{
    switch (kind) {
      case MmuKind::Oracle: return "Oracle";
      case MmuKind::BaselineIommu: return "Baseline";
      case MmuKind::NeuMmu: return "NeuMMU";
      case MmuKind::Custom: return "Custom";
      case MmuKind::RangeMmu: return "RangeMMU";
      case MmuKind::PomTlb: return "PomTlb";
      case MmuKind::Nmt: return "NMT";
    }
    NEUMMU_PANIC("unknown MMU kind");
}

bool
isWalkerCoreKind(MmuKind kind)
{
    switch (kind) {
      case MmuKind::Oracle:
      case MmuKind::BaselineIommu:
      case MmuKind::NeuMmu:
      case MmuKind::Custom:
        return true;
      case MmuKind::RangeMmu:
      case MmuKind::PomTlb:
      case MmuKind::Nmt:
        return false;
    }
    NEUMMU_PANIC("unknown MMU kind");
}

MmuConfig
mmuConfigFor(MmuKind kind, unsigned page_shift)
{
    switch (kind) {
      case MmuKind::Oracle: return oracleMmuConfig(page_shift);
      case MmuKind::BaselineIommu:
        return baselineIommuConfig(page_shift);
      case MmuKind::NeuMmu: return neuMmuConfig(page_shift);
      default:
        NEUMMU_PANIC("MMU kind '" + mmuKindName(kind) + "' has no "
                     "canned MmuConfig (only the named walker-core "
                     "designs do)");
    }
}

void
MmuCore::refreshStats()
{
    const auto set = [this](const char *stat, std::uint64_t v) {
        _stats.scalar(stat).set(double(v));
    };
    set("requests", _counts.requests);
    set("responses", _counts.responses);
    set("tlbHits", _counts.tlbHits);
    set("tlbMisses", _counts.tlbMisses);
    set("walks", _counts.walks);
    set("redundantWalks", _counts.redundantWalks);
    set("prmbMerges", _counts.prmbMerges);
    set("blockedIssues", _counts.blockedIssues);
    set("walkMemAccesses", _counts.walkMemAccesses);
    set("faults", _counts.faults);
    set("prefetchWalks", _counts.prefetchWalks);
    set("ptsLookups", _counts.ptsLookups);
    set("pathCacheConsults", _counts.pathCacheConsults);
    set("pathCacheSkippedLevels", _counts.pathCacheSkippedLevels);
    // Coherence counters only exist in the dump when the lifecycle
    // machinery is in play, keeping the legacy stats surface (and the
    // golden-stats matrix) byte-identical with lifecycle off.
    if (_lifecycle || _counts.shootdowns || _counts.squashedWalks) {
        set("shootdowns", _counts.shootdowns);
        set("squashedWalks", _counts.squashedWalks);
    }
}

MmuCore::MmuCore(std::string name, EventQueue &eq, PageTable &pt,
                 MmuConfig cfg)
    : _name(std::move(name)), _eq(eq), _pt(pt), _cfg(cfg),
      _tlb(_name + ".tlb", cfg.tlb), _pts(2 * cfg.numPtws),
      _inflight(2 * cfg.numPtws), _stats(_name)
{
    NEUMMU_ASSERT(cfg.numPtws > 0 || cfg.oracle,
                  "an MMU needs at least one walker");
    _walkers.resize(cfg.numPtws);
    for (unsigned i = 0; i < cfg.numPtws; i++)
        _freeWalkers.push_back(cfg.numPtws - 1 - i);

    if (cfg.pathCache == MmuCacheKind::Tpc) {
        _tpc = std::make_unique<TranslationPathCache>(
            cfg.sharedCacheEntries, cfg.sharedCacheReplacement);
    } else if (cfg.pathCache == MmuCacheKind::Uptc) {
        _uptc = std::make_unique<UnifiedPageTableCache>(
            cfg.sharedCacheEntries, cfg.sharedCacheReplacement);
    }
}

void
MmuCore::setResponseCallback(ResponseCallback cb)
{
    _respond = std::move(cb);
}

void
MmuCore::setWakeCallback(WakeCallback cb)
{
    _wake = std::move(cb);
}

void
MmuCore::setFaultHandler(FaultHandler handler)
{
    _fault = std::move(handler);
}

void
MmuCore::enableLifecycle()
{
    _lifecycle = true;
}

void
MmuCore::setAccessHook(AccessHook hook)
{
    _access = std::move(hook);
}

bool
MmuCore::vpnBusy(Addr vpn) const
{
    return _inflight.contains(vpn) || _pendingResp.contains(vpn);
}

void
MmuCore::shootdown(Addr va, const UnmapResult &unmapped)
{
    _counts.shootdowns++;
    if (_cfg.oracle)
        return; // nothing cached, no in-flight walks
    const Addr vpn = vpnOf(va);
    _tlb.invalidate(vpn);

    // Squash in-flight walks on this page: their parked (or pending)
    // outcome predates the unmap, so finishWalk() retries instead of
    // responding with a stale PA.
    for (Walker &w : _walkers) {
        if (w.busy && w.vpn == vpn && !w.squashed) {
            w.squashed = true;
            _counts.squashedWalks++;
        }
    }

    // Virtually indexed path caches (TPreg/TPC) hold upper-level skip
    // chains only; they go stale exactly when interior tree nodes
    // were reclaimed under them.
    if (unmapped.freedNodes > 0) {
        for (Walker &w : _walkers)
            w.tpreg.invalidate(va, unmapped.firstFreedStep);
        if (_tpc)
            _tpc->invalidate(va, unmapped.firstFreedStep);
    }

    // The PA-tagged unified cache additionally holds the leaf PTE
    // itself, entries living inside reclaimed node frames, and -- in
    // the surviving parent node -- the entry that used to point at
    // the shallowest reclaimed child (its cached PTE now references
    // a recycled frame).
    if (_uptc) {
        if (unmapped.path.valid && unmapped.path.levels > 0) {
            _uptc->invalidateEntry(
                unmapped.path.entryPa[unmapped.path.levels - 1]);
        }
        for (unsigned i = 0; i < unmapped.freedNodes; i++)
            _uptc->invalidateNode(unmapped.freedNodePa[i]);
        if (unmapped.freedNodes > 0) {
            _uptc->invalidateEntry(
                unmapped.path.entryPa[unmapped.firstFreedStep - 1]);
        }
    }
}

void
MmuCore::invalidate(Addr va)
{
    // Leaf-only shootdown: the engine-interface caller changed (or is
    // about to change) the leaf mapping but reclaimed no interior
    // nodes. Only the PA-tagged UPTC needs the current walk path (to
    // drop its leaf PTE entry); skip the functional walk otherwise.
    UnmapResult info;
    if (_uptc)
        info.path = _pt.walk(va);
    shootdown(va, info);
}

const MmuCacheStats *
MmuCore::sharedCacheStats() const
{
    if (_tpc)
        return &_tpc->stats();
    if (_uptc)
        return &_uptc->stats();
    return nullptr;
}

double
MmuCore::uptcEntryHitRate() const
{
    if (!_uptc || _uptc->entryLookups() == 0)
        return 0.0;
    return double(_uptc->entryHits()) / double(_uptc->entryLookups());
}

void
MmuCore::respondAt(Tick when, const TranslationResponse &resp)
{
    NEUMMU_ASSERT(_respond, "no response callback installed");
    _counts.responses++;
    if (_lifecycle) {
        // Track the delivery window so vpnBusy() keeps the paging
        // engine from migrating a page whose (already translated)
        // response is still on the wire.
        _pendingResp.insert(vpnOf(resp.va), 0u).first++;
        _eq.schedule(when, [this, resp] {
            unsigned *pending = _pendingResp.find(vpnOf(resp.va));
            NEUMMU_ASSERT(pending, "pending-response tracking lost");
            if (--*pending == 0)
                _pendingResp.erase(vpnOf(resp.va));
            _respond(resp);
        });
        return;
    }
    _eq.schedule(when, [this, resp] {
        NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::MmuRespond);
        _respond(resp);
    });
}

bool
MmuCore::translate(Addr va, std::uint64_t id)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::MmuTranslate);
    _counts.requests++;
    if (_access)
        _access(va);
    const Tick now = _eq.now();

    if (_cfg.oracle) {
        WalkResult walk = _pt.walk(va);
        Tick ready = now;
        if (!walk.valid) {
            NEUMMU_ASSERT(_fault,
                          "oracle hit an unmapped page with no fault "
                          "handler: workload setup bug");
            _counts.faults++;
            ready = _fault(va, now);
            walk = _pt.walk(va);
            NEUMMU_ASSERT(walk.valid, "fault handler did not map page");
            if (_trace && ready > now)
                _trace->span(id, trace::Stage::Fault, now, ready);
        }
        respondAt(std::max(now, ready),
                  TranslationResponse{id, va, walk.pa});
        return true;
    }

    const Addr vpn = vpnOf(va);
    // Channel-register fast path: a generation match proves the TLB
    // is untouched since this channel's last hit on the same page, so
    // a full lookup would hit the MRU head without relinking -- skip
    // it and serve the cached frame. Counters follow the hit path.
    XlateReg &reg = _xlateRegs[std::size_t(id >> 56) % numXlateRegs];
    if (reg.gen == _tlb.generation() && reg.vpn == vpn) {
        _tlb.noteRegisterHit();
        _xlateRegHits++;
        _counts.tlbHits++;
        if (_trace)
            _trace->span(id, trace::Stage::TlbHit, now,
                         now + _cfg.tlb.hitLatency);
        respondAt(now + _cfg.tlb.hitLatency,
                  TranslationResponse{id, va,
                                      (reg.pfn << _cfg.pageShift) |
                                          (va & pageOffsetMask(
                                                    _cfg.pageShift))});
        return true;
    }
    Addr pfn = invalidAddr;
    if (_tlb.lookup(vpn, pfn)) {
        _counts.tlbHits++;
        // Snapshot after lookup(): a relink bumps the generation, so
        // the register is stamped with vpn already at the MRU head.
        reg.vpn = vpn;
        reg.pfn = pfn;
        reg.gen = _tlb.generation();
        if (_trace)
            _trace->span(id, trace::Stage::TlbHit, now,
                         now + _cfg.tlb.hitLatency);
        respondAt(now + _cfg.tlb.hitLatency,
                  TranslationResponse{id, va,
                                      (pfn << _cfg.pageShift) |
                                          (va & pageOffsetMask(
                                                    _cfg.pageShift))});
        return true;
    }
    _counts.tlbMisses++;

    if (_cfg.prmbSlots > 0) {
        // NeuMMU path: probe the pending translation scoreboard.
        _counts.ptsLookups++;
        if (const unsigned *walker_idx = _pts.find(vpn)) {
            Walker &w = _walkers[*walker_idx];
            if (prmbRoom(w)) {
                w.pending.push_back(TranslationResponse{id, va,
                                                        invalidAddr});
                _counts.prmbMerges++;
                if (_trace)
                    _trace->open(id, trace::Stage::PrmbMerge, now);
                return true;
            }
            _counts.blockedIssues++;
            return false;
        }
    }

    if (_freeWalkers.empty()) {
        _counts.blockedIssues++;
        return false;
    }

    const unsigned idx = _freeWalkers.back();
    _freeWalkers.pop_back();
    startWalk(idx, va, id);
    return true;
}

bool
MmuCore::prmbRoom(const Walker &w) const
{
    // pending[0] is the initiator; merged requests occupy the PRMB
    // slots. A speculative prefetch walk has an empty pending list
    // and accepts no merges (demand requests for its page block until
    // capacity frees) -- the explicit guard keeps size()-1 from
    // underflowing.
    return !w.pending.empty() && w.pending.size() - 1 < _cfg.prmbSlots;
}

bool
MmuCore::admits(Addr va)
{
    if (_cfg.oracle || _access)
        return true;
    const Addr vpn = vpnOf(va);
    // A channel-register hit implies a TLB hit, so probing the TLB
    // answers for both without touching recency.
    if (_tlb.probe(vpn))
        return true;
    if (_cfg.prmbSlots > 0) {
        if (const unsigned *walker_idx = _pts.find(vpn))
            return prmbRoom(_walkers[*walker_idx]);
    }
    return !_freeWalkers.empty();
}

void
MmuCore::setAdmitWatch(PageCallback cb)
{
    _admitWatch = std::move(cb);
}

bool
MmuCore::refusalsHold() const
{
    // A refused page not in the TLB stays out of it until a walk on
    // it fills it, and a full PRMB stays full until its walk ends;
    // both are reported. What is left is a PTS miss, which stays
    // refused while no walker is free. The oracle never refuses; an
    // access hook makes every refusal observable.
    return _admitWatch && !_access && !_cfg.oracle &&
           _freeWalkers.empty();
}

void
MmuCore::startWalk(unsigned walker_idx, Addr va, std::uint64_t id,
                   bool is_prefetch)
{
    Walker &w = _walkers[walker_idx];
    NEUMMU_ASSERT(!w.busy, "walker double allocation");
    const Addr vpn = vpnOf(va);

    w.busy = true;
    w.vpn = vpn;
    if (!is_prefetch)
        w.pending.push_back(TranslationResponse{id, va, invalidAddr});
    _busyWalkers++;

    unsigned &inflight_count = _inflight.insert(vpn, 0u).first;
    if (inflight_count > 0)
        _counts.redundantWalks++;
    inflight_count++;

    if (_cfg.prmbSlots > 0)
        _pts.insert(vpn, walker_idx);
    if (_admitWatch)
        _admitWatch(vpn, _cfg.pageShift);

    _counts.walks++;
    launchWalk(walker_idx, va, true);
}

void
MmuCore::launchWalk(unsigned walker_idx, Addr va, bool initial)
{
    Walker &w = _walkers[walker_idx];
    const Tick now = _eq.now();

    WalkResult walk = _pt.walk(va);
    Tick ready = now;
    if (!walk.valid) {
        NEUMMU_ASSERT(_fault, "unmapped page at " + std::to_string(va) +
                                  " with no fault handler");
        _counts.faults++;
        ready = _fault(va, now);
        walk = _pt.walk(va);
        NEUMMU_ASSERT(walk.valid, "fault handler did not map page");
    }
    NEUMMU_ASSERT(walk.pageShift == _cfg.pageShift,
                  "mapping granularity differs from MMU page size");

    const unsigned skipped = consultPathCache(w, va, walk);
    const unsigned accesses = walk.levels - skipped;
    _counts.walkMemAccesses += accesses;

    // TLB-miss detection precedes the initial walk; a shootdown retry
    // restarts from the page-table root immediately. Either way the
    // walk costs walkLatencyPerLevel per radix level actually read
    // from memory.
    const Tick start =
        std::max(initial ? now + _cfg.tlb.hitLatency : now, ready);
    const Tick done = start + Tick(accesses) * _cfg.walkLatencyPerLevel;

    if (_trace) {
        // Demand walks trace under the initiator's (tagged) id;
        // speculative walks have no requester, so they get their own
        // standalone prefetch key and never fold into a request.
        const bool speculative = w.pending.empty();
        const std::uint64_t key = speculative
                                      ? (trace::prefetchTag | w.vpn)
                                      : w.pending.front().id;
        if (initial && !speculative)
            _trace->span(key, trace::Stage::TlbMiss, now,
                         now + _cfg.tlb.hitLatency);
        if (ready > now)
            _trace->span(key, trace::Stage::Fault, now, ready);
        _trace->span(key, trace::Stage::Walk, start, done,
                     std::uint32_t(accesses));
    }

    // The walk outcome parks in the walker (it is busy until the
    // completion fires), so the continuation capture stays tiny and
    // inline in the event's small-buffer callback.
    w.walk = walk;
    _eq.schedule(done,
                 [this, walker_idx] { finishWalk(walker_idx); });
}

unsigned
MmuCore::consultPathCache(Walker &w, Addr va, const WalkResult &walk)
{
    // Path caches (TPreg/TPC) hold upper levels only: the final level
    // is always read from memory. The unified cache additionally
    // holds leaf PTEs, so a full chain hit skips the entire walk.
    const unsigned max_skippable = walk.levels - 1;
    unsigned skipped = 0;
    switch (_cfg.pathCache) {
      case MmuCacheKind::None:
        return 0;
      case MmuCacheKind::TpReg:
        skipped = w.tpreg.match(va, max_skippable, _tpregStats);
        break;
      case MmuCacheKind::Tpc:
        skipped = _tpc->lookup(va, max_skippable);
        break;
      case MmuCacheKind::Uptc:
        skipped = _uptc->lookup(walk, walk.levels);
        break;
    }
    _counts.pathCacheConsults++;
    _counts.pathCacheSkippedLevels += skipped;
    return skipped;
}

void
MmuCore::updatePathCache(Walker &w, Addr va, const WalkResult &walk)
{
    switch (_cfg.pathCache) {
      case MmuCacheKind::None:
        break;
      case MmuCacheKind::TpReg:
        w.tpreg.update(va, walk);
        break;
      case MmuCacheKind::Tpc:
        _tpc->update(va, walk);
        break;
      case MmuCacheKind::Uptc:
        _uptc->update(walk, walk.levels);
        break;
    }
}

void
MmuCore::finishWalk(unsigned walker_idx)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::MmuWalk);
    Walker &w = _walkers[walker_idx];
    NEUMMU_ASSERT(w.busy, "finishing an idle walker");

    if (w.squashed) {
        // A shootdown hit this page mid-walk: the parked outcome is
        // stale. Retry the walk from the root (PTS entry and merged
        // PRMB requests stay put, so the whole batch resolves against
        // the page's current mapping). A squashed speculative walk
        // whose page vanished is simply dropped -- nobody waits for
        // it, and re-faulting it in would be pure waste.
        w.squashed = false;
        const bool was_prefetch = w.pending.empty();
        const Addr va = was_prefetch ? (w.vpn << _cfg.pageShift)
                                     : w.pending.front().va;
        if (!was_prefetch || _pt.isMapped(va)) {
            launchWalk(walker_idx, va, false);
            return;
        }
        releaseWalker(walker_idx);
        if (_wake)
            _wake();
        return;
    }

    const WalkResult walk = w.walk;
    const Tick now = _eq.now();
    const Addr vpn = w.vpn;
    std::vector<TranslationResponse> &pending = w.pending;
    const bool was_prefetch = pending.empty();

    _tlb.insert(vpn, walk.pa >> _cfg.pageShift);
    if (_admitWatch)
        _admitWatch(vpn, _cfg.pageShift);
    const Addr representative_va =
        was_prefetch ? (vpn << _cfg.pageShift) : pending.front().va;
    updatePathCache(w, representative_va, walk);

    // The initiator gets its translation at walk completion; merged
    // PRMB entries drain back to the DMA one per cycle (Section IV-A).
    // Each response is captured by value in its own event, so the
    // walker can be released (and reused) before the drain finishes.
    // Each merge span closes at its scheduled delivery tick (known
    // now), so no work rides inside the delivery events themselves.
    const Addr off_mask = pageOffsetMask(_cfg.pageShift);
    Tick when = now;
    for (auto &resp : pending) {
        resp.pa = (walk.pa & ~off_mask) | (resp.va & off_mask);
        if (_trace && when > now)
            _trace->close(resp.id, trace::Stage::PrmbMerge, when);
        respondAt(when, resp);
        when++;
    }

    releaseWalker(walker_idx);

    // Only demand walks trigger speculation; letting prefetch walks
    // chain would sweep the whole mapped region unprompted.
    if (!was_prefetch)
        maybePrefetch(vpn);

    if (_wake)
        _wake();
}

void
MmuCore::releaseWalker(unsigned walker_idx)
{
    Walker &w = _walkers[walker_idx];
    const Addr vpn = w.vpn;
    w.busy = false;
    w.pending.clear();
    w.vpn = invalidAddr;
    _busyWalkers--;
    _freeWalkers.push_back(walker_idx);

    if (_cfg.prmbSlots > 0)
        _pts.erase(vpn);

    unsigned *inflight_count = _inflight.find(vpn);
    NEUMMU_ASSERT(inflight_count, "in-flight bookkeeping lost");
    if (--*inflight_count == 0)
        _inflight.erase(vpn);
}

void
MmuCore::maybePrefetch(Addr vpn)
{
    if (_cfg.prefetchDepth == 0)
        return;
    for (unsigned i = 1; i <= _cfg.prefetchDepth; i++) {
        if (_freeWalkers.empty())
            return; // demand traffic keeps priority over speculation
        const Addr next = vpn + i;
        if (_tlb.probe(next) || _inflight.contains(next))
            continue;
        // Never speculate past the mapped region (and never fault).
        if (!_pt.isMapped(next << _cfg.pageShift))
            return;
        const unsigned idx = _freeWalkers.back();
        _freeWalkers.pop_back();
        _counts.prefetchWalks++;
        startWalk(idx, next << _cfg.pageShift, 0, true);
    }
}

} // namespace neummu
