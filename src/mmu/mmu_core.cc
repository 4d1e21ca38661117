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
MmuCore::refreshDesignStats()
{
    const auto set = [this](const char *stat, std::uint64_t v) {
        stats().scalar(stat).set(double(v));
    };
    set("redundantWalks", _counts.redundantWalks);
    set("prmbMerges", _counts.prmbMerges);
    set("prefetchWalks", _counts.prefetchWalks);
    set("ptsLookups", _counts.ptsLookups);
    set("pathCacheConsults", _counts.pathCacheConsults);
    set("pathCacheSkippedLevels", _counts.pathCacheSkippedLevels);
}

MmuCore::MmuCore(std::string name, EventQueue &eq, PageTable &pt,
                 MmuConfig cfg)
    : MmuEngine(std::move(name), eq, pt, cfg.pageShift,
                2 * cfg.numPtws),
      _cfg(cfg),
      // translate() never reads an oracle's TLB, so it gets one
      // entry; _cfg keeps the configured TLB for the DMA ring hint.
      _tlb(cfg.oracle ? TlbConfig{1, 0, cfg.tlb.hitLatency} : cfg.tlb)
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
MmuCore::dropCached(Addr va, const UnmapResult &unmapped)
{
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
                unmapped.entryPa[unmapped.path.levels - 1]);
        }
        for (unsigned i = 0; i < unmapped.freedNodes; i++)
            _uptc->invalidateNode(unmapped.freedNodePa[i]);
        if (unmapped.freedNodes > 0) {
            _uptc->invalidateEntry(
                unmapped.entryPa[unmapped.firstFreedStep - 1]);
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
    if (_uptc) {
        info.path = _pt.walk(va);
        info.entryPa = _pt.entryPath(va);
    }
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

bool
MmuCore::translate(Addr va, std::uint64_t id)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::MmuTranslate);
    _counts.requests++;
    const Tick now = _eq.now();

    // Page recency is touched on the accept paths only: a request the
    // front end refuses never reaches the page table, and admits()
    // stays exact under an access hook.
    if (_cfg.oracle) {
        if (_access)
            _access(va);
        Tick ready = now;
        const WalkResult walk = resolve(va, now, ready);
        if (_trace && ready > now)
            _trace->span(id, trace::Stage::Fault, now, ready);
        respondAt(std::max(now, ready),
                  TranslationResponse{id, va, walk.pa});
        return true;
    }

    // The channel registers and the TLB: a hit answers here.
    if (serveFromTlb(_tlb, _cfg.tlb.hitLatency, va, id))
        return true;
    _counts.tlbMisses++;

    const Addr vpn = vpnOf(va);
    if (_cfg.prmbSlots > 0) {
        // NeuMMU path: probe the pending translation scoreboard.
        _counts.ptsLookups++;
        if (const unsigned *walker_idx = inflightWalker(vpn)) {
            Walker &w = _walkers[*walker_idx];
            if (prmbRoom(w)) {
                if (_access)
                    _access(va);
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

    if (_access)
        _access(va);
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
    if (_cfg.oracle)
        return true;
    const Addr vpn = vpnOf(va);
    // A channel-register hit implies a TLB hit, so probing the TLB
    // answers for both without touching recency.
    if (_tlb.probe(vpn))
        return true;
    if (_cfg.prmbSlots > 0) {
        if (const unsigned *walker_idx = inflightWalker(vpn))
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
    // refused while no walker is free. The oracle never refuses.
    return _admitWatch && !_cfg.oracle && _freeWalkers.empty();
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
    _busy++;
    if (noteInflight(vpn, walker_idx) > 1)
        _counts.redundantWalks++;
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

    Tick ready = now;
    const WalkResult walk = resolve(va, now, ready);

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
        skipped = _uptc->lookup(walk, _pt.entryPath(va), walk.levels);
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
        _uptc->update(walk, _pt.entryPath(va), walk.levels);
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
    _busy--;
    _freeWalkers.push_back(walker_idx);
    dropInflight(vpn);
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
        if (_tlb.probe(next) || inflight(next))
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
