#include "mmu/range_mmu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_engine.hh"

namespace neummu {

RangeMmu::RangeMmu(std::string name, EventQueue &eq, PageTable &pt,
                   unsigned page_shift, RangeMmuConfig cfg)
    : TimedMmuEngine(std::move(name), eq, pt, page_shift), _cfg(cfg)
{
    NEUMMU_ASSERT(_cfg.entries >= 1, "range TLB needs an entry");
    NEUMMU_ASSERT(_cfg.numWalkers >= 1, "RangeMMU needs a walker");
    NEUMMU_ASSERT(_cfg.maxRangePages >= 1,
                  "ranges must cover at least one page");
    _ranges.reserve(_cfg.entries + 1);
}

RangeMmu::Range *
RangeMmu::lookupRange(Addr vpn)
{
    // Last-hit fast path: a tile's bursts sweep one run back to back,
    // so re-checking the previously hit range (when the table is
    // untouched since) skips the linear scan. Exact because ranges
    // never overlap -- any cover is THE cover lookupRange would find.
    if (_lastHitGen == _rangeGen && _lastHitIdx < _ranges.size()) {
        Range &c = _ranges[_lastHitIdx];
        if (vpn >= c.vpnBase && vpn - c.vpnBase < c.pages) {
            _rangeFastHits++;
            return &c;
        }
    }
    for (std::size_t i = 0; i < _ranges.size(); i++) {
        Range &r = _ranges[i];
        if (vpn >= r.vpnBase && vpn - r.vpnBase < r.pages) {
            _lastHitIdx = i;
            _lastHitGen = _rangeGen;
            return &r;
        }
    }
    return nullptr;
}

bool
RangeMmu::translate(Addr va, std::uint64_t id)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::MmuTranslate);
    _counts.requests++;
    // Unlike MmuCore and PomTlb, this design touches recency before
    // it can refuse: moving the touch onto the accept paths changes
    // which pages the paging engine evicts under serving churn.
    if (_access)
        _access(va);
    const Tick now = _eq.now();
    const Addr vpn = vpnOf(va);

    if (Range *r = lookupRange(vpn)) {
        _counts.tlbHits++;
        r->lastUse = ++_useTick;
        const Addr pfn = r->pfnBase + (vpn - r->vpnBase);
        if (_trace)
            _trace->span(id, trace::Stage::TlbHit, now,
                         now + _cfg.hitLatency);
        respondAt(now + _cfg.hitLatency,
                  TranslationResponse{
                      id, va,
                      (pfn << _pageShift) |
                          (va & pageOffsetMask(_pageShift))});
        return true;
    }
    _counts.tlbMisses++;

    if (_busy >= _cfg.numWalkers) {
        _counts.blockedIssues++;
        return false;
    }
    _busy++;
    noteInflight(vpn);

    // The miss pays a full radix walk; faults resolve at walk start
    // (the handler installs the mapping immediately, the walk then
    // starts once the page is resident). The PA itself binds late, at
    // completion, so a shootdown during the walk window can never
    // surface a stale frame.
    Tick ready = now;
    const WalkResult walk = resolve(va, now, ready);
    _counts.walks++;
    _counts.walkMemAccesses += walk.levels;
    const Tick start = std::max(now + _cfg.hitLatency, ready);
    const Tick done =
        start + Tick(walk.levels) * _cfg.walkLatencyPerLevel;
    if (_trace) {
        _trace->span(id, trace::Stage::TlbMiss, now,
                     now + _cfg.hitLatency);
        if (ready > now)
            _trace->span(id, trace::Stage::Fault, now, ready);
        _trace->span(id, trace::Stage::Walk, start, done,
                     std::uint32_t(walk.levels));
    }
    _eq.schedule(done, [this, va, id] { finishWalk(va, id); });
    return true;
}

void
RangeMmu::finishWalk(Addr va, std::uint64_t id)
{
    const Tick now = _eq.now();
    // Late binding: re-resolve against the page table as it is NOW.
    // The common case is a free re-walk of the mapping the miss
    // walked; if a shootdown unmapped the page mid-walk, this faults
    // it back in through the handler instead of answering stale.
    Tick ready = now;
    const WalkResult walk = resolve(va, now, ready);
    if (_trace && ready > now)
        _trace->span(id, trace::Stage::Fault, now, ready);

    const Addr vpn = vpnOf(va);
    const Addr pfn = walk.pa >> _pageShift;
    installRange(vpn, pfn);

    respondAt(std::max(now, ready),
              TranslationResponse{
                  id, va,
                  (walk.pa & ~pageOffsetMask(_pageShift)) |
                      (va & pageOffsetMask(_pageShift))});

    _busy--;
    dropInflight(vpn);
    if (_wake)
        _wake();
}

void
RangeMmu::installRange(Addr vpn, Addr pfn)
{
    // Eager range construction: probe the page table outward from the
    // missing page while virtual AND physical contiguity hold.
    Addr lo = vpn, lo_pfn = pfn;
    std::uint64_t pages = 1;
    while (pages < _cfg.maxRangePages && lo > 0 && lo_pfn > 0) {
        const WalkResult w = _pt.walk((lo - 1) << _pageShift);
        if (!w.valid || (w.pa >> _pageShift) != lo_pfn - 1)
            break;
        lo--;
        lo_pfn--;
        pages++;
    }
    Addr hi = vpn, hi_pfn = pfn;
    while (pages < _cfg.maxRangePages) {
        const WalkResult w = _pt.walk((hi + 1) << _pageShift);
        if (!w.valid || (w.pa >> _pageShift) != hi_pfn + 1)
            break;
        hi++;
        hi_pfn++;
        pages++;
    }

    // Drop every overlapping entry (they are stale sub-runs of the
    // freshly probed one), then cache the new range.
    _rangeGen++; // table mutates below: last-hit cache goes stale
    for (std::size_t i = 0; i < _ranges.size();) {
        const Range &r = _ranges[i];
        const bool overlaps =
            r.vpnBase <= hi && lo <= r.vpnBase + r.pages - 1;
        if (overlaps) {
            _ranges[i] = _ranges.back();
            _ranges.pop_back();
        } else {
            i++;
        }
    }
    _ranges.push_back(Range{lo, pages, lo_pfn, ++_useTick});
    _rangeInstalls++;
    _rangePagesInstalled += pages;

    while (_ranges.size() > _cfg.entries) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < _ranges.size(); i++) {
            if (_ranges[i].lastUse < _ranges[victim].lastUse)
                victim = i;
        }
        _ranges[victim] = _ranges.back();
        _ranges.pop_back();
        _rangeEvictions++;
    }
}

void
RangeMmu::invalidateDesign(Addr vpn)
{
    Range *r = lookupRange(vpn);
    if (!r)
        return;
    _rangeGen++; // table mutates below: last-hit cache goes stale
    // Split the run around the dead page: the surviving halves keep
    // the original recency, so churn erodes ranges instead of
    // flushing hot ones wholesale.
    const Range hit = *r;
    *r = _ranges.back();
    _ranges.pop_back();
    const std::uint64_t before = vpn - hit.vpnBase;
    const std::uint64_t after = hit.pages - before - 1;
    if (before > 0)
        _ranges.push_back(Range{hit.vpnBase, before, hit.pfnBase,
                                hit.lastUse});
    if (after > 0)
        _ranges.push_back(Range{vpn + 1, after,
                                hit.pfnBase + before + 1, hit.lastUse});
    if (before > 0 && after > 0)
        _rangeSplits++;
    while (_ranges.size() > _cfg.entries) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < _ranges.size(); i++) {
            if (_ranges[i].lastUse < _ranges[victim].lastUse)
                victim = i;
        }
        _ranges[victim] = _ranges.back();
        _ranges.pop_back();
        _rangeEvictions++;
    }
}

void
RangeMmu::refreshDesignStats()
{
    const auto set = [this](const char *stat, std::uint64_t v) {
        stats().scalar(stat).set(double(v));
    };
    set("rangeInstalls", _rangeInstalls);
    set("rangeEvictions", _rangeEvictions);
    set("rangeSplits", _rangeSplits);
    set("rangePagesInstalled", _rangePagesInstalled);
    set("liveRanges", _ranges.size());
}

} // namespace neummu
