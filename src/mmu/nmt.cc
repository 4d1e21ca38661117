#include "mmu/nmt.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_engine.hh"

namespace neummu {

Nmt::Nmt(std::string name, EventQueue &eq, PageTable &pt,
         unsigned page_shift, NmtConfig cfg)
    : TimedMmuEngine(std::move(name), eq, pt, page_shift), _cfg(cfg)
{
    NEUMMU_ASSERT(_cfg.cacheEntries >= 1,
                  "segment cache needs an entry");
    NEUMMU_ASSERT(_cfg.numUnits >= 1, "NMT needs a fetch unit");
}

bool
Nmt::translate(Addr va, std::uint64_t id)
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
    const Addr seg = segmentOf(vpn);

    // A segment hit only counts when the page itself is mapped: the
    // cache is segment-granular, but a sibling page's install must
    // not let an unmapped page skip its demand fault.
    const auto it = _segments.find(seg);
    if (it != _segments.end()) {
        const WalkResult walk = _pt.walk(va);
        if (walk.valid) {
            _counts.tlbHits++;
            it->second = ++_useTick;
            if (_trace)
                _trace->span(id, trace::Stage::TlbHit, now,
                             now + _cfg.hitLatency);
            respondAt(now + _cfg.hitLatency,
                      TranslationResponse{id, va, walk.pa});
            return true;
        }
    }
    _counts.tlbMisses++;

    if (_busy >= _cfg.numUnits) {
        _counts.blockedIssues++;
        return false;
    }
    _busy++;
    noteInflight(vpn);

    // One flat index fetch -- no pointer chasing -- per segment miss.
    _counts.walks++;
    _counts.walkMemAccesses += 1;
    const Tick done = now + _cfg.hitLatency + _cfg.fetchLatency;
    if (_trace) {
        _trace->span(id, trace::Stage::TlbMiss, now,
                     now + _cfg.hitLatency);
        // One flat near-memory index fetch, not a radix walk.
        _trace->span(id, trace::Stage::Lookup, now + _cfg.hitLatency,
                     done);
    }
    _eq.schedule(done, [this, va, id] { finishFetch(va, id); });
    return true;
}

void
Nmt::finishFetch(Addr va, std::uint64_t id)
{
    const Tick now = _eq.now();
    Tick ready = now;
    const WalkResult walk = resolve(va, now, ready);
    if (_trace && ready > now)
        _trace->span(id, trace::Stage::Fault, now, ready);
    const Addr vpn = vpnOf(va);

    // Insert as MRU first so the new entry can never be its own
    // eviction victim.
    if (_segments.insert_or_assign(segmentOf(vpn), ++_useTick)
            .second) {
        _segInstalls++;
        while (_segments.size() > _cfg.cacheEntries) {
            auto victim = _segments.begin();
            for (auto it = std::next(victim); it != _segments.end();
                 ++it) {
                if (it->second < victim->second)
                    victim = it;
            }
            _segments.erase(victim);
            _segEvictions++;
        }
    }

    respondAt(std::max(now, ready),
              TranslationResponse{id, va, walk.pa});
    _busy--;
    dropInflight(vpn);
    if (_wake)
        _wake();
}

void
Nmt::invalidateDesign(Addr vpn)
{
    if (_segments.erase(segmentOf(vpn)))
        _segDrops++;
}

void
Nmt::refreshDesignStats()
{
    const auto set = [this](const char *stat, std::uint64_t v) {
        stats().scalar(stat).set(double(v));
    };
    set("segInstalls", _segInstalls);
    set("segEvictions", _segEvictions);
    set("segDrops", _segDrops);
    set("liveSegments", _segments.size());
}

} // namespace neummu
