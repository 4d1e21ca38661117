#include "mmu/pom_tlb.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_engine.hh"

namespace neummu {

namespace {

/** POM table base: far above the host (1<<40) and per-NPU HBM
 *  ((2+i)<<40) windows, so table lines never alias tensor frames. */
constexpr Addr pomTableBase = Addr(512) << 40;

/** One set occupies one DRAM line. */
constexpr std::uint64_t pomLineBytes = 64;

} // namespace

PomTlb::PomTlb(std::string name, EventQueue &eq, PageTable &pt,
               unsigned page_shift, PomTlbConfig cfg)
    : TimedMmuEngine(std::move(name), eq, pt, page_shift), _cfg(cfg),
      _l1(_name + ".l1", cfg.l1), _mem(_name + ".dram", cfg.mem),
      _numSets(std::max<std::size_t>(
          1, cfg.ways ? cfg.entries / cfg.ways : 1)),
      _pom(_numSets * std::max<std::size_t>(1, cfg.ways))
{
    NEUMMU_ASSERT(_cfg.ways >= 1, "POM level needs at least one way");
    NEUMMU_ASSERT(_cfg.entries >= _cfg.ways,
                  "POM level smaller than one set");
    NEUMMU_ASSERT(_cfg.numWalkers >= 1,
                  "POM-TLB needs a miss register");
}

Addr
PomTlb::setAddr(Addr vpn) const
{
    return pomTableBase + Addr(setOf(vpn)) * pomLineBytes;
}

bool
PomTlb::translate(Addr va, std::uint64_t id)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::MmuTranslate);
    _counts.requests++;
    const Tick now = _eq.now();
    const Addr vpn = vpnOf(va);

    // Channel-register fast path (see MmuCore::translate): exact
    // because a generation match proves the L1 is untouched since the
    // snapshot, so lookup() would hit the MRU head without relinking.
    // Recency is touched on the accept paths only (see MmuEngine).
    XlateReg &reg = _xlateRegs[std::size_t(id >> 56) % numXlateRegs];
    if (reg.gen == _l1.generation() && reg.vpn == vpn) {
        if (_access)
            _access(va);
        _l1.noteRegisterHit();
        _xlateRegHits++;
        _counts.tlbHits++;
        if (_trace)
            _trace->span(id, trace::Stage::TlbHit, now,
                         now + _cfg.l1.hitLatency);
        respondAt(now + _cfg.l1.hitLatency,
                  TranslationResponse{
                      id, va,
                      (reg.pfn << _pageShift) |
                          (va & pageOffsetMask(_pageShift))});
        return true;
    }
    Addr pfn = invalidAddr;
    if (_l1.lookup(vpn, pfn)) {
        if (_access)
            _access(va);
        _counts.tlbHits++;
        reg.vpn = vpn;
        reg.pfn = pfn;
        reg.gen = _l1.generation();
        if (_trace)
            _trace->span(id, trace::Stage::TlbHit, now,
                         now + _cfg.l1.hitLatency);
        respondAt(now + _cfg.l1.hitLatency,
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
    if (_access)
        _access(va);
    _busy++;
    noteInflight(vpn);

    // The L1 miss reads the POM set out of DRAM: one line, queued
    // behind whatever lookup/install traffic already owns the
    // channels.
    _pomLookups++;
    const Tick line_read =
        _mem.access(now + _cfg.l1.hitLatency, setAddr(vpn),
                    pomLineBytes, false);
    if (_trace) {
        _trace->span(id, trace::Stage::TlbMiss, now,
                     now + _cfg.l1.hitLatency);
        // The in-DRAM set read is the design's lookup structure, not
        // a radix walk -- trace it as Lookup.
        _trace->span(id, trace::Stage::Lookup,
                     now + _cfg.l1.hitLatency, line_read);
    }
    _eq.schedule(line_read,
                 [this, va, id] { finishPomLookup(va, id); });
    return true;
}

void
PomTlb::finishPomLookup(Addr va, std::uint64_t id)
{
    const Tick now = _eq.now();
    const Addr vpn = vpnOf(va);

    PomEntry *set = &_pom[setOf(vpn) * _cfg.ways];
    for (std::size_t w = 0; w < _cfg.ways; w++) {
        if (set[w].vpn == vpn) {
            _pomHits++;
            set[w].lastUse = ++_useTick;
            _l1.insert(vpn, set[w].pfn);
            finish(va, id,
                   (set[w].pfn << _pageShift) |
                       (va & pageOffsetMask(_pageShift)),
                   now);
            return;
        }
    }
    _pomMisses++;

    // POM miss: the full radix walk, from the root. Faults resolve at
    // walk start; the PA binds late, at walk completion.
    Tick ready = now;
    const WalkResult walk = resolve(va, now, ready);
    _counts.walks++;
    _counts.walkMemAccesses += walk.levels;
    const Tick done = std::max(now, ready) +
                      Tick(walk.levels) * _cfg.walkLatencyPerLevel;
    if (_trace) {
        if (ready > now)
            _trace->span(id, trace::Stage::Fault, now, ready);
        _trace->span(id, trace::Stage::Walk, std::max(now, ready),
                     done, std::uint32_t(walk.levels));
    }
    _eq.schedule(done, [this, va, id] { finishWalk(va, id); });
}

void
PomTlb::finishWalk(Addr va, std::uint64_t id)
{
    const Tick now = _eq.now();
    Tick ready = now;
    const WalkResult walk = resolve(va, now, ready);
    if (_trace && ready > now)
        _trace->span(id, trace::Stage::Fault, now, ready);
    const Addr vpn = vpnOf(va);
    const Addr pfn = walk.pa >> _pageShift;

    // Install into the POM set (LRU within the set) with a timed line
    // write -- fire-and-forget: the response does not wait for the
    // install to become durable, but the write occupies a channel.
    PomEntry *set = &_pom[setOf(vpn) * _cfg.ways];
    PomEntry *slot = nullptr;
    for (std::size_t w = 0; w < _cfg.ways && !slot; w++) {
        if (set[w].vpn == invalidAddr || set[w].vpn == vpn)
            slot = &set[w];
    }
    if (!slot) {
        slot = &set[0];
        for (std::size_t w = 1; w < _cfg.ways; w++) {
            if (set[w].lastUse < slot->lastUse)
                slot = &set[w];
        }
        _pomEvictions++;
    } else if (slot->vpn == invalidAddr) {
        _pomSize++;
    }
    slot->vpn = vpn;
    slot->pfn = pfn;
    slot->lastUse = ++_useTick;
    _pomInstalls++;
    _mem.access(std::max(now, ready), setAddr(vpn), pomLineBytes, true);

    _l1.insert(vpn, pfn);
    finish(va, id,
           (walk.pa & ~pageOffsetMask(_pageShift)) |
               (va & pageOffsetMask(_pageShift)),
           std::max(now, ready));
}

void
PomTlb::finish(Addr va, std::uint64_t id, Addr pa, Tick when)
{
    respondAt(when, TranslationResponse{id, va, pa});
    _busy--;
    dropInflight(vpnOf(va));
    if (_wake)
        _wake();
}

void
PomTlb::invalidateDesign(Addr vpn)
{
    _l1.invalidate(vpn);
    PomEntry *set = &_pom[setOf(vpn) * _cfg.ways];
    for (std::size_t w = 0; w < _cfg.ways; w++) {
        if (set[w].vpn == vpn) {
            set[w] = PomEntry{};
            _pomSize--;
            _pomInvalidates++;
            return;
        }
    }
}

void
PomTlb::refreshDesignStats()
{
    const auto set = [this](const char *stat, std::uint64_t v) {
        stats().scalar(stat).set(double(v));
    };
    set("pomLookups", _pomLookups);
    set("pomHits", _pomHits);
    set("pomMisses", _pomMisses);
    set("pomInstalls", _pomInstalls);
    set("pomEvictions", _pomEvictions);
    if (_pomInvalidates)
        set("pomInvalidates", _pomInvalidates);
}

} // namespace neummu
