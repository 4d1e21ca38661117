#include "npu/dma_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "trace/trace_engine.hh"

namespace neummu {

DmaEngine::DmaEngine(std::string name, EventQueue &eq,
                     TranslationEngine &mmu, MemoryModel &mem,
                     DmaConfig cfg, RetryRound &retry)
    : _eq(eq), _name(std::move(name)), _mmu(mmu), _mem(mem), _cfg(cfg),
      _retry(retry), _stats(_name),
      _sTranslationsIssued(_stats.scalar("translationsIssued"))
{
    _sStallCycles = &_stats.scalar("stallCycles");
    NEUMMU_ASSERT(cfg.burstBytes > 0, "zero DMA burst size");
    // Twice the hint: under contention a burst can outlive the
    // lifetime bound the hint comes from.
    std::size_t ring = 16;
    while (ring < 2 * cfg.inflightHint)
        ring <<= 1;
    _burstRing.assign(ring, 0);
    NEUMMU_ASSERT(&retry.eventQueue() == &eq,
                  "retry round belongs to another event queue");
    _mmu.setResponseCallback(
        [this](const TranslationResponse &resp) { onTranslation(resp); });
    _mmu.setWakeCallback([this] { onWake(); });
    _mmu.declareDeferredRetry(*this, retry);
}

void
DmaEngine::setTraceHook(TraceHook hook)
{
    NEUMMU_ASSERT(!awaitingWake(),
                  "trace hook changed while the DMA waits on a wake");
    _traceHook = std::move(hook);
}

void
DmaEngine::setTrace(trace::TraceBuffer *buf, std::uint64_t key_base)
{
    NEUMMU_ASSERT(!awaitingWake(),
                  "trace buffer changed while the DMA waits on a wake");
    _trace = buf;
    _traceKeyBase = key_base;
}

void
DmaEngine::fetch(std::vector<VaRun> runs, DoneCallback done)
{
    NEUMMU_ASSERT(!_active, "DMA engine supports one tile at a time");
    _active = true;
    _runs = std::move(runs);
    _runIdx = 0;
    _runOffset = 0;
    _issuedAll = _runs.empty();
    _blocked = false;
    _landTick = 0;
    _done = std::move(done);

    if (_issuedAll) {
        // Degenerate empty fetch: complete immediately.
        _eq.scheduleIn(0, [this] { finish(); });
        return;
    }
    _issueScheduled = true;
    _eq.scheduleIn(0, [this] { issueLoop(); });
}

bool
DmaEngine::currentBurst(Addr &va, std::uint64_t &len) const
{
    if (_runIdx >= _runs.size())
        return false;
    const VaRun &run = _runs[_runIdx];
    va = run.va + _runOffset;
    const std::uint64_t remaining = run.bytes - _runOffset;
    // Clip at burst size and at the page boundary so every burst
    // requires exactly one translation.
    const std::uint64_t to_page_end =
        pageSize(_cfg.pageShift) - (va & pageOffsetMask(_cfg.pageShift));
    len = std::min({remaining, _cfg.burstBytes, to_page_end});
    return true;
}

void
DmaEngine::advance(std::uint64_t len)
{
    _runOffset += len;
    if (_runOffset >= _runs[_runIdx].bytes) {
        _runIdx++;
        _runOffset = 0;
    }
    if (_runIdx >= _runs.size())
        _issuedAll = true;
}

bool
DmaEngine::issueStep(bool probe)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::DmaIssue);
    if (!_active || _issuedAll) {
        _issueScheduled = false;
        return false;
    }

    Addr va = 0;
    std::uint64_t len = 0;
    const bool have = currentBurst(va, len);
    NEUMMU_ASSERT(have, "issue loop ran past the tile");

    const std::uint64_t id = _nextId++;
    // A retry probes admission first, as the hub bridges do: a
    // refused probe leaves the port exactly as a rejected translate()
    // would (id burned, attempt traced, port blocked and waiting for
    // a wake) and moves nothing but rejection counters.
    const bool accepted =
        (!probe || _mmu.admits(va)) && _mmu.translate(va, id);
    if (_traceHook)
        _traceHook(_eq.now(), va, len, accepted);
    if (!accepted) {
        // Translation bandwidth exhausted: the port blocks until the
        // MMU signals freed capacity (Section IV-A).
        if (!_blocked) {
            _blocked = true;
            _blockedSince = _eq.now();
        }
        _issueScheduled = false;
        return false;
    }

    trackBurst(id, len);
    _translations++;
    ++_sTranslationsIssued;
    if (_trace)
        _trace->open(_traceKeyBase | id, trace::Stage::Translation,
                     _eq.now());
    if (_hook)
        _hook(_eq.now(), va);
    advance(len);

    if (_issuedAll) {
        _issueScheduled = false;
        return false;
    }
    return true; // next burst issues next cycle
}

void
DmaEngine::issueLoop()
{
    // One translation request per cycle (Section III-C): the event
    // reschedules itself after the attempt, so its seq follows
    // everything the attempt scheduled.
    if (issueStep(false))
        _eq.scheduleIn(1, [this] { issueLoop(); });
}

void
DmaEngine::retry()
{
    if (issueStep(true))
        _eq.scheduleIn(1, [this] { issueLoop(); });
}

void
DmaEngine::onWake()
{
    // An engine wakes its one client whenever it frees capacity, so
    // a port that is not blocked, or already retrying, ignores it.
    if (!_blocked || _issueScheduled)
        return;
    chargeWait(_eq.now());
    _blocked = false;
    // Retry next cycle from the queue's shared round: the DMAs one
    // wake fans out to retry from one event, in wake order (see
    // RetryRound::join for when a DMA joins instead of opening one).
    _issueScheduled = true;
    _retry.join(*this);
}

void
DmaEngine::chargeWait(Tick until)
{
    _stallCycles += until - _blockedSince;
    *_sStallCycles += double(until - _blockedSince);
    // The rejected attempts burned ids, so the wait can't be pinned on
    // the id that eventually succeeds; charge it to the port's
    // credit-wait sentinel key instead.
    if (_trace && until > _blockedSince)
        _trace->span(trace::creditWaitKey(_traceKeyBase),
                     trace::Stage::CreditWait, _blockedSince, until);
    _blockedSince = until;
}

void
DmaEngine::retryAdmitted(Tick woken)
{
    chargeWait(woken);
    _blocked = false;
    // The port has probed already: translate unprobed.
    _issueScheduled = true;
    if (issueStep(false))
        _eq.scheduleIn(1, [this] { issueLoop(); });
}

void
DmaEngine::retriesRefused(std::uint64_t count, Tick last_woken)
{
    NEUMMU_ASSERT(count > 0, "settling no refused rounds");
    NEUMMU_ASSERT(count == 1 || !recordsAttempts(),
                  "a recording DMA settles every refused round");
    // What issueStep(true) does on a refused probe, once per round:
    // charge the wait up to the wake, burn the id, trace the attempt
    // and block from the round. The rounds before the last each left
    // their own round's tick uncharged.
    NEUMMU_ASSERT(_blockedSince + (count - 1) <= last_woken,
                  "refused rounds closer than one a tick");
    _blockedSince += count - 1;
    chargeWait(last_woken);
    _nextId += count;
    if (_traceHook) {
        Addr va = 0;
        std::uint64_t len = 0;
        currentBurst(va, len);
        _traceHook(last_woken + 1, va, len, false);
    }
    _blockedSince = last_woken + 1;
}

void
DmaEngine::trackBurst(std::uint64_t id, std::uint64_t len)
{
    // With nothing outstanding every earlier id is settled.
    if (_inflight == 0)
        _ringBase = id;
    if (id - _ringBase >= _burstRing.size())
        growRing(id);
    _burstRing[id & (_burstRing.size() - 1)] = len;
    if (++_inflight > _inflightHighWater)
        _inflightHighWater = _inflight;
}

std::uint64_t
DmaEngine::untrackBurst(std::uint64_t id)
{
    const std::size_t mask = _burstRing.size() - 1;
    // An id below the base wraps to a huge offset, so one compare
    // rejects ids on either side of the ring.
    NEUMMU_ASSERT(id - _ringBase <= mask && _burstRing[id & mask] != 0,
                  "translation response for unknown burst");
    const std::uint64_t len = _burstRing[id & mask];
    _burstRing[id & mask] = 0;
    // Move the base past the answered and burned ids up to the
    // oldest burst still outstanding.
    if (--_inflight > 0 && id == _ringBase) {
        while (_burstRing[_ringBase & mask] == 0)
            _ringBase++;
    }
    return len;
}

void
DmaEngine::growRing(std::uint64_t id)
{
    std::size_t size = _burstRing.size();
    while (id - _ringBase >= size)
        size <<= 1;
    std::vector<std::uint64_t> ring(size, 0);
    const std::size_t old_mask = _burstRing.size() - 1;
    for (std::uint64_t i = _ringBase; i < _ringBase + _burstRing.size(); i++)
        ring[i & (size - 1)] = _burstRing[i & old_mask];
    _burstRing = std::move(ring);
    _ringGrowths++;
}

void
DmaEngine::onTranslation(const TranslationResponse &resp)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::DmaData);
    const std::uint64_t len = untrackBurst(resp.id);
    if (_trace) {
        const std::uint64_t key = _traceKeyBase | resp.id;
        const Tick dur = _trace->close(key, trace::Stage::Translation,
                                       _eq.now());
        if (dur != maxTick)
            _trace->complete(key, dur);
    }

    // Launch the data read; completion lands the burst in the SPM.
    Tick data_at;
    {
        NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::Memory);
        data_at = _mem.access(_eq.now(), resp.pa, len, false);
    }
    _bytes += len;
    // Each landing draws the seq its own completion event would, but
    // only the fetch's last landing -- the latest tick, and on a tie
    // the later response -- gets an event: the finish, which thereby
    // runs exactly where the last per-burst completion would have.
    const std::uint64_t seq = _eq.reserveSeq();
    if (data_at >= _landTick) {
        _landTick = data_at;
        _landSeq = seq;
    }
    if (_issuedAll && _inflight == 0)
        _eq.scheduleReserved(_landTick, _landSeq, [this] { finish(); });
}

void
DmaEngine::finish()
{
    NEUMMU_ASSERT(_active && _issuedAll && _inflight == 0,
                  "DMA fetch finished with bursts outstanding");
    _active = false;
    auto done = std::move(_done);
    _done = nullptr;
    if (done)
        done(_eq.now());
}

} // namespace neummu
