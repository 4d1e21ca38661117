#include "npu/dma_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "trace/trace_engine.hh"

namespace neummu {

DmaEngine::DmaEngine(std::string name, EventQueue &eq,
                     TranslationEngine &mmu, MemoryModel &mem,
                     DmaConfig cfg)
    : _name(std::move(name)), _eq(eq), _mmu(mmu), _mem(mem), _cfg(cfg),
      _burstBytesById(2 * cfg.inflightHint), _stats(_name),
      _sTranslationsIssued(_stats.scalar("translationsIssued")),
      _sStallCycles(_stats.scalar("stallCycles"))
{
    NEUMMU_ASSERT(cfg.burstBytes > 0, "zero DMA burst size");
    _mmu.setResponseCallback(
        [this](const TranslationResponse &resp) { onTranslation(resp); });
    _mmu.setWakeCallback([this] { onWake(); });
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
    _inFlight = 0;
    _blocked = false;
    _done = std::move(done);

    if (_issuedAll) {
        // Degenerate empty fetch: complete immediately.
        _eq.scheduleIn(0, [this] { maybeFinish(); });
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
DmaEngine::issueStep()
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
    const bool accepted = _mmu.translate(va, id);
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

    _burstBytesById.insert(id, len);
    _inFlight++;
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
    if (issueStep())
        _eq.scheduleIn(1, [this] { issueLoop(); });
}

void
DmaEngine::onWake()
{
    if (!_blocked || _issueScheduled)
        return;
    _blocked = false;
    _stallCycles += _eq.now() - _blockedSince;
    _sStallCycles += double(_eq.now() - _blockedSince);
    // The rejected attempts burned ids, so the wait can't be pinned on
    // the id that eventually succeeds; charge it to the port's
    // credit-wait sentinel key instead.
    if (_trace && _eq.now() > _blockedSince)
        _trace->span(trace::creditWaitKey(_traceKeyBase),
                     trace::Stage::CreditWait, _blockedSince, _eq.now());
    _issueScheduled = true;
    _eq.scheduleIn(1, [this] { issueLoop(); });
}

void
DmaEngine::onTranslation(const TranslationResponse &resp)
{
    NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::DmaData);
    const std::uint64_t *len_slot = _burstBytesById.find(resp.id);
    NEUMMU_ASSERT(len_slot, "translation response for unknown burst");
    const std::uint64_t len = *len_slot;
    _burstBytesById.erase(resp.id);
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
    _eq.schedule(data_at, [this] {
        NEUMMU_ASSERT(_inFlight > 0, "burst completion underflow");
        _inFlight--;
        maybeFinish();
    });
}

void
DmaEngine::maybeFinish()
{
    if (!_active || !_issuedAll || _inFlight != 0)
        return;
    _active = false;
    auto done = std::move(_done);
    _done = nullptr;
    if (done)
        done(_eq.now());
}

} // namespace neummu
