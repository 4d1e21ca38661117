/**
 * @file
 * TraceBuffer recording and the TraceEngine drain: lifecycle
 * assembly, the exhaustive per-stage latency partition, the Chrome
 * trace-event sink, and the trace.* stats mirror.
 */

#include "trace/trace_engine.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <unordered_set>

#include "common/logging.hh"

namespace neummu {
namespace trace {

const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::Request:
        return "Request";
    case Stage::ReqQueue:
        return "ReqQueue";
    case Stage::ReqService:
        return "ReqService";
    case Stage::Translation:
        return "Translation";
    case Stage::CreditWait:
        return "CreditWait";
    case Stage::HopToHub:
        return "HopToHub";
    case Stage::HubQueue:
        return "HubQueue";
    case Stage::TlbHit:
        return "TlbHit";
    case Stage::TlbMiss:
        return "TlbMiss";
    case Stage::PrmbMerge:
        return "PrmbMerge";
    case Stage::Walk:
        return "Walk";
    case Stage::Fault:
        return "Fault";
    case Stage::Lookup:
        return "Lookup";
    case Stage::HopToNpu:
        return "HopToNpu";
    case Stage::QueueDelay:
        return "QueueDelay";
    case Stage::Respond:
        return "Respond";
    case Stage::PageFetch:
        return "PageFetch";
    case Stage::PageEvict:
        return "PageEvict";
    case Stage::NumStages:
        break;
    }
    return "Unknown";
}

// ---------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------

TraceBuffer::TraceBuffer(const TraceConfig &cfg)
    : _cfg(cfg), _keepAll(cfg.tailThreshold == 0 && !cfg.autoP99)
{
    if (_cfg.ring == 0)
        _cfg.ring = 1;
    if (_cfg.marks == 0)
        _cfg.marks = 1;
    _ring.reserve(std::size_t(std::min<std::uint64_t>(
        _cfg.ring, std::uint64_t(1) << 20)));
}

void
TraceBuffer::push(const TraceSpan &s)
{
    _recorded++;
    if (_ring.size() < _cfg.ring) {
        _ring.push_back(s);
        return;
    }
    // Full: overwrite the oldest entry (drop-oldest, counted).
    _ring[_head] = s;
    _head = (_head + 1) % _ring.size();
    _dropped++;
}

void
TraceBuffer::span(std::uint64_t key, Stage st, Tick start, Tick end,
                  std::uint32_t aux)
{
    NEUMMU_ASSERT(end >= start, "negative-duration trace span");
    TraceSpan s;
    s.key = key;
    s.start = start;
    s.end = end;
    s.aux = aux;
    s.stage = st;
    push(s);
    _stageHist[unsigned(st)].record(end - start);
}

void
TraceBuffer::open(std::uint64_t key, Stage st, Tick start)
{
    _open[unsigned(st)].insert(key, start);
}

Tick
TraceBuffer::close(std::uint64_t key, Stage st, Tick end,
                   std::uint32_t aux)
{
    FlatMap64<Tick> &table = _open[unsigned(st)];
    const Tick *start = table.find(key);
    if (!start)
        return maxTick;
    const Tick s = *start;
    table.erase(key);
    span(key, st, s, end, aux);
    return end - s;
}

void
TraceBuffer::complete(std::uint64_t key, Tick e2e)
{
    _e2e.record(e2e);
    _completions++;
    // The p99 snapshot refreshes every 64 completions, so the keep
    // decision for completion N depends only on completions 1..N of
    // this queue's stream -- shard-invariant by construction.
    bool keep = _keepAll;
    if (!keep && _cfg.tailThreshold != 0 &&
        e2e >= _cfg.tailThreshold)
        keep = true;
    if (!keep && _cfg.autoP99 && _completions > 64 &&
        e2e > _cachedP99)
        keep = true;
    if ((_completions & 63) == 0)
        _cachedP99 = _e2e.quantile(0.99);
    if (keep && !_keepAll)
        mark(key);
}

void
TraceBuffer::mark(std::uint64_t key)
{
    if (_marks.size() < _cfg.marks) {
        _marks.push_back(key);
        return;
    }
    _marks[_marksHead] = key;
    _marksHead = (_marksHead + 1) % _marks.size();
    _marksDropped++;
}

std::size_t
TraceBuffer::openCount() const
{
    std::size_t n = 0;
    for (const FlatMap64<Tick> &t : _open)
        n += t.size();
    return n;
}

// ---------------------------------------------------------------------
// TraceEngine
// ---------------------------------------------------------------------

TraceEngine::TraceEngine(std::string system_name, TraceConfig cfg,
                         unsigned num_lanes, stats::Group &stats)
    : _name(std::move(system_name)), _cfg(cfg), _stats(stats)
{
    NEUMMU_ASSERT(num_lanes >= 1, "trace engine needs a lane");
    _buffers.reserve(num_lanes);
    for (unsigned q = 0; q < num_lanes; q++)
        _buffers.push_back(std::make_unique<TraceBuffer>(_cfg));
}

namespace {

/** Grouping order: key runs, then chronological within the run. */
bool
groupLess(const TraceSpan &a, const TraceSpan &b)
{
    if (a.key != b.key)
        return a.key < b.key;
    if (a.start != b.start)
        return a.start < b.start;
    if (a.end != b.end)
        return a.end < b.end;
    if (a.stage != b.stage)
        return a.stage < b.stage;
    return a.aux < b.aux;
}

/** Emission order: chronological across the whole trace. */
bool
emitLess(const TraceSpan &a, const TraceSpan &b)
{
    if (a.start != b.start)
        return a.start < b.start;
    if (a.end != b.end)
        return a.end < b.end;
    if (a.stage != b.stage)
        return a.stage < b.stage;
    if (a.key != b.key)
        return a.key < b.key;
    return a.aux < b.aux;
}

} // namespace

void
TraceEngine::chargeParent(const TraceSpan &parent,
                          std::vector<const TraceSpan *> &children,
                          std::array<StageRow, numStages> &rows,
                          std::uint64_t &charged_ticks)
{
    // Greedy interval partition: walk the children chronologically,
    // trim each to the uncovered remainder [cursor, parent.end], and
    // charge the trimmed width to the child's stage. Gaps no child
    // covers become QueueDelay; the tail after the last child becomes
    // Respond. Every tick of [parent.start, parent.end) is charged to
    // exactly one stage, so the per-request stage sum equals the
    // end-to-end latency identically.
    std::array<std::uint64_t, numStages> t{};
    Tick cursor = parent.start;
    for (const TraceSpan *c : children) {
        const Tick b = std::max(c->start, cursor);
        const Tick f = std::min(c->end, parent.end);
        if (f <= b)
            continue;
        if (b > cursor)
            t[unsigned(Stage::QueueDelay)] += b - cursor;
        t[unsigned(c->stage)] += f - b;
        cursor = f;
    }
    if (parent.end > cursor)
        t[unsigned(Stage::Respond)] += parent.end - cursor;

    for (unsigned s = 0; s < numStages; s++) {
        if (t[s] == 0)
            continue;
        rows[s].count++;
        rows[s].totalTicks += t[s];
        rows[s].hist.record(t[s]);
        charged_ticks += t[s];
    }
}

void
TraceEngine::drain()
{
    _emitted.clear();
    _report = Report{};

    const bool keep_all = _cfg.tailThreshold == 0 && !_cfg.autoP99;
    std::vector<TraceSpan> all;
    std::unordered_set<std::uint64_t> kept;
    for (const std::unique_ptr<TraceBuffer> &bp : _buffers) {
        const TraceBuffer &b = *bp;
        b.forEachSpan([&](const TraceSpan &s) { all.push_back(s); });
        if (!keep_all)
            b.forEachMark(
                [&](std::uint64_t k) { kept.insert(k); });
        _report.spansRecorded += b.spansRecorded();
        _report.dropped += b.dropped();
        _report.marksDropped += b.marksDropped();
        _report.openAtDrain += b.openCount();
    }

    std::sort(all.begin(), all.end(), groupLess);

    std::map<std::uint32_t, TenantRow> tenants;
    std::vector<const TraceSpan *> children;
    std::size_t i = 0;
    while (i < all.size()) {
        std::size_t j = i;
        while (j < all.size() && all[j].key == all[i].key)
            j++;
        const std::uint64_t key = all[i].key;
        const bool emit = keep_all || standaloneKey(key) ||
                          kept.count(key) != 0;
        if (!emit) {
            i = j;
            continue;
        }
        for (std::size_t k = i; k < j; k++)
            _emitted.push_back(all[k]);

        // Lifecycle charge: one parent span per key run.
        const TraceSpan *parent = nullptr;
        for (std::size_t k = i; k < j; k++) {
            if (all[k].stage == Stage::Translation ||
                all[k].stage == Stage::Request) {
                parent = &all[k];
                break;
            }
        }
        if (parent) {
            children.clear();
            for (std::size_t k = i; k < j; k++)
                if (&all[k] != parent)
                    children.push_back(&all[k]);
            const std::uint64_t e2e = parent->end - parent->start;
            if (parent->stage == Stage::Translation) {
                _report.tracedTranslations++;
                _report.translationE2eTicks += e2e;
                chargeParent(*parent, children, _report.stages,
                             _report.translationChargedTicks);
            } else {
                _report.tracedRequests++;
                _report.requestE2eTicks += e2e;
                chargeParent(*parent, children,
                             _report.requestStages,
                             _report.requestChargedTicks);
                TenantRow &row = tenants[parent->aux >> 16];
                row.tenant = parent->aux >> 16;
                row.count++;
                row.e2e.record(e2e);
                for (const TraceSpan *c : children) {
                    if (c->stage == Stage::ReqQueue)
                        row.queue.record(c->end - c->start);
                    else if (c->stage == Stage::ReqService)
                        row.service.record(c->end - c->start);
                }
            }
        }
        i = j;
    }

    _report.sumsMatch =
        _report.translationChargedTicks ==
            _report.translationE2eTicks &&
        _report.requestChargedTicks == _report.requestE2eTicks;
    for (auto &kv : tenants)
        _report.tenants.push_back(std::move(kv.second));

    std::sort(_emitted.begin(), _emitted.end(), emitLess);
    _report.spansEmitted = _emitted.size();
}

std::uint32_t
TraceEngine::laneOf(const TraceSpan &s)
{
    const std::uint64_t tb = s.key >> clientShift;
    if (tb == 0xFF)
        return 1500 + (s.aux & 0xFFFF); // serving slot lane
    if (tb == 0xFE)
        return 1000; // paging engine
    if (tb == 0xFD)
        return 1001; // speculative prefetch walks
    return std::uint32_t(tb); // issuing NPU
}

std::string
TraceEngine::laneName(std::uint32_t lane)
{
    char buf[32];
    if (lane >= 1500) {
        std::snprintf(buf, sizeof(buf), "serve.slot%u", lane - 1500);
        return buf;
    }
    if (lane == 1000)
        return "paging";
    if (lane == 1001)
        return "prefetch";
    std::snprintf(buf, sizeof(buf), "npu%u", lane);
    return buf;
}

void
TraceEngine::writeChromeTrace(std::ostream &os)
{
    drain();

    os << "{\n\"displayTimeUnit\": \"ns\",\n"
       << "\"otherData\": {\"tool\": \"neummu\", \"system\": \""
       << _name << "\", \"timeUnit\": \"simulated ticks\"},\n"
       << "\"traceEvents\": [\n";

    char buf[256];
    bool first = true;
    auto emit = [&](const char *line) {
        if (!first)
            os << ",\n";
        first = false;
        os << line;
    };

    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"process_name\", \"ph\": \"M\", "
                  "\"pid\": 0, \"tid\": 0, \"args\": {\"name\": "
                  "\"%s\"}}",
                  _name.c_str());
    emit(buf);

    std::set<std::uint32_t> lanes;
    for (const TraceSpan &s : _emitted)
        lanes.insert(laneOf(s));
    for (const std::uint32_t lane : lanes) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"thread_name\", \"ph\": \"M\", "
                      "\"pid\": 0, \"tid\": %u, \"args\": {\"name\": "
                      "\"%s\"}}",
                      lane, laneName(lane).c_str());
        emit(buf);
    }

    for (const TraceSpan &s : _emitted) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\": \"%s\", \"cat\": \"neummu\", \"ph\": \"X\", "
            "\"pid\": 0, \"tid\": %u, \"ts\": %" PRIu64
            ", \"dur\": %" PRIu64
            ", \"args\": {\"key\": \"0x%016" PRIx64
            "\", \"aux\": %u}}",
            stageName(s.stage), laneOf(s), s.start, s.end - s.start,
            s.key, s.aux);
        emit(buf);
    }

    os << "\n]\n}\n";
}

bool
TraceEngine::writeChromeTraceFile(const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    writeChromeTrace(os);
    return bool(os);
}

void
TraceEngine::refreshStats()
{
    drain();
    const Report &r = _report;
    _stats.scalar("spansRecorded").set(double(r.spansRecorded));
    _stats.scalar("spansEmitted").set(double(r.spansEmitted));
    _stats.scalar("dropped").set(double(r.dropped));
    _stats.scalar("marksDropped").set(double(r.marksDropped));
    _stats.scalar("openAtDrain").set(double(r.openAtDrain));
    _stats.scalar("tracedTranslations")
        .set(double(r.tracedTranslations));
    _stats.scalar("tracedRequests").set(double(r.tracedRequests));
    _stats.scalar("sumsMatch").set(r.sumsMatch ? 1.0 : 0.0);
    _stats.scalar("translationE2eTicks")
        .set(double(r.translationE2eTicks));
    _stats.scalar("translationChargedTicks")
        .set(double(r.translationChargedTicks));
    _stats.scalar("requestE2eTicks").set(double(r.requestE2eTicks));
    _stats.scalar("requestChargedTicks")
        .set(double(r.requestChargedTicks));

    for (unsigned s = 0; s < numStages; s++) {
        const std::string base = stageName(Stage(s));
        _stats.scalar(base + "ChargedTicks")
            .set(double(r.stages[s].totalTicks));
        _stats.scalar(base + "ChargedCount")
            .set(double(r.stages[s].count));
        if (r.stages[s].count != 0) {
            stats::Histogram &h =
                _stats.histogram(base + "Charged");
            h.reset();
            h.merge(r.stages[s].hist);
        }
        // Record-time per-stage durations (full coverage, every
        // recorded span regardless of the tail trigger).
        std::uint64_t raw_count = 0;
        for (const std::unique_ptr<TraceBuffer> &bp : _buffers)
            raw_count += bp->stageHist(Stage(s)).count();
        if (raw_count != 0) {
            stats::Histogram &h = _stats.histogram(base + "Raw");
            h.reset();
            for (const std::unique_ptr<TraceBuffer> &bp : _buffers)
                h.merge(bp->stageHist(Stage(s)));
        }
    }
    for (unsigned s = 0; s < numStages; s++) {
        if (r.requestStages[s].count == 0 &&
            r.requestStages[s].totalTicks == 0)
            continue;
        const std::string base = stageName(Stage(s));
        _stats.scalar("req" + base + "ChargedTicks")
            .set(double(r.requestStages[s].totalTicks));
    }
}

} // namespace trace
} // namespace neummu
