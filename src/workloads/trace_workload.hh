/**
 * @file
 * Translation-trace recording and replay (the NDPage-style
 * evaluate-on-recorded-streams methodology). A TraceRecorder captures
 * every translation attempt an NPU slot's DMA makes -- including
 * attempts the MMU rejected -- as one JSONL line per attempt; a
 * TraceWorkload replays such a trace tick-faithfully against a fresh
 * System's translation port, reproducing the recorded run's MmuCounts
 * exactly (path caches are virtually indexed, so counts are
 * independent of the physical frame layout).
 *
 * JSONL format: a header line
 *   {"neummu_trace":1,"pageShift":12,"source":"<name>"}
 * followed by one line per attempt
 *   {"t":5,"va":1099511627776,"bytes":1024,"ok":true}
 * with t in cycles from the start of recording and va/bytes in
 * decimal.
 */

#ifndef NEUMMU_WORKLOADS_TRACE_WORKLOAD_HH
#define NEUMMU_WORKLOADS_TRACE_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "workloads/workload.hh"

namespace neummu {

/** One recorded translation attempt. */
struct TraceEntry
{
    /** Cycles since the start of recording. */
    Tick tick = 0;
    Addr va = invalidAddr;
    /** Burst length the translation covered. */
    std::uint64_t bytes = 0;
    /** False when the MMU rejected the attempt (port blocked). */
    bool accepted = true;
};

/** Trace-wide metadata (the JSONL header line). */
struct TraceHeader
{
    unsigned pageShift = smallPageShift;
    /** Human-readable origin (system/workload name). */
    std::string source;
};

/** Write @p header + @p entries as JSONL; false on I/O failure. */
bool writeTraceJsonl(const std::string &path, const TraceHeader &header,
                     const std::vector<TraceEntry> &entries);

/**
 * Parse a JSONL trace. Returns false (with a warning) on I/O or
 * malformed input.
 */
bool readTraceJsonl(const std::string &path, TraceHeader &header,
                    std::vector<TraceEntry> &entries);

/**
 * Captures one NPU slot's translation-attempt stream. Attach before
 * the run; entries accumulate until detached or destroyed.
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /**
     * Start recording NPU @p npu's attempts (replaces any trace hook
     * previously installed on that DMA). Ticks are recorded relative
     * to the attach-time now().
     * @pre That DMA is not waiting on an MMU wake: its router would
     *      park it through refused rounds the recorder then misses,
     *      so DmaEngine::setTraceHook() asserts.
     */
    void attach(System &system, unsigned npu = 0);

    const TraceHeader &header() const { return _header; }
    const std::vector<TraceEntry> &entries() const { return _entries; }

    /** Write the captured trace; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    TraceHeader _header;
    Tick _base = 0;
    std::vector<TraceEntry> _entries;
};

/** Configuration of one trace-replay traffic source. */
struct TraceWorkloadConfig
{
    /** JSONL trace to load at bind time (ignored if entries given). */
    std::string path;
    /** In-memory trace (takes precedence over path when non-empty). */
    std::vector<TraceEntry> entries;
    TraceHeader header{};
    /**
     * Map every page the trace touches (first-touch order) at bind
     * time. Disable when replaying against a system whose mappings
     * are set up elsewhere.
     */
    bool mapPages = true;
};

/**
 * Replays a recorded translation stream tick-faithfully through the
 * bound slot's translation port. The workload takes over the port's
 * response callback, so the slot's DMA engine must stay idle for the
 * duration of the run (the slot belongs to the replay).
 */
class TraceWorkload : public Workload
{
  public:
    explicit TraceWorkload(TraceWorkloadConfig cfg);

    const TraceHeader &header() const { return _cfg.header; }
    std::size_t numEntries() const { return _cfg.entries.size(); }
    /**
     * Attempts whose outcome diverged from the recording (accepted
     * where the recording blocked, or vice versa). Zero when the
     * replay system matches the recording system's translation
     * configuration.
     */
    std::uint64_t divergences() const { return _divergences; }

    /** Accepted attempts (the replay bypasses the slot's DMA). */
    std::uint64_t translationsIssued() const override
    {
        return _expectedResponses;
    }
    /** Bytes covered by accepted attempts. */
    std::uint64_t bytesFetched() const override
    {
        return _acceptedBytes;
    }

  protected:
    void onBind() override;
    void onStart() override;

  private:
    void issue(std::size_t index);
    void maybeFinish();

    TraceWorkloadConfig _cfg;
    std::uint64_t _expectedResponses = 0;
    std::uint64_t _acceptedBytes = 0;
    std::uint64_t _responses = 0;
    std::size_t _issued = 0;
    std::uint64_t _divergences = 0;
};

} // namespace neummu

#endif // NEUMMU_WORKLOADS_TRACE_WORKLOAD_HH
