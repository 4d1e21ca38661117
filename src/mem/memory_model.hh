/**
 * @file
 * Bandwidth-constrained, fixed-latency main-memory model.
 *
 * Following the paper (Section II-C), the NPU-local memory is modeled
 * with a fixed access latency and an aggregate bandwidth constraint
 * rather than a cycle-level DRAM simulator: 8 channels, 600 GB/s
 * aggregate, 100-cycle access latency (Table I). Requests are
 * interleaved across channels at a fixed granularity and serialized
 * per channel.
 */

#ifndef NEUMMU_MEM_MEMORY_MODEL_HH
#define NEUMMU_MEM_MEMORY_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace neummu {

/** Configuration for a MemoryModel instance (defaults follow Table I). */
struct MemoryConfig
{
    /** Number of independent memory channels. */
    unsigned channels = 8;
    /** Aggregate bandwidth in bytes per cycle (600 GB/s at 1 GHz). */
    double bytesPerCycle = 600.0;
    /** Fixed access latency in cycles. */
    Tick accessLatency = 100;
    /** Channel interleave granularity in bytes. */
    unsigned interleaveBytes = 256;
};

/**
 * Models one memory node (e.g., an NPU's local HBM stack). access()
 * computes the completion time of a request analytically in O(chunks),
 * tracking per-channel busy time; no events are needed. It works out
 * the first chunk's stripe offset and channel once per access (a
 * shift and a mask when the interleave and the channel count are
 * both powers of two, a division otherwise), then steps each later
 * chunk to the next channel round-robin; a full stripe's busy time
 * is precomputed, so no chunk divides.
 */
class MemoryModel
{
  public:
    MemoryModel(std::string name, MemoryConfig cfg);

    /**
     * Issue a read or write of @p bytes at physical address @p pa,
     * arriving at the memory controller at @p now.
     *
     * @return The tick at which the last byte is available (read) or
     *         durable (write).
     */
    Tick access(Tick now, Addr pa, std::uint64_t bytes, bool is_write);

    /** Earliest tick at which any channel is free (for tests). */
    Tick earliestFree() const;

    const MemoryConfig &config() const { return _cfg; }
    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t bytesRead() const { return _bytesRead; }
    std::uint64_t bytesWritten() const { return _bytesWritten; }
    /** Statistics group; current after refreshStats(). */
    stats::Group &stats() { return _stats; }
    /** Mirror the plain counters into stats() (dump time). */
    void refreshStats();

    /** Forget all channel busy state (between independent phases). */
    void reset();

  private:
    MemoryConfig _cfg;
    double _bytesPerCyclePerChannel;
    /** Busy time of one channel for a full interleave stripe. */
    double _stripeBusy;
    /** Interleave and channel count are both powers of two. */
    bool _pow2;
    /** log2(interleaveBytes) when _pow2. */
    unsigned _interleaveShift = 0;
    /** Fractional busy-until times avoid per-chunk rounding loss. */
    std::vector<double> _channelFree;
    std::uint64_t _accesses = 0;
    std::uint64_t _bytesRead = 0;
    std::uint64_t _bytesWritten = 0;
    stats::Group _stats;
};

} // namespace neummu

#endif // NEUMMU_MEM_MEMORY_MODEL_HH
