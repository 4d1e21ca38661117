/**
 * @file
 * Unit tests for the memory model and interconnect links.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/units.hh"
#include "mem/interconnect.hh"
#include "mem/memory_model.hh"

using namespace neummu;

namespace {

MemoryConfig
tableOneMemory()
{
    return MemoryConfig{}; // defaults follow Table I
}

/**
 * Reference for MemoryModel::access: the plain per-chunk loop that
 * divides for every chunk's stripe and channel.
 */
class ReferenceMemory
{
  public:
    explicit ReferenceMemory(MemoryConfig cfg)
        : _cfg(cfg),
          _bytesPerCyclePerChannel(cfg.bytesPerCycle / double(cfg.channels)),
          _channelFree(cfg.channels, 0.0)
    {
    }

    Tick
    access(Tick now, Addr pa, std::uint64_t bytes, bool is_write)
    {
        (is_write ? bytesWritten : bytesRead) += double(bytes);
        accesses += 1.0;

        Tick last_done = now;
        Addr cursor = pa;
        std::uint64_t remaining = bytes;
        while (remaining > 0) {
            const Addr chunk_end =
                (cursor / _cfg.interleaveBytes + 1) * _cfg.interleaveBytes;
            const std::uint64_t chunk =
                std::min<std::uint64_t>(remaining, chunk_end - cursor);
            const unsigned ch =
                unsigned((cursor / _cfg.interleaveBytes) % _cfg.channels);

            const double start = std::max(double(now), _channelFree[ch]);
            const double busy = double(chunk) / _bytesPerCyclePerChannel;
            _channelFree[ch] = start + busy;
            last_done = std::max(
                last_done,
                Tick(start + busy + 0.999999) + _cfg.accessLatency);

            cursor += chunk;
            remaining -= chunk;
        }
        return last_done;
    }

    Tick
    earliestFree() const
    {
        return Tick(
            *std::min_element(_channelFree.begin(), _channelFree.end()));
    }

    double bytesRead = 0.0;
    double bytesWritten = 0.0;
    double accesses = 0.0;

  private:
    MemoryConfig _cfg;
    double _bytesPerCyclePerChannel;
    std::vector<double> _channelFree;
};

} // namespace

TEST(MemoryModel, TableOneDefaults)
{
    MemoryModel mem("m", tableOneMemory());
    EXPECT_EQ(mem.config().channels, 8u);
    EXPECT_DOUBLE_EQ(mem.config().bytesPerCycle, 600.0);
    EXPECT_EQ(mem.config().accessLatency, 100u);
}

TEST(MemoryModel, SingleSmallAccessPaysLatency)
{
    MemoryModel mem("m", tableOneMemory());
    // 64 B on one channel: 1 busy cycle + 100 cycles latency.
    const Tick done = mem.access(0, 0, 64, false);
    EXPECT_EQ(done, 101u);
}

TEST(MemoryModel, LargeAccessIsBandwidthBound)
{
    MemoryModel mem("m", tableOneMemory());
    // 6 MB at 600 B/cycle aggregate: ~10486 cycles + latency.
    const Tick done = mem.access(0, 0, 6 * MiB, false);
    const double ideal = double(6 * MiB) / 600.0;
    EXPECT_GT(done, Tick(ideal));
    EXPECT_LT(done, Tick(ideal * 1.1) + 200);
}

TEST(MemoryModel, BackToBackAccessesSerializeOnAChannel)
{
    MemoryConfig cfg;
    cfg.channels = 1;
    cfg.bytesPerCycle = 64.0;
    cfg.accessLatency = 10;
    MemoryModel mem("m", cfg);
    const Tick first = mem.access(0, 0, 640, false);  // 10 busy + 10
    const Tick second = mem.access(0, 0, 640, false); // queued behind
    EXPECT_EQ(first, 20u);
    EXPECT_EQ(second, 30u);
}

TEST(MemoryModel, ChannelsInterleaveByAddress)
{
    MemoryConfig cfg;
    cfg.channels = 2;
    cfg.bytesPerCycle = 2.0; // 1 B/cycle/channel
    cfg.accessLatency = 0;
    cfg.interleaveBytes = 256;
    MemoryModel mem("m", cfg);
    // Two 256 B accesses to different channels overlap fully...
    const Tick a = mem.access(0, 0, 256, false);
    const Tick b = mem.access(0, 256, 256, false);
    EXPECT_EQ(a, 256u);
    EXPECT_EQ(b, 256u);
    // ...while a third to channel 0 queues.
    const Tick c = mem.access(0, 512, 256, false);
    EXPECT_EQ(c, 512u);
}

TEST(MemoryModel, AccessSpanningChannelsUsesBoth)
{
    MemoryConfig cfg;
    cfg.channels = 2;
    cfg.bytesPerCycle = 2.0;
    cfg.accessLatency = 0;
    cfg.interleaveBytes = 256;
    MemoryModel mem("m", cfg);
    // 512 B spanning both channels: each serves 256 B in parallel.
    const Tick done = mem.access(0, 0, 512, false);
    EXPECT_EQ(done, 256u);
}

TEST(MemoryModel, TracksByteStats)
{
    MemoryModel mem("m", tableOneMemory());
    mem.access(0, 0, 1000, false);
    mem.access(0, 4096, 500, true);
    EXPECT_DOUBLE_EQ(mem.stats().scalar("bytesRead").value(), 1000.0);
    EXPECT_DOUBLE_EQ(mem.stats().scalar("bytesWritten").value(), 500.0);
    EXPECT_DOUBLE_EQ(mem.stats().scalar("accesses").value(), 2.0);
}

TEST(MemoryModel, ResetClearsChannelState)
{
    MemoryModel mem("m", tableOneMemory());
    mem.access(0, 0, 1 * MiB, false);
    EXPECT_GT(mem.earliestFree(), 0u);
    mem.reset();
    EXPECT_EQ(mem.earliestFree(), 0u);
}

TEST(MemoryModel, MatchesThePerChunkReferenceOnAnyGeometry)
{
    // Power-of-two geometries take the shift-and-mask path, the rest
    // the dividing one; both step chunks round-robin from the first.
    // Unaligned starts, partial last chunks and accesses longer than
    // one round of channels, at several bandwidths.
    std::mt19937_64 rng(20241018);
    for (const unsigned channels : {1u, 3u, 8u}) {
        for (const unsigned interleave : {64u, 256u, 384u}) {
            for (const double bw : {600.0, 37.5, 7.0}) {
                MemoryConfig cfg;
                cfg.channels = channels;
                cfg.interleaveBytes = interleave;
                cfg.bytesPerCycle = bw;
                cfg.accessLatency = 100;
                MemoryModel mem("m", cfg);
                ReferenceMemory ref(cfg);
                const std::uint64_t round =
                    std::uint64_t(channels) * interleave;
                std::uniform_int_distribution<std::uint64_t> bytes_of(
                    1, 3 * round + interleave);
                std::uniform_int_distribution<Addr> pa_of(0,
                                                          Addr(1) << 34);
                std::uniform_int_distribution<Tick> step_of(0, 40);
                Tick now = 0;
                for (int i = 0; i < 2000; i++) {
                    now += step_of(rng);
                    const Addr pa = pa_of(rng);
                    const std::uint64_t bytes = bytes_of(rng);
                    const bool is_write = (rng() & 1) != 0;
                    ASSERT_EQ(mem.access(now, pa, bytes, is_write),
                              ref.access(now, pa, bytes, is_write))
                        << channels << " channels x " << interleave
                        << " B at " << bw << " B/cycle, access " << i
                        << ": " << bytes << " B at pa " << pa;
                    ASSERT_EQ(mem.earliestFree(), ref.earliestFree());
                }
                EXPECT_EQ(mem.stats().scalar("bytesRead").value(),
                          ref.bytesRead);
                EXPECT_EQ(mem.stats().scalar("bytesWritten").value(),
                          ref.bytesWritten);
                EXPECT_EQ(mem.stats().scalar("accesses").value(),
                          ref.accesses);
            }
        }
    }
}

TEST(MemoryModelDeath, ZeroBytesPanics)
{
    MemoryModel mem("m", tableOneMemory());
    EXPECT_DEATH(mem.access(0, 0, 0, false), "zero-byte");
}

TEST(MemoryModelDeath, ZeroInterleavePanics)
{
    MemoryConfig cfg;
    cfg.interleaveBytes = 0;
    EXPECT_DEATH(MemoryModel("m", cfg), "interleave");
}

TEST(Link, TableOneConfigs)
{
    EXPECT_DOUBLE_EQ(pcieLinkConfig().bytesPerCycle, 16.0);
    EXPECT_DOUBLE_EQ(npuLinkConfig().bytesPerCycle, 160.0);
    EXPECT_EQ(pcieLinkConfig().latency, 150u);
}

TEST(Link, TransferPaysSerializationPlusLatency)
{
    Link link("l", LinkConfig{16.0, 150});
    // 1600 B at 16 B/cycle = 100 cycles + 150 latency.
    EXPECT_EQ(link.transfer(0, 1600), 250u);
}

TEST(Link, TransfersQueueBehindEachOther)
{
    Link link("l", LinkConfig{16.0, 150});
    const Tick a = link.transfer(0, 1600);
    const Tick b = link.transfer(0, 1600);
    EXPECT_EQ(a, 250u);
    EXPECT_EQ(b, 350u); // starts at 100, +100 busy, +150 latency
}

TEST(Link, AccessPaysRoundTrip)
{
    Link link("l", LinkConfig{16.0, 150});
    // 16 B access: 1 busy cycle + 2x150 round trip.
    EXPECT_EQ(link.access(0, 16), 301u);
}

TEST(Link, ResetClearsBusyState)
{
    Link link("l", LinkConfig{16.0, 150});
    link.transfer(0, 16000);
    EXPECT_GT(link.freeAt(), 0u);
    link.reset();
    EXPECT_EQ(link.freeAt(), 0u);
}
