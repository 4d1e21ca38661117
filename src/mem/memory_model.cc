#include "mem/memory_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace neummu {

MemoryModel::MemoryModel(std::string name, MemoryConfig cfg)
    : _cfg(cfg), _stats(std::move(name)),
      _sAccesses(_stats.scalar("accesses")),
      _sBytesRead(_stats.scalar("bytesRead")),
      _sBytesWritten(_stats.scalar("bytesWritten"))
{
    NEUMMU_ASSERT(cfg.channels > 0, "memory needs at least one channel");
    NEUMMU_ASSERT(cfg.interleaveBytes > 0,
                  "memory interleave must be > 0 bytes");
    NEUMMU_ASSERT(cfg.bytesPerCycle > 0.0, "memory bandwidth must be > 0");
    _bytesPerCyclePerChannel = cfg.bytesPerCycle / double(cfg.channels);
    _stripeBusy = double(cfg.interleaveBytes) / _bytesPerCyclePerChannel;
    const auto pow2 = [](unsigned v) { return (v & (v - 1)) == 0; };
    _pow2 = pow2(cfg.interleaveBytes) && pow2(cfg.channels);
    while (_pow2 && (1u << _interleaveShift) < cfg.interleaveBytes)
        _interleaveShift++;
    _channelFree.assign(cfg.channels, 0.0);
}

Tick
MemoryModel::access(Tick now, Addr pa, std::uint64_t bytes, bool is_write)
{
    NEUMMU_ASSERT(bytes > 0, "zero-byte memory access");

    (is_write ? _sBytesWritten : _sBytesRead) += double(bytes);
    ++_sAccesses;

    // The first chunk runs from pa to the end of its stripe; every
    // later one starts a stripe on the next channel round-robin.
    const std::uint64_t stripe = _cfg.interleaveBytes;
    std::uint64_t offset;
    unsigned ch;
    if (_pow2) {
        offset = pa & (stripe - 1);
        ch = unsigned(pa >> _interleaveShift) & (_cfg.channels - 1);
    } else {
        offset = pa % stripe;
        ch = unsigned((pa / stripe) % _cfg.channels);
    }

    Tick last_done = now;
    std::uint64_t remaining = bytes;
    std::uint64_t chunk = std::min(remaining, stripe - offset);
    for (;;) {
        const double busy = chunk == stripe
                                ? _stripeBusy
                                : double(chunk) / _bytesPerCyclePerChannel;
        const double done = std::max(double(now), _channelFree[ch]) + busy;
        _channelFree[ch] = done;
        last_done =
            std::max(last_done, Tick(done + 0.999999) + _cfg.accessLatency);

        remaining -= chunk;
        if (remaining == 0)
            return last_done;
        if (++ch == _cfg.channels)
            ch = 0;
        chunk = std::min(remaining, stripe);
    }
}

Tick
MemoryModel::earliestFree() const
{
    return Tick(
        *std::min_element(_channelFree.begin(), _channelFree.end()));
}

void
MemoryModel::reset()
{
    std::fill(_channelFree.begin(), _channelFree.end(), 0.0);
}

} // namespace neummu
