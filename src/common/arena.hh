/**
 * @file
 * ArenaQueue<T>: a FIFO over one contiguous buffer with head
 * compaction, replacing std::deque for request wait queues (a serving
 * slot's queue is filled and emptied millions of times per run). The
 * buffer is retained across empty/refill cycles, and the consumed
 * prefix is compacted away only when it dominates the buffer, so
 * pushes and pops are plain vector operations with no steady-state
 * allocation.
 */

#ifndef NEUMMU_COMMON_ARENA_HH
#define NEUMMU_COMMON_ARENA_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace neummu {

/**
 * FIFO queue over one contiguous retained buffer. Pops advance a
 * head index instead of shifting elements; the consumed prefix is
 * reclaimed when the queue empties (free -- the buffer just resets)
 * or compacted away once it exceeds both a fixed floor and the live
 * element count, keeping memory bounded under permanent backlog.
 */
template <typename T>
class ArenaQueue
{
  public:
    bool empty() const { return _head == _buf.size(); }
    std::size_t size() const { return _buf.size() - _head; }

    void
    push_back(T v)
    {
        _buf.push_back(std::move(v));
    }

    T &front() { return _buf[_head]; }
    const T &front() const { return _buf[_head]; }

    void
    pop_front()
    {
        NEUMMU_ASSERT(!empty(), "pop from empty queue");
        _head++;
        if (_head == _buf.size()) {
            _buf.clear();
            _head = 0;
        } else if (_head > compactFloor && _head > _buf.size() / 2) {
            _buf.erase(_buf.begin(),
                       _buf.begin() + std::ptrdiff_t(_head));
            _head = 0;
        }
    }

    void
    clear()
    {
        _buf.clear();
        _head = 0;
    }

  private:
    /** Don't bother compacting tiny consumed prefixes. */
    static constexpr std::size_t compactFloor = 64;

    std::vector<T> _buf;
    std::size_t _head = 0;
};

} // namespace neummu

#endif // NEUMMU_COMMON_ARENA_HH
