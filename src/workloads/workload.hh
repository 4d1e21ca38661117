/**
 * @file
 * The pluggable traffic-source interface of the driver layer. A
 * Workload binds to one NPU slot of a System, emits its DMA /
 * translation traffic through that slot's tile-pipeline / DMA
 * machinery purely event-driven (it never drains the event queue
 * itself), reports done-ness through a completion callback, and
 * registers its counters in the System's StatsRegistry.
 *
 * Concrete sources: DenseDnnWorkload (tiled DNN layer streams,
 * Secs. III-IV/VI), EmbeddingWorkload (recommender gathers, Sec. V),
 * SyntheticWorkload (parameterized VA streams), TraceWorkload
 * (recorded-trace replay). The Scheduler in src/system/ places N of
 * them onto a System's NPUs and runs them concurrently.
 */

#ifndef NEUMMU_WORKLOADS_WORKLOAD_HH
#define NEUMMU_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"

namespace neummu {

class EventQueue;
class System;

/**
 * Abstract traffic source. Lifecycle: construct -> bind(system, npu)
 * -> start(done) -> (event-driven progress) -> done. bind() may
 * allocate virtual memory, install hooks, and register stats; start()
 * schedules the first traffic but never blocks; completion is
 * signalled by the callback at the finishing tick.
 *
 * A workload owns its NPU slot exclusively for the duration of the
 * run: no two workloads may bind to the same slot of one System.
 */
class Workload
{
  public:
    using DoneCallback = std::function<void(Tick)>;

    explicit Workload(std::string name) : _name(std::move(name)) {}
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    const std::string &name() const { return _name; }

    /**
     * Bind to @p system's NPU slot @p npu: allocate VA segments,
     * install hooks, register the workload stats group. Happens at
     * simulated time 0, before any start(). Call exactly once.
     */
    void bind(System &system, unsigned npu);

    /**
     * Begin emitting traffic on the bound slot. @p done fires once,
     * at the tick the workload finished. @pre bound, not started.
     */
    void start(DoneCallback done);

    bool bound() const { return _system != nullptr; }
    bool started() const { return _started; }
    bool done() const { return _finished; }
    /** Tick the workload completed. @pre done() */
    Tick finishTick() const { return _finishTick; }

    /** Bound machine. @pre bound() */
    System &system() const;
    /** Bound NPU slot. @pre bound() */
    unsigned npuSlot() const { return _npu; }

    /**
     * Registry-owned stats group of this workload, named
     * "<system>.wl<slot>.<name>". Populated by finish() with
     * finishTick/runCycles/translations/bytes; implementations add
     * their own counters. @pre bound()
     */
    stats::Group &stats() const;

    /**
     * This workload's deterministic Rng seed: derived from the
     * SystemConfig seed, the slot, and the workload name, so
     * multi-tenant runs reproduce bit-exactly regardless of
     * scheduling order. @pre bound()
     */
    std::uint64_t derivedSeed() const;

    /**
     * Translations this workload has issued since start(). Defaults
     * to the bound slot's DMA-engine delta; sources that drive the
     * translation port directly (trace replay) override.
     * @pre started()
     */
    virtual std::uint64_t translationsIssued() const;

    /** Bytes fetched since start(); same default/override contract. */
    virtual std::uint64_t bytesFetched() const;

  protected:
    /** Allocate VA / install hooks / add stats for the bound slot. */
    virtual void onBind() = 0;
    /** Schedule the first traffic (must not drain the event queue). */
    virtual void onStart() = 0;

    /** The System's event queue. @pre bound() */
    EventQueue &eventQueue() const;
    /** The current tick (safe inside handlers). */
    Tick now() const;

    /**
     * Mark the workload finished at @p at, record the standard
     * per-workload stats, and fire the completion callback.
     * Implementations call this exactly once.
     */
    void finish(Tick at);

  private:
    std::string _name;
    System *_system = nullptr;
    unsigned _npu = 0;
    bool _started = false;
    bool _finished = false;
    Tick _startTick = 0;
    Tick _finishTick = 0;
    std::uint64_t _translationsAtStart = 0;
    std::uint64_t _bytesAtStart = 0;
    DoneCallback _done;
};

} // namespace neummu

#endif // NEUMMU_WORKLOADS_WORKLOAD_HH
