/**
 * @file
 * Full-service translation-engine interface: what a System needs from
 * its MMU beyond the raw TranslationEngine issue/response surface.
 *
 * TranslationEngine is the DMA-facing port (translate/respond/wake);
 * MmuEngine adds the system-facing lifecycle surface every pluggable
 * design must provide -- demand-fault handling, shootdown coherence,
 * busy-page queries for the paging engine, stats mirroring -- so the
 * paging/serving machinery works against any design the
 * translation factory can build (see translation_factory.hh).
 */

#ifndef NEUMMU_MMU_MMU_ENGINE_HH
#define NEUMMU_MMU_MMU_ENGINE_HH

#include <functional>

#include "common/stats.hh"
#include "common/types.hh"
#include "mmu/energy_model.hh"
#include "mmu/translation.hh"
#include "vm/page_table.hh"

namespace neummu {

class MmuCore;

namespace trace {
class TraceBuffer;
}

/**
 * Abstract MMU design point. Every design the factory registers
 * (walker-core Oracle/IOMMU/NeuMMU, RangeMMU, POM-TLB, NMT, ...)
 * implements this surface, so System, PagingEngine, and ServingEngine
 * are design-agnostic.
 */
class MmuEngine : public TranslationEngine
{
  public:
    /**
     * Demand-paging hook: invoked when a translation reaches an
     * unmapped page. The handler must install a mapping immediately
     * (so a re-walk succeeds) and return the tick at which the page
     * data is actually resident.
     */
    using FaultHandler = std::function<Tick(Addr va, Tick now)>;

    /**
     * Observation hook for the page-lifecycle machinery: fired for
     * every translation request (hit or miss), so the paging engine
     * can maintain access recency for its eviction policy.
     */
    using AccessHook = std::function<void(Addr va)>;

    /** Install the demand-paging handler (optional). */
    virtual void setFaultHandler(FaultHandler handler) = 0;

    /**
     * Turn on the lifecycle bookkeeping the paging engine needs:
     * per-VPN tracking of scheduled-but-undelivered responses (so
     * vpnBusy() covers the response-delivery window) and the access
     * hook. Off by default.
     */
    virtual void enableLifecycle() = 0;
    virtual void setAccessHook(AccessHook hook) = 0;

    /**
     * Shootdown for the page containing @p va after (or during) an
     * unmap/migration described by @p unmapped: the design must drop
     * every cached translation covering the page and make sure no
     * in-flight work delivers a stale PA.
     */
    virtual void shootdown(Addr va, const UnmapResult &unmapped) = 0;

    /**
     * True while any translation activity on @p vpn is in flight: a
     * lookup/walk, or -- with lifecycle enabled -- a scheduled
     * response not yet delivered. The paging engine refuses to evict
     * busy pages.
     */
    virtual bool vpnBusy(Addr vpn) const = 0;

    /** The design's stats group (registered by System). */
    virtual stats::Group &stats() = 0;

    /** Mirror live counters into the stats group before a dump. */
    virtual void refreshStats() = 0;

    /**
     * Concurrent-lookup capacity the TranslationRouter partitions
     * across NPUs (walkers, miss registers, or near-memory units --
     * whatever bounds the design's outstanding misses).
     */
    virtual unsigned walkerBudget() const = 0;

    /**
     * Attach a lifecycle trace buffer (System wiring). Default no-op
     * so designs without span instrumentation compile unchanged; the
     * buffer must be the hub lane's (the engine runs hub-side).
     */
    virtual void setTraceBuffer(trace::TraceBuffer *buf) { (void)buf; }

    /**
     * Total translation energy in nanojoules under the shared
     * EnergyModel constants. The default prices counts(), which every
     * design maintains; designs whose dominant structures fall outside
     * MmuCounts (range CAMs, DRAM TLBs, near-memory units) override
     * with structure-specific accounting.
     */
    virtual double translationEnergyNj() const
    {
        return EnergyModel{}.translationEnergyNj(counts());
    }

    /** Walker-core downcast for drivers that read core-only stats
     *  (TPreg match rates, shared path caches); null otherwise. */
    virtual MmuCore *asMmuCore() { return nullptr; }
};

} // namespace neummu

#endif // NEUMMU_MMU_MMU_ENGINE_HH
