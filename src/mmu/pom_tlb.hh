/**
 * @file
 * Part-of-memory TLB (after Ryoo et al., ISCA 2017): a very large
 * set-associative TLB level that LIVES IN DRAM under a small on-chip
 * L1 TLB. An L1 miss issues a timed MemoryModel read of the POM set
 * (one line per set); a POM hit fills the L1 and responds, a POM miss
 * pays the full radix walk and then installs the translation into the
 * POM set with a timed write.
 *
 * The design trades per-miss DRAM latency for a reach of tens of
 * thousands of entries -- big embedding gathers that thrash a 2K-entry
 * IOTLB sit comfortably in the POM level. The backing DRAM is modeled
 * by a design-owned MemoryModel so lookup/install traffic is
 * bandwidth-constrained and contends with itself.
 */

#ifndef NEUMMU_MMU_POM_TLB_HH
#define NEUMMU_MMU_POM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "mem/memory_model.hh"
#include "mmu/mmu_engine.hh"
#include "tlb/tlb.hh"

namespace neummu {

/** POM-TLB design knobs (ConfigBinder group mmu.pom.*). */
struct PomTlbConfig
{
    /** Small on-chip L1 TLB in front of the in-memory level. */
    TlbConfig l1{256, 0, 2};
    /** In-memory TLB entries (reach of the POM level). */
    std::size_t entries = 65536;
    /** Set associativity of the in-memory level. */
    std::size_t ways = 4;
    /** Concurrent miss-handling registers (outstanding L1 misses). */
    unsigned numWalkers = 16;
    /** Cycles per radix level on the POM-miss walk path. */
    Tick walkLatencyPerLevel = 100;
    /** DRAM the POM table lives in (its own channels/latency). */
    MemoryConfig mem{};
};

class PomTlb : public MmuEngine
{
  public:
    PomTlb(std::string name, EventQueue &eq, PageTable &pt,
           unsigned page_shift, PomTlbConfig cfg);

    bool translate(Addr va, std::uint64_t id) override;
    unsigned walkerBudget() const override { return _cfg.numWalkers; }

    /** Adds the in-DRAM table's line traffic (set reads on every L1
     *  miss plus fill writes), which walkMemAccesses does not cover,
     *  on top of the shared counts() pricing. */
    double translationEnergyNj() const override
    {
        const EnergyModel e{};
        return e.translationEnergyNj(counts()) +
               e.dramAccessNj * double(_pomLookups + _pomInstalls);
    }

    const PomTlbConfig &config() const { return _cfg; }
    /** Live in-memory entries (tests/diagnostics). */
    std::size_t pomSize() const { return _pomSize; }

  protected:
    void dropCached(Addr va, const UnmapResult &unmapped) override;
    void refreshDesignStats() override;

  private:
    struct PomEntry
    {
        Addr vpn = invalidAddr;
        Addr pfn = invalidAddr;
        std::uint64_t lastUse = 0;
    };

    void finishPomLookup(Addr va, std::uint64_t id);
    void finishWalk(Addr va, std::uint64_t id);
    void finish(Addr va, std::uint64_t id, Addr pa, Tick when);
    std::size_t setOf(Addr vpn) const { return vpn % _numSets; }
    Addr setAddr(Addr vpn) const;

    PomTlbConfig _cfg;
    Tlb _l1;
    MemoryModel _mem;
    std::size_t _numSets;
    /** The in-memory table's functional content, _numSets x ways. */
    std::vector<PomEntry> _pom;
    std::size_t _pomSize = 0;
    std::uint64_t _useTick = 0;

    std::uint64_t _pomLookups = 0;
    std::uint64_t _pomHits = 0;
    std::uint64_t _pomMisses = 0;
    std::uint64_t _pomInstalls = 0;
    std::uint64_t _pomEvictions = 0;
    std::uint64_t _pomInvalidates = 0;
};

} // namespace neummu

#endif // NEUMMU_MMU_POM_TLB_HH
