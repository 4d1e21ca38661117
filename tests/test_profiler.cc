/**
 * @file
 * Unit tests for the SimProfiler scope machinery: nesting and
 * re-entrancy (self-time attribution, the (parent, child) pair
 * matrix), the LIFO-unwind assertion (death test), merge semantics,
 * the flamegraph-compatible collapsed-stack dump, and the router
 * scopes of a profiled sharded System.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/profiler.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/** Open scope @p sub on @p prof (caller closes in LIFO order). */
struct Opened
{
    Opened(SimProfiler *prof, ProfSubsystem sub) : scope(prof, sub)
    {
        scope.enter();
    }
    ~Opened() { scope.leave(); }
    SimProfiler::Scope scope;
};

} // namespace

TEST(SimProfiler, CountsScopesPerSubsystem)
{
    SimProfiler prof;
    for (int i = 0; i < 3; i++)
        Opened scope(&prof, ProfSubsystem::Kernel);
    { Opened scope(&prof, ProfSubsystem::Memory); }
    EXPECT_EQ(prof.slot(ProfSubsystem::Kernel).count, 3u);
    EXPECT_EQ(prof.slot(ProfSubsystem::Memory).count, 1u);
    EXPECT_EQ(prof.slot(ProfSubsystem::Paging).count, 0u);
}

TEST(SimProfiler, NestedScopesAttributeDirectParentPairs)
{
    SimProfiler prof;
    {
        Opened outer(&prof, ProfSubsystem::Kernel);
        {
            Opened mid(&prof, ProfSubsystem::DmaIssue);
            Opened inner(&prof, ProfSubsystem::MmuTranslate);
        }
        Opened sibling(&prof, ProfSubsystem::Memory);
    }
    // Top-level scope hangs off the root.
    EXPECT_EQ(prof.pair(SimProfiler::rootSlot,
                        ProfSubsystem::Kernel)
                  .count,
              1u);
    // Children attribute to their DIRECT parent only.
    EXPECT_EQ(
        prof.pair(unsigned(ProfSubsystem::Kernel),
                  ProfSubsystem::DmaIssue)
            .count,
        1u);
    EXPECT_EQ(
        prof.pair(unsigned(ProfSubsystem::DmaIssue),
                  ProfSubsystem::MmuTranslate)
            .count,
        1u);
    EXPECT_EQ(
        prof.pair(unsigned(ProfSubsystem::Kernel),
                  ProfSubsystem::Memory)
            .count,
        1u);
    // The grandchild never lands on the grandparent's row.
    EXPECT_EQ(
        prof.pair(unsigned(ProfSubsystem::Kernel),
                  ProfSubsystem::MmuTranslate)
            .count,
        0u);
    EXPECT_EQ(prof.pair(SimProfiler::rootSlot,
                        ProfSubsystem::MmuTranslate)
                  .count,
              0u);
}

TEST(SimProfiler, ReentrantSameSubsystemNesting)
{
    SimProfiler prof;
    {
        Opened outer(&prof, ProfSubsystem::Kernel);
        Opened inner(&prof, ProfSubsystem::Kernel);
    }
    EXPECT_EQ(prof.slot(ProfSubsystem::Kernel).count, 2u);
    EXPECT_EQ(prof.pair(SimProfiler::rootSlot,
                        ProfSubsystem::Kernel)
                  .count,
              1u);
    EXPECT_EQ(prof.pair(unsigned(ProfSubsystem::Kernel),
                        ProfSubsystem::Kernel)
                  .count,
              1u);
}

TEST(SimProfiler, SelfTimeSumsToTotalAcrossNesting)
{
    // The self-time discipline means slot nanos and pair nanos each
    // partition the same measured wall clock: their grand totals
    // agree (the unsigned transient-wrap arithmetic nets out).
    SimProfiler prof;
    {
        Opened a(&prof, ProfSubsystem::Kernel);
        {
            Opened b(&prof, ProfSubsystem::DmaIssue);
            Opened c(&prof, ProfSubsystem::Memory);
        }
    }
    std::uint64_t slot_total = 0;
    for (unsigned i = 0; i < SimProfiler::numSlots; i++)
        slot_total += prof.slot(ProfSubsystem(i)).nanos;
    std::uint64_t pair_total = 0;
    for (unsigned p = 0; p <= SimProfiler::rootSlot; p++)
        for (unsigned c = 0; c < SimProfiler::numSlots; c++)
            pair_total += prof.pair(p, ProfSubsystem(c)).nanos;
    EXPECT_EQ(slot_total, pair_total);
}

TEST(SimProfilerDeathTest, UnbalancedLeaveDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            SimProfiler prof;
            SimProfiler::Scope outer(&prof, ProfSubsystem::Kernel);
            outer.enter();
            SimProfiler::Scope inner(&prof, ProfSubsystem::Memory);
            inner.enter();
            // Leaving the outer scope while the inner one is still
            // current is the dropped/reordered-unwind bug the LIFO
            // assertion exists to catch.
            outer.leave();
        },
        "profiler scopes must unwind LIFO");
}

TEST(SimProfiler, NullProfilerScopesAreNoOps)
{
    SimProfiler::Scope scope(nullptr, ProfSubsystem::Kernel);
    scope.enter();
    scope.leave();
    // Nothing to assert beyond "did not crash": the null profiler is
    // the tracing-off hot path.
}

TEST(SimProfiler, MergeSumsSlotsAndPairs)
{
    SimProfiler a;
    {
        Opened outer(&a, ProfSubsystem::Kernel);
        Opened inner(&a, ProfSubsystem::Memory);
    }
    SimProfiler b;
    {
        Opened outer(&b, ProfSubsystem::Kernel);
        Opened inner(&b, ProfSubsystem::Memory);
    }
    a.merge(b);
    EXPECT_EQ(a.slot(ProfSubsystem::Kernel).count, 2u);
    EXPECT_EQ(a.slot(ProfSubsystem::Memory).count, 2u);
    EXPECT_EQ(a.pair(unsigned(ProfSubsystem::Kernel),
                     ProfSubsystem::Memory)
                  .count,
              2u);
    EXPECT_EQ(
        a.pair(SimProfiler::rootSlot, ProfSubsystem::Kernel).count,
        2u);
}

TEST(SimProfiler, CollapsedStacksNameEveryNonzeroPair)
{
    SimProfiler prof;
    {
        Opened outer(&prof, ProfSubsystem::Kernel);
        Opened inner(&prof, ProfSubsystem::DmaIssue);
    }
    const std::string stacks = prof.collapsed();
    EXPECT_NE(stacks.find("neummu;kernel;dmaIssue "),
              std::string::npos);
    EXPECT_NE(stacks.find("neummu;kernel "), std::string::npos);
    // No phantom frames for pairs that never ran.
    EXPECT_EQ(stacks.find("paging"), std::string::npos);
    // Every line is "stack value\n": ends with a digit before the
    // newline and contains exactly one space.
    std::size_t start = 0;
    while (start < stacks.size()) {
        const std::size_t nl = stacks.find('\n', start);
        ASSERT_NE(nl, std::string::npos);
        const std::string line = stacks.substr(start, nl - start);
        const std::size_t space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.find(' ', space + 1), std::string::npos)
            << line;
        EXPECT_EQ(line.rfind("neummu;", 0), 0u) << line;
        start = nl + 1;
    }
}

TEST(SimProfiler, ResetClearsPairs)
{
    SimProfiler prof;
    { Opened scope(&prof, ProfSubsystem::Kernel); }
    prof.reset();
    EXPECT_EQ(prof.slot(ProfSubsystem::Kernel).count, 0u);
    EXPECT_EQ(
        prof.pair(SimProfiler::rootSlot, ProfSubsystem::Kernel).count,
        0u);
    EXPECT_TRUE(prof.collapsed().empty());
}

TEST(SimProfiler, SubsystemNamesAreDistinct)
{
    std::set<std::string> names;
    for (unsigned i = 0; i < SimProfiler::numSlots; i++)
        names.insert(profSubsystemName(ProfSubsystem(i)));
    EXPECT_EQ(names.size(), std::size_t(SimProfiler::numSlots));
    EXPECT_EQ(std::string(profSubsystemName(ProfSubsystem::Router)),
              "router");
}

TEST(SimProfiler, RouterScopesCoverArbitrationAndHubBridges)
{
    // Two sharded NPUs on one baseline IOMMU: requests cross the hub
    // bridges into the router, and walk completions wake them.
    SystemConfig cfg;
    cfg.numNpus = 2;
    cfg.mmuKind = MmuKind::BaselineIommu;
    cfg.sim.shards = 1;
    cfg.sim.profile = true;
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.add(makeWorkloadFromSpec(
        "synthetic:pattern=uniform,footprint=1M,accesses=256"));
    scheduler.add(makeWorkloadFromSpec(
        "synthetic:pattern=stride,footprint=1M,accesses=256"));
    ASSERT_TRUE(scheduler.run().allDone);

    const SimProfiler prof = system.mergedProfile();
    const unsigned router = unsigned(ProfSubsystem::Router);
    // Bridge ingress runs straight from the queue's dispatch...
    EXPECT_GT(prof.pair(unsigned(ProfSubsystem::Kernel),
                        ProfSubsystem::Router)
                  .count,
              0u);
    // ...and encloses the router's own arbitration and the engine.
    EXPECT_GT(prof.pair(router, ProfSubsystem::Router).count, 0u);
    EXPECT_GT(prof.pair(router, ProfSubsystem::MmuTranslate).count, 0u);
    // Walk completions wake the router from inside the walker.
    EXPECT_GT(prof.pair(unsigned(ProfSubsystem::MmuWalk),
                        ProfSubsystem::Router)
                  .count,
              0u);
    EXPECT_NE(prof.collapsed().find("neummu;mmuWalk;router "),
              std::string::npos) << prof.collapsed();
}
