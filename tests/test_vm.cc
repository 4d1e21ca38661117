/**
 * @file
 * Unit tests for the virtual-memory substrate: frame allocator,
 * x86-64 radix page table, and the segment-based address space.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

using namespace neummu;

namespace {

constexpr Addr nodeBase = Addr(1) << 40;

} // namespace

TEST(FrameAllocator, AllocatesAlignedFrames)
{
    FrameAllocator alloc("node", nodeBase, 1 * GiB);
    const Addr a = alloc.allocate(4096, 4096);
    const Addr b = alloc.allocate(4096, 4096);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b, a + 4096);
    EXPECT_EQ(alloc.used(), 8192u);
}

TEST(FrameAllocator, RespectsLargeAlignment)
{
    FrameAllocator alloc("node", nodeBase, 1 * GiB);
    alloc.allocate(4096, 4096);
    const Addr big = alloc.allocate(2 * MiB, 2 * MiB);
    EXPECT_EQ(big % (2 * MiB), 0u);
}

TEST(FrameAllocator, OwnershipAndCapacity)
{
    FrameAllocator alloc("node", nodeBase, 1 * MiB);
    EXPECT_TRUE(alloc.owns(nodeBase));
    EXPECT_TRUE(alloc.owns(nodeBase + 1 * MiB - 1));
    EXPECT_FALSE(alloc.owns(nodeBase + 1 * MiB));
    EXPECT_FALSE(alloc.owns(0));
    EXPECT_TRUE(alloc.wouldFit(1 * MiB, 4096));
    alloc.allocate(512 * KiB, 4096);
    EXPECT_FALSE(alloc.wouldFit(1 * MiB, 4096));
    EXPECT_EQ(alloc.remaining(), 512 * KiB);
}

TEST(FrameAllocatorDeath, OversubscriptionIsFatal)
{
    FrameAllocator alloc("node", nodeBase, 64 * KiB);
    // An MMU-less NPU whose working set exceeds physical memory
    // crashes (Section I); the allocator models that with fatal().
    EXPECT_DEATH(
        {
            FrameAllocator inner("node", nodeBase, 64 * KiB);
            inner.allocate(128 * KiB, 4096);
        },
        "out of physical memory");
}

TEST(FrameAllocator, TryAllocateFailsNonFatally)
{
    FrameAllocator alloc("node", nodeBase, 64 * KiB);
    Addr a = invalidAddr;
    EXPECT_TRUE(alloc.tryAllocate(64 * KiB, 4096, a));
    Addr b = invalidAddr;
    EXPECT_FALSE(alloc.tryAllocate(4096, 4096, b));
    EXPECT_FALSE(alloc.wouldFit(4096, 4096));
}

TEST(FrameAllocator, FreedFramesAreRecycled)
{
    FrameAllocator alloc("node", nodeBase, 64 * KiB);
    const Addr a = alloc.allocate(4096, 4096);
    const Addr b = alloc.allocate(4096, 4096);
    alloc.allocate(56 * KiB, 4096); // node now full
    EXPECT_FALSE(alloc.wouldFit(4096, 4096));

    alloc.free(a, 4096);
    EXPECT_EQ(alloc.freeListBytes(), 4096u);
    EXPECT_EQ(alloc.used(), 60 * KiB);
    EXPECT_TRUE(alloc.wouldFit(4096, 4096));
    // First fit hands the freed frame back.
    EXPECT_EQ(alloc.allocate(4096, 4096), a);
    EXPECT_EQ(alloc.freeListBytes(), 0u);
    (void)b;
}

TEST(FrameAllocator, FreeListCoalescesNeighbors)
{
    FrameAllocator alloc("node", nodeBase, 1 * MiB);
    const Addr a = alloc.allocate(4096, 4096);
    const Addr b = alloc.allocate(4096, 4096);
    const Addr c = alloc.allocate(4096, 4096);
    alloc.allocate(4096, 4096); // plug: keeps the hole interior
    alloc.free(a, 4096);
    alloc.free(c, 4096);
    EXPECT_EQ(alloc.freeListBlocks(), 2u);
    alloc.free(b, 4096); // bridges a and c into one block
    EXPECT_EQ(alloc.freeListBlocks(), 1u);
    EXPECT_EQ(alloc.freeListBytes(), 3 * 4096u);
    // The coalesced block serves a larger aligned request in place.
    EXPECT_EQ(alloc.allocate(8 * KiB, 8 * KiB), a);
}

TEST(FrameAllocator, TrailingFreeReabsorbsIntoBumpCursor)
{
    // Out-of-order release at the allocation frontier: a free range
    // ending exactly at the bump cursor merges back into the bump
    // region, so the union of both serves one big allocation. Before
    // the fix the cursor and the trailing block stayed split and the
    // 8 KiB request below failed despite 8 KiB being free.
    FrameAllocator alloc("node", nodeBase, 16 * KiB);
    const Addr a = alloc.allocate(4096, 4096);
    const Addr b = alloc.allocate(4096, 4096);
    alloc.free(b, 4096); // trailing: reabsorbed, not listed
    EXPECT_EQ(alloc.freeListBlocks(), 0u);
    EXPECT_EQ(alloc.freeListBytes(), 0u);
    EXPECT_EQ(alloc.used(), 4096u);
    Addr big = invalidAddr;
    ASSERT_TRUE(alloc.tryAllocate(12 * KiB, 4096, big));
    EXPECT_EQ(big, b);

    // Freeing the rest reabsorbs transitively through coalescing:
    // the cursor returns to the node base.
    alloc.free(big, 12 * KiB);
    alloc.free(a, 4096);
    EXPECT_EQ(alloc.freeListBlocks(), 0u);
    EXPECT_EQ(alloc.used(), 0u);
    Addr again = invalidAddr;
    ASSERT_TRUE(alloc.tryAllocate(16 * KiB, 4096, again));
    EXPECT_EQ(again, a);
}

TEST(FrameAllocator, SplitLeavesHeadAndTailFree)
{
    FrameAllocator alloc("node", nodeBase, 1 * MiB);
    alloc.allocate(4096, 4096); // offset the hole off node alignment
    const Addr a = alloc.allocate(60 * KiB, 4096);
    alloc.allocate(4096, 4096); // plug so the hole is interior
    alloc.free(a, 60 * KiB);
    // Carve an aligned 4 KiB out of the middle of the hole: the
    // block's start (base + 4 KiB) is not 32 KiB aligned, so the fit
    // splits off both a head and a tail remainder.
    Addr mid = invalidAddr;
    ASSERT_TRUE(alloc.tryAllocate(4096, 32 * KiB, mid));
    EXPECT_EQ(mid % (32 * KiB), 0u);
    EXPECT_GT(mid, a);
    EXPECT_EQ(alloc.freeListBytes(), 60 * KiB - 4096u);
    EXPECT_EQ(alloc.freeListBlocks(), 2u);
}

TEST(FrameAllocator, AlignmentGapsLandOnTheFreeList)
{
    FrameAllocator alloc("node", nodeBase, 1 * MiB);
    alloc.allocate(4096, 4096);
    // The 2 MiB-aligned... (1 MiB node: use 64 KiB alignment) carve
    // leaves the pad below it reusable instead of leaked.
    const Addr big = alloc.allocate(4096, 64 * KiB);
    EXPECT_EQ(big % (64 * KiB), 0u);
    EXPECT_EQ(alloc.freeListBytes(), 64 * KiB - 4096u);
    EXPECT_EQ(alloc.used(), 2 * 4096u);
    // The gap serves later small allocations.
    const Addr small = alloc.allocate(4096, 4096);
    EXPECT_LT(small, big);
}

TEST(FrameAllocator, ChurnWithMixedAlignmentsLeaksNothing)
{
    // Tenant-churn shape: waves of mixed-size, mixed-alignment
    // allocations released out of order (even-indexed first, then
    // odd). Every wave must reconcile exactly -- all bytes back, the
    // free list fully coalesced into the bump region -- or eviction
    // churn in long serving runs would fragment the node until a
    // large tensor no longer fits.
    FrameAllocator alloc("node", nodeBase, 64 * MiB);
    const std::uint64_t sizes[] = {4096, 16 * KiB, 4096, 2 * MiB,
                                   64 * KiB, 4096, 256 * KiB, 8 * KiB};
    const std::uint64_t aligns[] = {4096, 4096, 64 * KiB, 2 * MiB,
                                    4096, 16 * KiB, 4096, 8 * KiB};
    for (unsigned wave = 0; wave < 8; wave++) {
        std::vector<std::pair<Addr, std::uint64_t>> live;
        for (unsigned i = 0; i < 8; i++) {
            const std::uint64_t bytes = sizes[(i + wave) % 8];
            Addr a = invalidAddr;
            ASSERT_TRUE(
                alloc.tryAllocate(bytes, aligns[(i * 3 + wave) % 8],
                                  a));
            live.push_back({a, bytes});
        }
        for (std::size_t i = 0; i < live.size(); i += 2)
            alloc.free(live[i].first, live[i].second);
        for (std::size_t i = 1; i < live.size(); i += 2)
            alloc.free(live[i].first, live[i].second);
        // Full reconciliation: nothing live, nothing stranded.
        EXPECT_EQ(alloc.used(), 0u) << "wave " << wave;
        EXPECT_EQ(alloc.freeListBlocks(), 0u) << "wave " << wave;
        EXPECT_EQ(alloc.freeListBytes(), 0u) << "wave " << wave;
    }
    // The whole node is one contiguous range again.
    Addr all = invalidAddr;
    ASSERT_TRUE(alloc.tryAllocate(64 * MiB, 4096, all));
    EXPECT_EQ(all, nodeBase);
}

TEST(FrameAllocatorDeath, DoubleFreeIsFatal)
{
    EXPECT_DEATH(
        {
            FrameAllocator inner("node", nodeBase, 64 * KiB);
            const Addr a = inner.allocate(4096, 4096);
            inner.allocate(4096, 4096); // keep a below the cursor
            inner.free(a, 4096);
            inner.free(a, 4096);
        },
        "double free");
}

TEST(FrameAllocator, AdversarialAlignmentCannotWrapTheCursor)
{
    // A node at the very top of the 64-bit address space: rounding
    // the cursor up to a huge alignment overflows 2^64. The old bump
    // arithmetic wrapped and "allocated" a bogus low address; the
    // guarded path must report out-of-memory instead.
    const std::uint64_t size = 1 * MiB;
    const Addr top_base = ~Addr(0) - 2 * size + 1;
    const Addr base = top_base & ~(Addr(1 * MiB) - 1); // aligned, near top
    FrameAllocator alloc("top", base, size);
    alloc.allocate(4096, 4096);
    Addr out = invalidAddr;
    const std::uint64_t huge_align = Addr(1) << 63;
    EXPECT_FALSE(alloc.wouldFit(4096, huge_align));
    EXPECT_FALSE(alloc.tryAllocate(4096, huge_align, out));
    EXPECT_EQ(out, invalidAddr);
    // Ordinary allocations still work fine up there.
    EXPECT_TRUE(alloc.tryAllocate(4096, 4096, out));
    EXPECT_TRUE(alloc.owns(out));
}

TEST(FrameAllocatorDeath, WrappingPhysicalRangeIsRejected)
{
    // base + size overflowing 2^64 would make every bounds check in
    // the allocator meaningless; the constructor refuses it.
    EXPECT_DEATH(FrameAllocator("wrap", ~Addr(0) - 4096, 2 * MiB),
                 "wraps");
}

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest() : node("host", nodeBase, 4 * GiB), pt(node) {}

    FrameAllocator node;
    PageTable pt;
};

TEST_F(PageTableTest, UnmappedWalkIsInvalid)
{
    const WalkResult wr = pt.walk(0x1234567000);
    EXPECT_FALSE(wr.valid);
    EXPECT_FALSE(pt.isMapped(0x1234567000));
}

TEST_F(PageTableTest, MapsAndWalksSmallPage)
{
    const Addr va = Addr(0x42) << 30 | 0x5000;
    const Addr pa = node.allocate(4096, 4096);
    pt.map(va, pa, smallPageShift);
    const WalkResult wr = pt.walk(va | 0x123);
    ASSERT_TRUE(wr.valid);
    EXPECT_EQ(wr.pa, pa | 0x123);
    EXPECT_EQ(wr.pageShift, smallPageShift);
    EXPECT_EQ(wr.levels, 4u);
}

TEST_F(PageTableTest, MapsAndWalksLargePage)
{
    const Addr va = Addr(0x55) << 30;
    const Addr pa = node.allocate(2 * MiB, 2 * MiB);
    pt.map(va, pa, largePageShift);
    const WalkResult wr = pt.walk(va + 0x123456);
    ASSERT_TRUE(wr.valid);
    EXPECT_EQ(wr.pa, pa + 0x123456);
    EXPECT_EQ(wr.pageShift, largePageShift);
    EXPECT_EQ(wr.levels, 3u); // 2 MB pages stop at L2
}

TEST_F(PageTableTest, EntryPathReportsEntryAddresses)
{
    const Addr va = Addr(0x7) << 39 | Addr(0x8) << 30 | Addr(0x9) << 21 |
                    Addr(0xa) << 12;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    ASSERT_TRUE(pt.walk(va).valid);
    const EntryPath path = pt.entryPath(va);
    // Root entry lives at rootPa + L4 index * 8, in the root's frame.
    EXPECT_EQ(path[0], pt.rootPa() + 0x7 * 8);
    EXPECT_EQ(pageBase(path[0], smallPageShift), pt.rootPa());
    // Each later step's entry sits at its own index in its node.
    EXPECT_EQ(path[1] & pageOffsetMask(smallPageShift), Addr(0x8) * 8);
    EXPECT_EQ(path[2] & pageOffsetMask(smallPageShift), Addr(0x9) * 8);
    EXPECT_EQ(path[3] & pageOffsetMask(smallPageShift), Addr(0xa) * 8);
    // Distinct levels live in distinct nodes.
    EXPECT_NE(pageBase(path[0], smallPageShift),
              pageBase(path[1], smallPageShift));
    EXPECT_NE(pageBase(path[1], smallPageShift),
              pageBase(path[2], smallPageShift));
    EXPECT_NE(pageBase(path[2], smallPageShift),
              pageBase(path[3], smallPageShift));
}

TEST_F(PageTableTest, EntryPathStopsWhereTheWalkStops)
{
    // A 2 MB leaf ends the walk at L2: no fourth entry.
    const Addr large = Addr(0x12) << 30;
    pt.map(large, node.allocate(2 * MiB, 2 * MiB), largePageShift);
    const WalkResult wr = pt.walk(large + 0x1234);
    ASSERT_EQ(wr.levels, 3u);
    const EntryPath path = pt.entryPath(large + 0x1234);
    EXPECT_NE(path[2], 0u);
    EXPECT_EQ(path[3], 0u);
    // An unmapped VA stops at the first invalid entry, which the walk
    // still reads: here the root's.
    const Addr hole = Addr(0x13) << 39;
    ASSERT_EQ(pt.walk(hole).levels, 1u);
    const EntryPath miss = pt.entryPath(hole);
    EXPECT_EQ(miss[0], pt.rootPa() + 0x13 * 8);
    EXPECT_EQ(miss[1], 0u);
}

TEST_F(PageTableTest, NeighboringPagesShareUpperPath)
{
    const Addr va = Addr(0x11) << 30;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    pt.map(va + 4096, node.allocate(4096, 4096), smallPageShift);
    const EntryPath a = pt.entryPath(va);
    const EntryPath b = pt.entryPath(va + 4096);
    // Same L4/L3/L2 entries; only the L1 entry differs.
    EXPECT_EQ(a[0], b[0]);
    EXPECT_EQ(a[1], b[1]);
    EXPECT_EQ(a[2], b[2]);
    EXPECT_NE(a[3], b[3]);
}

TEST_F(PageTableTest, UnmapRemovesLeaf)
{
    const Addr va = Addr(0x21) << 30;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    EXPECT_TRUE(pt.isMapped(va));
    EXPECT_EQ(pt.mappedPages(), 1u);
    pt.unmap(va);
    EXPECT_FALSE(pt.isMapped(va));
    EXPECT_EQ(pt.mappedPages(), 0u);
    EXPECT_FALSE(pt.unmap(va).unmapped); // idempotent
}

TEST_F(PageTableTest, UnmapReportsFrameAndPath)
{
    const Addr va = Addr(0x26) << 30;
    const Addr frame = node.allocate(4096, 4096);
    pt.map(va, frame, smallPageShift);
    const WalkResult before = pt.walk(va);
    const EntryPath before_path = pt.entryPath(va);
    const UnmapResult um = pt.unmap(va);
    ASSERT_TRUE(um.unmapped);
    EXPECT_EQ(um.frame, frame);
    EXPECT_EQ(um.pageShift, smallPageShift);
    ASSERT_TRUE(um.path.valid);
    EXPECT_EQ(um.path.levels, 4u);
    EXPECT_EQ(um.path.pa, before.pa);
    for (unsigned i = 0; i < 4; i++) {
        EXPECT_EQ(um.entryPa[i], before_path[i]);
        EXPECT_EQ(pageBase(um.entryPa[i], smallPageShift),
                  pageBase(before_path[i], smallPageShift));
    }
}

TEST_F(PageTableTest, UnmapEntryPaIsTheEntryPathBeforeTheUnmap)
{
    // A lone 4 KB page (its subtree is reclaimed), a 2 MB page, a
    // page whose siblings keep its nodes, and an unmapped VA.
    const Addr lone = Addr(0x30) << 39;
    const Addr large = Addr(0x31) << 30;
    const Addr shared = Addr(0x32) << 30;
    pt.map(lone, node.allocate(4096, 4096), smallPageShift);
    pt.map(large, node.allocate(2 * MiB, 2 * MiB), largePageShift);
    pt.map(shared, node.allocate(4096, 4096), smallPageShift);
    pt.map(shared + 4096, node.allocate(4096, 4096), smallPageShift);
    const Addr hole = Addr(0x33) << 39;
    for (const Addr va : {lone, large + 0x5000, shared, hole}) {
        const EntryPath before = pt.entryPath(va);
        const UnmapResult um = pt.unmap(va);
        EXPECT_EQ(um.unmapped, va != hole) << va;
        EXPECT_EQ(um.entryPa, um.unmapped ? before : EntryPath{}) << va;
    }
}

TEST_F(PageTableTest, UnmapReclaimsEmptyInteriorNodes)
{
    const Addr va = Addr(0x28) << 30;
    const std::uint64_t used_before = node.used();
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    // Lone mapping in its own L4 subtree: three interior nodes
    // (L3/L2/L1 tables) plus the leaf frame were allocated.
    EXPECT_EQ(node.used(), used_before + 4 * 4096);

    const UnmapResult um = pt.unmap(va);
    ASSERT_TRUE(um.unmapped);
    EXPECT_EQ(um.freedNodes, 3u);
    EXPECT_EQ(um.firstFreedStep, 1u); // everything below the root
    // Deepest node (the L1 table) is reported first.
    EXPECT_EQ(um.freedNodePa[0], pageBase(um.entryPa[3], smallPageShift));
    EXPECT_EQ(um.freedNodePa[1], pageBase(um.entryPa[2], smallPageShift));
    EXPECT_EQ(um.freedNodePa[2], pageBase(um.entryPa[1], smallPageShift));
    // The node frames went back to the allocator (the leaf frame is
    // the caller's to free).
    EXPECT_EQ(node.used(), used_before + 4096);
    // The three node frames sat at the allocation frontier, so the
    // allocator reabsorbed them into the bump cursor (no fragments).
    EXPECT_EQ(node.freeListBytes(), 0u);

    // Remapping rebuilds the subtree from recycled frames.
    pt.map(va, um.frame, smallPageShift);
    EXPECT_TRUE(pt.isMapped(va));
    EXPECT_EQ(node.used(), used_before + 4 * 4096);
}

TEST_F(PageTableTest, UnmapKeepsSharedInteriorNodes)
{
    const Addr va = Addr(0x29) << 30;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    pt.map(va + 4096, node.allocate(4096, 4096), smallPageShift);
    // Siblings share L4..L1 nodes: removing one frees nothing.
    const UnmapResult um = pt.unmap(va);
    ASSERT_TRUE(um.unmapped);
    EXPECT_EQ(um.freedNodes, 0u);
    EXPECT_TRUE(pt.isMapped(va + 4096));
    // Removing the last sibling collapses the subtree.
    const UnmapResult um2 = pt.unmap(va + 4096);
    EXPECT_EQ(um2.freedNodes, 3u);
    EXPECT_FALSE(pt.isMapped(va + 4096));
}

TEST_F(PageTableTest, PartialReclaimStopsAtPopulatedLevels)
{
    // Two pages sharing L4/L3 but with distinct L2 entries: unmapping
    // one reclaims its private L1 table only.
    const Addr va = Addr(0x2a) << 30;
    const Addr sib = va + (Addr(1) << 21); // next L2 entry
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    pt.map(sib, node.allocate(4096, 4096), smallPageShift);
    const UnmapResult um = pt.unmap(va);
    EXPECT_EQ(um.freedNodes, 1u);
    EXPECT_EQ(um.firstFreedStep, 3u); // just the L1 table
    EXPECT_EQ(um.freedNodePa[0], pageBase(um.entryPa[3], smallPageShift));
    EXPECT_TRUE(pt.isMapped(sib));
}

TEST_F(PageTableTest, LargePageUnmapReclaims)
{
    const Addr va = Addr(0x2b) << 30;
    const Addr pa = node.allocate(2 * MiB, 2 * MiB);
    pt.map(va, pa, largePageShift);
    const UnmapResult um = pt.unmap(va + 0x12345);
    ASSERT_TRUE(um.unmapped);
    EXPECT_EQ(um.frame, pa);
    EXPECT_EQ(um.pageShift, largePageShift);
    EXPECT_EQ(um.freedNodes, 2u); // L3 and L2 tables
    EXPECT_FALSE(pt.isMapped(va));
}

TEST_F(PageTableTest, ChurnReusesNodeFramesDeterministically)
{
    // Map/unmap churn across a scattered VA range must not grow the
    // node allocator: every subtree's frames are recycled.
    const std::uint64_t used_before = node.used();
    for (unsigned round = 0; round < 8; round++) {
        for (unsigned i = 0; i < 16; i++) {
            const Addr va = (Addr(0x100 + i) << 30) | (Addr(round) << 21);
            pt.map(va, node.allocate(4096, 4096), smallPageShift);
        }
        for (unsigned i = 0; i < 16; i++) {
            const Addr va = (Addr(0x100 + i) << 30) | (Addr(round) << 21);
            const UnmapResult um = pt.unmap(va);
            ASSERT_TRUE(um.unmapped);
            node.free(um.frame, 4096);
        }
    }
    EXPECT_EQ(pt.mappedPages(), 0u);
    EXPECT_EQ(node.used(), used_before);
}

TEST_F(PageTableTest, ManyMappingsAllResolve)
{
    const Addr base = Addr(0x33) << 30;
    for (unsigned i = 0; i < 1024; i++) {
        pt.map(base + Addr(i) * 4096, node.allocate(4096, 4096),
               smallPageShift);
    }
    EXPECT_EQ(pt.mappedPages(), 1024u);
    for (unsigned i = 0; i < 1024; i++)
        EXPECT_TRUE(pt.walk(base + Addr(i) * 4096 + 42).valid);
}

TEST_F(PageTableTest, DeathOnDoubleMap)
{
    const Addr va = Addr(0x44) << 30;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    EXPECT_DEATH(pt.map(va, node.allocate(4096, 4096), smallPageShift),
                 "double map");
}

TEST_F(PageTableTest, DeathOnUnalignedMap)
{
    EXPECT_DEATH(pt.map(0x123, 0x456000, smallPageShift), "unaligned");
}

TEST_F(PageTableTest, DeathOnSmallPageUnderLargeLeaf)
{
    const Addr va = Addr(0x45) << 30;
    pt.map(va, node.allocate(2 * MiB, 2 * MiB), largePageShift);
    EXPECT_DEATH(pt.map(va + 0x3000, node.allocate(4096, 4096),
                        smallPageShift),
                 "mapping under an existing large-page leaf");
}

TEST_F(PageTableTest, DeathOnLargePageOverPopulatedTable)
{
    const Addr va = Addr(0x46) << 30;
    pt.map(va + 0x3000, node.allocate(4096, 4096), smallPageShift);
    EXPECT_DEATH(pt.map(va, node.allocate(2 * MiB, 2 * MiB),
                        largePageShift),
                 "large-page mapping over a populated table");
}

namespace {

/**
 * Reference for PageTable: the pointer tree whose entries are
 * {valid, leaf, unique_ptr child, frame} structs (12 KB a node),
 * kept as it was before nodes became 4 KB frames of tagged words.
 */
class ReferencePageTable
{
  public:
    explicit ReferencePageTable(FrameAllocator &node_allocator)
        : _alloc(node_allocator)
    {
        _root = std::unique_ptr<Node>(allocNode());
    }

    void
    map(Addr va, Addr pa, unsigned page_shift)
    {
        const unsigned leaf_level = (page_shift == largePageShift) ? 2 : 1;

        Node *node = _root.get();
        for (unsigned level = pageTableLevels; level > leaf_level;
             level--) {
            Entry &e = node->entries[radixIndex(va, level)];
            NEUMMU_ASSERT(!(e.valid && e.leaf),
                          "mapping under an existing large-page leaf");
            if (!e.valid) {
                e.valid = true;
                e.leaf = false;
                e.child = std::unique_ptr<Node>(allocNode());
                node->live++;
            }
            node = e.child.get();
        }

        Entry &leaf = node->entries[radixIndex(va, leaf_level)];
        NEUMMU_ASSERT(!leaf.valid, "double map of the same virtual page");
        leaf.valid = true;
        leaf.leaf = true;
        leaf.frame = pa;
        node->live++;
        _mappedPages++;
        _cachedVpn = invalidAddr;
    }

    UnmapResult
    unmap(Addr va)
    {
        UnmapResult res;
        res.path = walk(va);
        if (!res.path.valid)
            return res;
        res.entryPa = entryPath(va);
        res.unmapped = true;
        res.pageShift = res.path.pageShift;
        res.frame = res.path.pa & ~pageOffsetMask(res.path.pageShift);

        std::array<Node *, pageTableLevels> chain{};
        std::array<unsigned, pageTableLevels> idx{};
        Node *node = _root.get();
        unsigned depth = 0;
        for (unsigned level = pageTableLevels; level >= 1; level--) {
            const unsigned i = radixIndex(va, level);
            chain[depth] = node;
            idx[depth] = i;
            depth++;
            Entry &e = node->entries[i];
            if (e.leaf)
                break;
            node = e.child.get();
        }

        Entry &leaf = chain[depth - 1]->entries[idx[depth - 1]];
        NEUMMU_ASSERT(leaf.valid && leaf.leaf, "unmap lost the leaf");
        leaf.valid = false;
        leaf.leaf = false;
        leaf.frame = invalidAddr;
        chain[depth - 1]->live--;
        _mappedPages--;

        for (unsigned step = depth - 1; step >= 1; step--) {
            Node *n = chain[step];
            if (n->live != 0)
                break;
            res.freedNodePa[res.freedNodes++] = n->pa;
            res.firstFreedStep = step;
            _alloc.free(n->pa, pageSize(smallPageShift));
            Entry &parent = chain[step - 1]->entries[idx[step - 1]];
            parent.child.reset();
            parent.valid = false;
            chain[step - 1]->live--;
        }
        _cachedVpn = invalidAddr;
        return res;
    }

    WalkResult
    walk(Addr va) const
    {
        if ((va >> smallPageShift) == _cachedVpn) {
            _walkCacheHits++;
            WalkResult result = _cachedWalk;
            result.pa = (result.pa & ~pageOffsetMask(result.pageShift)) |
                        (va & pageOffsetMask(result.pageShift));
            return result;
        }

        WalkResult result;
        const Node *node = _root.get();
        for (unsigned level = pageTableLevels; level >= 1; level--) {
            const Entry &e = node->entries[radixIndex(va, level)];
            result.levels = pageTableLevels - level + 1;

            if (!e.valid)
                return result;

            if (e.leaf) {
                const unsigned shift =
                    (level == 2) ? largePageShift : smallPageShift;
                result.valid = true;
                result.pageShift = shift;
                result.pa = e.frame | (va & pageOffsetMask(shift));
                _cachedVpn = va >> smallPageShift;
                _cachedWalk = result;
                return result;
            }
            node = e.child.get();
        }
        NEUMMU_PANIC("page-table walk ran past L1 without a leaf");
    }

    /** The entry PA each step of walk(@p va) reads, 0 past its end. */
    EntryPath
    entryPath(Addr va) const
    {
        EntryPath path{};
        forEachStep(va, [&](unsigned step, const Node &node, unsigned idx) {
            path[step] = node.pa + Addr(idx) * 8;
        });
        return path;
    }

    /** The node frame each step of walk(@p va) reads, 0 past its end. */
    EntryPath
    nodePath(Addr va) const
    {
        EntryPath path{};
        forEachStep(va, [&](unsigned step, const Node &node, unsigned) {
            path[step] = node.pa;
        });
        return path;
    }

    std::uint64_t walkCacheHits() const { return _walkCacheHits; }
    std::uint64_t mappedPages() const { return _mappedPages; }
    Addr rootPa() const { return _root->pa; }

    /** Nodes in the tree, counted by walking it. */
    std::uint64_t nodes() const { return countNodes(*_root); }

  private:
    struct Node;

    struct Entry
    {
        bool valid = false;
        bool leaf = false;
        std::unique_ptr<Node> child;
        Addr frame = invalidAddr;
    };

    struct Node
    {
        Addr pa = invalidAddr;
        unsigned live = 0;
        std::array<Entry, 512> entries;
    };

    Node *
    allocNode()
    {
        auto *node = new Node();
        node->pa = _alloc.allocate(pageSize(smallPageShift),
                                   pageSize(smallPageShift));
        return node;
    }

    /** Call @p f(step, node, index) for each entry walk(@p va) reads. */
    template <typename F>
    void
    forEachStep(Addr va, F &&f) const
    {
        const Node *node = _root.get();
        for (unsigned step = 0; step < pageTableLevels; step++) {
            const unsigned idx = radixIndex(va, pageTableLevels - step);
            f(step, *node, idx);
            const Entry &e = node->entries[idx];
            if (!e.valid || e.leaf)
                return;
            node = e.child.get();
        }
    }

    static std::uint64_t
    countNodes(const Node &node)
    {
        std::uint64_t n = 1;
        for (const Entry &e : node.entries) {
            if (e.valid && !e.leaf)
                n += countNodes(*e.child);
        }
        return n;
    }

    FrameAllocator &_alloc;
    std::unique_ptr<Node> _root;
    std::uint64_t _mappedPages = 0;
    mutable Addr _cachedVpn = invalidAddr;
    mutable WalkResult _cachedWalk;
    mutable std::uint64_t _walkCacheHits = 0;
};

void
expectSameWalk(const WalkResult &a, const WalkResult &b, const char *what)
{
    EXPECT_EQ(a.valid, b.valid) << what;
    EXPECT_EQ(a.pa, b.pa) << what;
    EXPECT_EQ(a.pageShift, b.pageShift) << what;
    EXPECT_EQ(a.levels, b.levels) << what;
}

/**
 * @p path is the reference's entry path of @p va: each entry sits in
 * the node frame the reference walk visits at its step.
 */
void
expectSamePath(const PageTable &pt, const ReferencePageTable &ref, Addr va,
               const char *what)
{
    const EntryPath path = pt.entryPath(va);
    EXPECT_EQ(path, ref.entryPath(va)) << what;
    const EntryPath nodes = ref.nodePath(va);
    for (unsigned i = 0; i < pageTableLevels; i++) {
        EXPECT_EQ(path[i] ? pageBase(path[i], smallPageShift) : 0,
                  nodes[i])
            << what << ", step " << i;
    }
}

/**
 * Seeded random map/unmap/walk steps on a PageTable and on the
 * reference tree, over a VA space of 2 L4 x 2 L3 x 4 L2 x 8 L1
 * entries so pages share interior nodes and reclaim runs at every
 * depth. Both trees are destroyed still holding their mappings.
 */
void
runAgainstReference(unsigned seed, unsigned steps)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    FrameAllocator node("host", nodeBase, 1 * GiB);
    FrameAllocator ref_node("host", nodeBase, 1 * GiB);
    PageTable pt(node);
    ReferencePageTable ref(ref_node);
    ASSERT_EQ(pt.rootPa(), ref.rootPa());

    std::mt19937_64 rng(seed);
    const auto pick = [&rng](unsigned n) {
        return unsigned(rng() % n);
    };
    const auto randomVa = [&] {
        return Addr(pick(2)) << 39 | Addr(pick(2)) << 30 |
               Addr(pick(4)) << 21 | Addr(pick(8)) << 12;
    };
    // Leaf frames live outside the node allocator, whose used() then
    // counts page-table nodes alone.
    Addr next_frame = Addr(1) << 44;
    std::vector<Addr> mapped;
    unsigned large_maps = 0;
    // Unmaps whose reclaim reached up to each walk step.
    std::array<unsigned, pageTableLevels> reclaims{};
    const auto walkBoth = [&](Addr va, const char *what) {
        const WalkResult w = ref.walk(va);
        expectSameWalk(pt.walk(va), w, what);
        expectSamePath(pt, ref, va, what);
        return w;
    };

    for (unsigned step = 0; step < steps; step++) {
        // Filling and draining phases alternate, so whole subtrees
        // empty out and are reclaimed.
        const bool draining = (step / 250) % 2 == 1;
        const unsigned op = pick(10);
        if (op < (draining ? 1u : 3u)) {
            const Addr va = randomVa();
            if (!walkBoth(va, "walk before a 4 KB map").valid) {
                pt.map(va, next_frame, smallPageShift);
                ref.map(va, next_frame, smallPageShift);
                next_frame += 4096;
                mapped.push_back(va);
            }
        } else if (op < (draining ? 2u : 4u)) {
            // A 2 MB page fits where the walk stops above L1: no leaf
            // and no L1 table under its L2 entry.
            const Addr va = pageBase(randomVa(), largePageShift);
            const WalkResult w = walkBoth(va, "walk before a 2 MB map");
            if (!w.valid && w.levels < pageTableLevels) {
                next_frame = (next_frame + 2 * MiB - 1) & ~(2 * MiB - 1);
                pt.map(va, next_frame, largePageShift);
                ref.map(va, next_frame, largePageShift);
                next_frame += 2 * MiB;
                mapped.push_back(va);
                large_maps++;
            }
        } else if (op < (draining ? 7u : 6u)) {
            // Mostly mapped pages, sometimes a random (maybe
            // unmapped) VA; a page offset never matters.
            Addr va = randomVa() | pick(4096);
            if (!mapped.empty() && pick(4) != 0) {
                const unsigned i = pick(unsigned(mapped.size()));
                va = mapped[i] | pick(4096);
                mapped[i] = mapped.back();
                mapped.pop_back();
            }
            expectSamePath(pt, ref, va, "path before an unmap");
            const EntryPath before = pt.entryPath(va);
            const UnmapResult a = pt.unmap(va);
            const UnmapResult b = ref.unmap(va);
            EXPECT_EQ(a.unmapped, b.unmapped);
            EXPECT_EQ(a.frame, b.frame);
            EXPECT_EQ(a.pageShift, b.pageShift);
            expectSameWalk(a.path, b.path, "unmap path");
            EXPECT_EQ(a.entryPa, b.entryPa);
            if (a.unmapped) {
                EXPECT_EQ(a.entryPa, before);
            }
            EXPECT_EQ(a.freedNodes, b.freedNodes);
            EXPECT_EQ(a.freedNodePa, b.freedNodePa);
            EXPECT_EQ(a.firstFreedStep, b.firstFreedStep);
            if (b.freedNodes > 0)
                reclaims[b.firstFreedStep]++;
        } else {
            const Addr va = randomVa() | pick(4096);
            walkBoth(va, "walk");
            // The walk cache replays with another page offset.
            walkBoth(va ^ 0x8, "cached walk");
        }
        EXPECT_EQ(pt.mappedPages(), ref.mappedPages());
        EXPECT_EQ(pt.walkCacheHits(), ref.walkCacheHits());
        EXPECT_EQ(node.used(), ref.nodes() * 4096);
        EXPECT_EQ(ref_node.used(), ref.nodes() * 4096);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(pt.mappedPages(), 0u);
    EXPECT_GT(large_maps, 0u);
    for (unsigned step = 1; step < pageTableLevels; step++)
        EXPECT_GT(reclaims[step], 0u) << "no reclaim up to step " << step;
}

} // namespace

TEST(PageTableReference, RandomMapUnmapWalkMatchesPointerTree)
{
    for (unsigned seed = 1; seed <= 6; seed++)
        runAgainstReference(seed, 1600);
}

TEST(AddressSpace, SegmentsAreDisjointAndAligned)
{
    FrameAllocator node("host", nodeBase, 4 * GiB);
    PageTable pt(node);
    AddressSpace vas(pt);
    const Segment a = vas.allocateUnbacked("a", 5000, smallPageShift);
    const Segment b = vas.allocateUnbacked("b", 3 * MiB, smallPageShift);
    EXPECT_EQ(a.base % (2 * MiB), 0u);
    EXPECT_EQ(b.base % (2 * MiB), 0u);
    EXPECT_GE(b.base, a.base + a.bytes);
    EXPECT_EQ(a.bytes % 4096, 0u);
    EXPECT_TRUE(a.contains(a.base));
    EXPECT_FALSE(a.contains(b.base));
}

TEST(AddressSpace, BackedSegmentIsFullyMapped)
{
    FrameAllocator host("host", nodeBase, 4 * GiB);
    FrameAllocator npu("npu", Addr(2) << 40, 4 * GiB);
    PageTable pt(host);
    AddressSpace vas(pt);
    const Segment seg =
        vas.allocateBacked("w", 64 * KiB, npu, smallPageShift);
    for (Addr va = seg.base; va < seg.end(); va += 4096) {
        const WalkResult wr = pt.walk(va);
        ASSERT_TRUE(wr.valid);
        EXPECT_TRUE(npu.owns(wr.pa));
    }
}

TEST(AddressSpace, BackPageMapsExactlyOnePage)
{
    FrameAllocator host("host", nodeBase, 4 * GiB);
    FrameAllocator npu("npu", Addr(2) << 40, 4 * GiB);
    PageTable pt(host);
    AddressSpace vas(pt);
    const Segment seg =
        vas.allocateUnbacked("t", 1 * MiB, smallPageShift);
    EXPECT_FALSE(pt.isMapped(seg.base + 8192));
    vas.backPage(seg, seg.base + 8192 + 17, npu);
    EXPECT_TRUE(pt.isMapped(seg.base + 8192));
    EXPECT_FALSE(pt.isMapped(seg.base));
    EXPECT_FALSE(pt.isMapped(seg.base + 4096));
}

TEST(AddressSpace, LargePageSegment)
{
    FrameAllocator host("host", nodeBase, 4 * GiB);
    FrameAllocator npu("npu", Addr(2) << 40, 4 * GiB);
    PageTable pt(host);
    AddressSpace vas(pt);
    const Segment seg =
        vas.allocateBacked("w", 3 * MiB, npu, largePageShift);
    EXPECT_EQ(seg.bytes, 4 * MiB); // rounded to whole 2 MB pages
    EXPECT_TRUE(pt.walk(seg.base + 2 * MiB + 5).valid);
    EXPECT_EQ(pt.walk(seg.base).pageShift, largePageShift);
}

TEST(AddressSpace, ScatteredSegmentsLandInDistinctL4Subtrees)
{
    FrameAllocator host("host", nodeBase, 4 * GiB);
    PageTable pt(host);
    AddressSpace vas(pt, Addr(0x100) << 30, 39);
    const Segment a = vas.allocateUnbacked("a", 1 * MiB, smallPageShift);
    const Segment b = vas.allocateUnbacked("b", 1 * MiB, smallPageShift);
    const Segment c = vas.allocateUnbacked("c", 1 * MiB, smallPageShift);
    EXPECT_NE(radixIndex(a.base, 4), radixIndex(b.base, 4));
    EXPECT_NE(radixIndex(b.base, 4), radixIndex(c.base, 4));
    // Packed layout keeps everything under one L4 entry by contrast.
    AddressSpace packed(pt, Addr(0x200) << 30);
    const Segment p1 = packed.allocateUnbacked("p1", 1 * MiB,
                                               smallPageShift);
    const Segment p2 = packed.allocateUnbacked("p2", 1 * MiB,
                                               smallPageShift);
    EXPECT_EQ(radixIndex(p1.base, 4), radixIndex(p2.base, 4));
}
