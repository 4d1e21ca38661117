#include "vm/page_table.hh"

#include "common/logging.hh"

namespace neummu {

// An entry is one word: 0 when invalid, frame | leafBit for a leaf
// (frames are 4 KB aligned), Node * | childBit for an interior entry
// (nodes are 8-byte aligned).
constexpr std::uint64_t leafBit = 1, childBit = 2;

/** One radix-tree node: the 4 KB frame of 512 entries it models. */
struct PageTable::Node
{
    Addr pa = invalidAddr;
    /** Valid entries; an interior node is reclaimed when this hits 0. */
    unsigned live = 0;
    std::array<std::uint64_t, 512> entries{};
    static_assert(sizeof(entries) == 4096, "a node is one 4 KB frame");

    Node() = default;
    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    static Node *child(std::uint64_t e)
    {
        return reinterpret_cast<Node *>(e & ~childBit);
    }

    /** A node owns its children. */
    ~Node()
    {
        for (const std::uint64_t e : entries)
            if (e & childBit)
                delete child(e);
    }
};

PageTable::PageTable(FrameAllocator &node_allocator)
    : _alloc(node_allocator)
{
    _root = std::unique_ptr<Node>(allocNode());
}

PageTable::~PageTable() = default;

PageTable::Node *
PageTable::allocNode()
{
    auto *node = new Node();
    node->pa = _alloc.allocate(pageSize(smallPageShift),
                               pageSize(smallPageShift));
    return node;
}

Addr
PageTable::rootPa() const
{
    return _root->pa;
}

void
PageTable::map(Addr va, Addr pa, unsigned page_shift)
{
    NEUMMU_ASSERT(page_shift == smallPageShift ||
                  page_shift == largePageShift,
                  "only 4 KB and 2 MB pages are supported");
    NEUMMU_ASSERT((va & pageOffsetMask(page_shift)) == 0,
                  "unaligned virtual address in map()");
    NEUMMU_ASSERT((pa & pageOffsetMask(page_shift)) == 0,
                  "unaligned physical address in map()");

    // 2 MB pages terminate at L2 (level index 2), 4 KB pages at L1.
    const unsigned leaf_level = (page_shift == largePageShift) ? 2 : 1;

    Node *node = _root.get();
    for (unsigned level = pageTableLevels; level > leaf_level; level--) {
        std::uint64_t &e = node->entries[radixIndex(va, level)];
        NEUMMU_ASSERT(!(e & leafBit),
                      "mapping under an existing large-page leaf");
        if (e == 0) {
            e = reinterpret_cast<std::uintptr_t>(allocNode()) | childBit;
            node->live++;
        }
        node = Node::child(e);
    }

    std::uint64_t &leaf = node->entries[radixIndex(va, leaf_level)];
    NEUMMU_ASSERT(!(leaf & childBit),
                  "large-page mapping over a populated table");
    NEUMMU_ASSERT(leaf == 0, "double map of the same virtual page");
    leaf = pa | leafBit;
    node->live++;
    _mappedPages++;
    _cachedVpn = invalidAddr;
}

UnmapResult
PageTable::unmap(Addr va)
{
    UnmapResult res;
    res.path = walk(va);
    if (!res.path.valid)
        return res;
    res.unmapped = true;
    res.pageShift = res.path.pageShift;
    res.frame = res.path.pa & ~pageOffsetMask(res.path.pageShift);

    // Re-descend the walked path recording the node chain so empty
    // interiors can be reclaimed bottom-up once the leaf is gone.
    const unsigned depth = res.path.levels;
    std::array<Node *, pageTableLevels> chain{_root.get()};
    std::array<unsigned, pageTableLevels> idx{};
    for (unsigned step = 0; step < depth; step++) {
        idx[step] = radixIndex(va, pageTableLevels - step);
        if (step + 1 < depth)
            chain[step + 1] = Node::child(chain[step]->entries[idx[step]]);
    }

    std::uint64_t &leaf = chain[depth - 1]->entries[idx[depth - 1]];
    NEUMMU_ASSERT(leaf & leafBit, "unmap lost the leaf");
    leaf = 0;
    chain[depth - 1]->live--;
    _mappedPages--;

    // Reclaim emptied interior nodes (never the root): free the
    // backing frame and drop the parent's entry.
    for (unsigned step = depth - 1; step >= 1; step--) {
        Node *n = chain[step];
        if (n->live != 0)
            break;
        res.freedNodePa[res.freedNodes++] = n->pa;
        res.firstFreedStep = step;
        _alloc.free(n->pa, pageSize(smallPageShift));
        delete n;
        chain[step - 1]->entries[idx[step - 1]] = 0;
        chain[step - 1]->live--;
    }
    // The pre-unmap path walk above refilled the cache; drop it after
    // the tree actually changed.
    _cachedVpn = invalidAddr;
    return res;
}

WalkResult
PageTable::walk(Addr va) const
{
    if ((va >> smallPageShift) == _cachedVpn) {
        _walkCacheHits++;
        WalkResult result = _cachedWalk;
        result.pa =
            (result.pa & ~pageOffsetMask(result.pageShift)) |
            (va & pageOffsetMask(result.pageShift));
        return result;
    }

    WalkResult result;
    const Node *node = _root.get();
    for (unsigned level = pageTableLevels; level >= 1; level--) {
        const unsigned idx = radixIndex(va, level);
        const std::uint64_t e = node->entries[idx];

        const unsigned step = pageTableLevels - level;
        result.nodePa[step] = node->pa;
        result.entryPa[step] = node->pa + Addr(idx) * 8;
        result.levels = step + 1;

        if (e == 0)
            return result; // invalid: levels reflects steps taken

        if (e & leafBit) {
            const unsigned shift =
                (level == 2) ? largePageShift : smallPageShift;
            result.valid = true;
            result.pageShift = shift;
            result.pa = (e & ~leafBit) | (va & pageOffsetMask(shift));
            _cachedVpn = va >> smallPageShift;
            _cachedWalk = result;
            return result;
        }
        node = Node::child(e);
    }
    NEUMMU_PANIC("page-table walk ran past L1 without a leaf");
}

bool
PageTable::isMapped(Addr va) const
{
    return walk(va).valid;
}

} // namespace neummu
