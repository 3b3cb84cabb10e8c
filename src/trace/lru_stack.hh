/**
 * @file
 * Order-statistic LRU stack.
 *
 * The LRU-stack-distance model (trace/generator.hh) needs exactly
 * three operations per generated address: find the block at stack
 * depth d, move a block to the front, and bound the stack at a
 * maximum size. A plain vector makes each of those O(stack size) —
 * a std::rotate over up to a million entries per access — which is
 * what capped trace lengths repo-wide.
 *
 * This structure is a two-tier move-to-front list:
 *
 *  - the shallow end (the Pareto-distributed common case) lives in a
 *    fixed-size ring buffer, where a push is a head decrement and a
 *    touch at depth d moves only d entries, all L1-resident;
 *  - deeper blocks live in a sparse arena: the block at depth d is
 *    the (d - front)-th occupied slot. Occupancy is a bitmap with
 *    two levels of population counts above it (per 4K slots and per
 *    256K slots), so rank-select is a handful of short sequential
 *    count scans plus an in-word popcount — no pointer chasing —
 *    and insert/remove are O(1) count updates;
 *  - ring overflow spills its deep half into the arena; arena
 *    insertions claim slots leftward, and the arena is recompacted
 *    (amortized O(1) per operation) when the left edge is reached or
 *    when removals have left it less than half occupied.
 *
 * The observable behaviour (the sequence of blocks returned by
 * touch() for given depths) is bit-identical to the vector
 * implementation it replaced.
 */

#ifndef LHR_TRACE_LRU_STACK_HH
#define LHR_TRACE_LRU_STACK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace lhr
{

/**
 * A move-to-front list of 32-bit block ids with fast access by stack
 * depth. Ids rather than addresses keep every ring, arena and
 * rebuild entry at four bytes; the caller maps ids to addresses.
 */
class LruStack
{
  public:
    /** @param max_blocks size bound; pushes beyond it evict the back */
    explicit LruStack(size_t max_blocks);

    /** Number of blocks currently on the stack. */
    size_t size() const { return frontCount + arenaCount; }

    /**
     * Return the block at 1-indexed stack depth (1 = most recent)
     * and move it to the front. depth must be in [1, size()].
     * Defined inline: the ring-resident shallow case is the common
     * one, and its cost is a short L1 memmove.
     */
    uint32_t touch(size_t depth)
    {
        if (depth == 0 || depth > size())
            panicDepth();
        if (depth > frontCount)
            return touchDeep(depth);
        // Shallow: move the touched entry to the ring's head slot,
        // sliding the depth - 1 entries above it down by one. The
        // slide is one memmove, or two around the ring's wrap point.
        // head is masked into a local (an identity — it never leaves
        // [0, ringMask]) and the unwrapped slide length is written
        // as idx - head so the compiler can bound every memmove by
        // the ring size; otherwise inlined copies trip
        // -Wstringop-overflow at call sites where it cannot see
        // that large depths were routed to touchDeep above.
        const size_t head = frontHead & ringMask;
        const size_t idx = (head + depth - 1) & ringMask;
        const uint32_t block = frontBuf[idx];
        // The destination is formed from data(): at head == ringMask
        // it is one past the end (with a zero-length slide), which
        // operator[] may not index.
        if (idx >= head) {
            std::memmove(frontBuf.data() + head + 1, &frontBuf[head],
                         (idx - head) * sizeof(uint32_t));
        } else {
            std::memmove(&frontBuf[1], &frontBuf[0],
                         idx * sizeof(uint32_t));
            frontBuf[0] = frontBuf[frontCapacity - 1];
            std::memmove(frontBuf.data() + head + 1, &frontBuf[head],
                         (frontCapacity - 1 - head) *
                             sizeof(uint32_t));
        }
        frontBuf[head] = block;
        return block;
    }

    /**
     * Push a never-seen block onto the front. If the stack exceeds
     * its bound, the deepest block falls off. Inline fast path: with
     * ring room and the bound unreached, a push is a head decrement.
     */
    void pushFront(uint32_t block)
    {
        if (frontCount < frontCapacity && size() < maxBlocks) {
            frontHead = (frontHead - 1) & ringMask;
            frontBuf[frontHead] = block;
            ++frontCount;
            return;
        }
        pushFrontSlow(block);
    }

  private:
    /** Ring capacity (power of two); shallower touches stay in L1. */
    static constexpr size_t frontCapacity = 4096;
    /** Entries kept in the ring when it spills into the arena. */
    static constexpr size_t spillKeep = frontCapacity / 2;
    /** Index mask for the power-of-two ring. */
    static constexpr size_t ringMask = frontCapacity - 1;
    /** Arena slots per bitmap word / count block / count super. */
    static constexpr size_t slotsPerWord = 64;
    static constexpr size_t slotsPerBlock = 64 * slotsPerWord;
    static constexpr size_t slotsPerSuper = 64 * slotsPerBlock;

    /**
     * blockCounts length for an arena: padded up to a multiple of
     * four zero entries so select()'s group-of-4 scan never reads
     * past the vector. Small arenas need the padding — at 8192
     * slots the arena spans only two count blocks.
     */
    static constexpr size_t blockEntries(size_t arena)
    {
        return (arena / slotsPerBlock + 3) & ~size_t{3};
    }

    /** Arena half of touch(): rank-select, remove, reinsert. */
    uint32_t touchDeep(size_t depth);

    /** pushFront() with a full ring or the size bound reached. */
    void pushFrontSlow(uint32_t block);

    /** Out-of-line panic keeps touch() small enough to inline. */
    [[noreturn]] static void panicDepth();

    /** Make `block` the new depth-1 entry of the ring. */
    void insertFront(uint32_t block);

    /** Claim the arena slot in front of everything for `block`. */
    void place(uint32_t block);

    /** Mark an occupied arena slot free. */
    void removeSlot(size_t pos);

    /** 0-based arena slot of the `rank`-th occupied slot. */
    size_t select(size_t rank) const;

    /** Compact live slots to the arena's right end; maybe resize. */
    void rebuild();

    size_t maxBlocks;
    size_t frontCount;  ///< live ring entries, MRU at frontHead
    size_t frontHead;   ///< ring index of the depth-1 entry
    std::array<uint32_t, frontCapacity> frontBuf;

    size_t arenaSize;   ///< multiple of slotsPerBlock
    size_t frontPos;    ///< next arena slot a place() claims, +1
    size_t arenaCount;  ///< occupied arena slots
    std::vector<uint32_t> slots;
    std::vector<uint64_t> words;        ///< occupancy bitmap
    std::vector<uint32_t> blockCounts;  ///< occupancy per 4K slots
    std::vector<uint32_t> superCounts;  ///< occupancy per 256K slots
};

} // namespace lhr

#endif // LHR_TRACE_LRU_STACK_HH
