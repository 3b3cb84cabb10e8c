#include "trace/lru_stack.hh"

#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace lhr
{

namespace
{

constexpr size_t initialArena = 8192;

/** 0-based position of the rank-th (1-indexed) set bit of word. */
size_t
selectBit(uint64_t word, size_t rank)
{
    for (size_t i = 1; i < rank; ++i)
        word &= word - 1;
    return static_cast<size_t>(std::countr_zero(word));
}

} // namespace

LruStack::LruStack(size_t max_blocks)
    : maxBlocks(max_blocks), frontCount(0), frontHead(0),
      arenaSize(initialArena), frontPos(initialArena), arenaCount(0),
      slots(initialArena, 0), words(initialArena / slotsPerWord, 0),
      blockCounts(blockEntries(initialArena), 0),
      superCounts((initialArena + slotsPerSuper - 1) / slotsPerSuper,
                  0)
{
    static_assert((frontCapacity & (frontCapacity - 1)) == 0);
    if (max_blocks == 0)
        panic("LruStack: zero capacity");
}

void
LruStack::removeSlot(size_t pos)
{
    words[pos / slotsPerWord] &= ~(1ull << (pos % slotsPerWord));
    --blockCounts[pos / slotsPerBlock];
    --superCounts[pos / slotsPerSuper];
    --arenaCount;
    // Removals punch holes into the live span; recompact before the
    // span gets less than half occupied so select() scans stay short.
    const size_t span = arenaSize - frontPos;
    if (span > 2 * arenaCount && span > initialArena)
        rebuild();
}

size_t
LruStack::select(size_t rank) const
{
    // Narrow down through the two count levels, then popcount
    // through the bitmap words of the chosen block.
    size_t super = 0;
    while (rank > superCounts[super])
        rank -= superCounts[super++];
    // Scan counts four at a time: the group sums are independent
    // adds, so the loop-carried rank chain advances 4 slots per
    // step. Groups never straddle a parent boundary (64 % 4 == 0),
    // rank is already bounded by the parent's total, and
    // blockCounts is zero-padded to a multiple of 4 entries
    // (blockEntries) so the last group never reads out of bounds.
    size_t blockIdx = super * (slotsPerSuper / slotsPerBlock);
    for (;; blockIdx += 4) {
        const uint32_t group = blockCounts[blockIdx] +
            blockCounts[blockIdx + 1] + blockCounts[blockIdx + 2] +
            blockCounts[blockIdx + 3];
        if (rank <= group)
            break;
        rank -= group;
    }
    while (rank > blockCounts[blockIdx])
        rank -= blockCounts[blockIdx++];
    size_t wordIdx = blockIdx * (slotsPerBlock / slotsPerWord);
    for (;; wordIdx += 4) {
        const size_t group = static_cast<size_t>(
            std::popcount(words[wordIdx]) +
            std::popcount(words[wordIdx + 1]) +
            std::popcount(words[wordIdx + 2]) +
            std::popcount(words[wordIdx + 3]));
        if (rank <= group)
            break;
        rank -= group;
    }
    for (;; ++wordIdx) {
        const size_t count = static_cast<size_t>(
            std::popcount(words[wordIdx]));
        if (rank <= count)
            break;
        rank -= count;
    }
    return wordIdx * slotsPerWord + selectBit(words[wordIdx], rank);
}

void
LruStack::rebuild()
{
    // Compact the live slots, in order, to the right end of an arena
    // sized so at least 3/4 is spare: the next compaction is then at
    // least max(arenaCount, 3/4 arena) operations away.
    size_t newArena = initialArena;
    while (newArena < 4 * arenaCount)
        newArena <<= 1;

    std::vector<uint32_t> ordered;
    ordered.reserve(arenaCount);
    for (size_t w = frontPos / slotsPerWord; w < words.size(); ++w) {
        uint64_t word = words[w];
        while (word != 0) {
            const size_t bit =
                static_cast<size_t>(std::countr_zero(word));
            ordered.push_back(slots[w * slotsPerWord + bit]);
            word &= word - 1;
        }
    }

    arenaSize = newArena;
    slots.assign(arenaSize, 0);
    words.assign(arenaSize / slotsPerWord, 0);
    blockCounts.assign(blockEntries(arenaSize), 0);
    superCounts.assign(
        (arenaSize + slotsPerSuper - 1) / slotsPerSuper, 0);
    frontPos = arenaSize - ordered.size();
    for (size_t i = 0; i < ordered.size(); ++i) {
        const size_t pos = frontPos + i;
        slots[pos] = ordered[i];
        words[pos / slotsPerWord] |= 1ull << (pos % slotsPerWord);
        ++blockCounts[pos / slotsPerBlock];
        ++superCounts[pos / slotsPerSuper];
    }
}

void
LruStack::place(uint32_t block)
{
    if (frontPos == 0)
        rebuild();
    --frontPos;
    slots[frontPos] = block;
    words[frontPos / slotsPerWord] |=
        1ull << (frontPos % slotsPerWord);
    ++blockCounts[frontPos / slotsPerBlock];
    ++superCounts[frontPos / slotsPerSuper];
    ++arenaCount;
}

void
LruStack::insertFront(uint32_t block)
{
    if (frontCount == frontCapacity) {
        // Spill the deep half into the arena, deepest first so the
        // arena keeps them in stack order.
        for (size_t k = frontCapacity; k > spillKeep; --k)
            place(frontBuf[(frontHead + k - 1) & ringMask]);
        frontCount = spillKeep;
    }
    frontHead = (frontHead - 1) & ringMask;
    frontBuf[frontHead] = block;
    ++frontCount;
}

uint32_t
LruStack::touchDeep(size_t depth)
{
    const size_t pos = select(depth - frontCount);
    const uint32_t block = slots[pos];
    removeSlot(pos);
    insertFront(block);
    return block;
}

void
LruStack::pushFrontSlow(uint32_t block)
{
    insertFront(block);
    if (size() > maxBlocks) {
        if (arenaCount > 0) {
            removeSlot(select(arenaCount));
        } else {
            --frontCount; // tiny bound: the back lives in the ring
        }
    }
}

void
LruStack::panicDepth()
{
    panic("LruStack::touch: depth out of range");
}

} // namespace lhr
