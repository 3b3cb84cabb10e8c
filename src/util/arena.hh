/**
 * @file
 * A bump-pointer arena for per-session scratch.
 *
 * Its one user is the batched sampling session
 * (sensor/sampling.cc), which needs several short-lived arrays per
 * session — gaussian pair buffers, uniforms, per-sample watts.
 * Allocating them per session through the heap is measurable at
 * grid scale; the arena hands out slices of a few retained blocks
 * and reset() recycles the whole lot in O(number of blocks) without
 * touching the allocator.
 *
 * Only trivially-destructible element types are supported: reset()
 * runs no destructors. Not thread-safe — each sampling thread owns
 * its own arena.
 */

#ifndef LHR_UTIL_ARENA_HH
#define LHR_UTIL_ARENA_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace lhr
{

/** Growable bump allocator; see file comment. */
class Arena
{
  public:
    explicit Arena(size_t initial_bytes = 1u << 16)
        : firstBlockBytes(initial_bytes < 64 ? 64 : initial_bytes)
    {
    }

    /**
     * An uninitialized array of n elements, aligned for T. The
     * memory stays valid until reset() or destruction.
     */
    template <typename T>
    T *alloc(size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "Arena never runs destructors");
        if (n == 0)
            return nullptr;
        return static_cast<T *>(
            allocBytes(n * sizeof(T), alignof(T)));
    }

    /** A zero-initialized array of n elements. */
    template <typename T>
    T *allocZeroed(size_t n)
    {
        T *p = alloc<T>(n);
        for (size_t i = 0; i < n; ++i)
            p[i] = T{};
        return p;
    }

    /** Recycle every block; previously handed-out slices die. */
    void reset()
    {
        blockIndex = 0;
        used = 0;
    }

    /** Total bytes currently reserved across blocks. */
    size_t capacityBytes() const
    {
        size_t total = 0;
        for (const Block &b : blocks)
            total += b.size;
        return total;
    }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> mem;
        size_t size = 0;
    };

    void *allocBytes(size_t bytes, size_t align)
    {
        while (true) {
            if (blockIndex < blocks.size()) {
                Block &b = blocks[blockIndex];
                const size_t aligned =
                    (used + align - 1) & ~(align - 1);
                if (aligned + bytes <= b.size) {
                    used = aligned + bytes;
                    return b.mem.get() + aligned;
                }
                // Current block full: move on (its tail is wasted
                // until the next reset()).
                ++blockIndex;
                used = 0;
                continue;
            }
            // Need a new block: double the last size until the
            // request fits, so huge one-off asks do not fragment.
            size_t size = blocks.empty()
                ? firstBlockBytes
                : blocks.back().size * 2;
            while (size < bytes + align)
                size *= 2;
            Block b;
            b.mem = std::make_unique<std::byte[]>(size);
            b.size = size;
            blocks.push_back(std::move(b));
        }
    }

    size_t firstBlockBytes;
    std::vector<Block> blocks;
    size_t blockIndex = 0; ///< block currently being bumped
    size_t used = 0;       ///< bytes consumed in that block
};

} // namespace lhr

#endif // LHR_UTIL_ARENA_HH
