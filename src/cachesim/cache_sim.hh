/**
 * @file
 * Structural cache and TLB simulation.
 *
 * Where the interval model (lhr::cache) evaluates analytic miss
 * curves, this module simulates actual set-associative arrays with
 * LRU replacement, access by access. It exists to (a) characterize
 * synthetic traces the way hardware event counters characterize real
 * executions, and (b) cross-validate the analytic curves
 * (bench/ablation_tracesim).
 *
 * The arrays store tags and last-touch ages in flat contiguous
 * vectors (no per-set node containers): LRU ordering is recovered by
 * comparing ages, which makes hit/miss decisions identical to an
 * explicit recency list while doing no allocation or element
 * shuffling on the access path. Ages are 32-bit stamps; before the
 * access clock wraps, every set's ages are re-ranked in place (see
 * CacheArray::rebase), which keeps each set's recency order, and so
 * every hit, miss and victim, exact.
 */

#ifndef LHR_CACHESIM_CACHE_SIM_HH
#define LHR_CACHESIM_CACHE_SIM_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lhr
{

/** One set-associative, true-LRU cache array. */
class CacheArray
{
  public:
    /**
     * @param capacity_kb total capacity
     * @param ways associativity (capacity must cover >= 1 set)
     * @param line_bytes line size
     */
    CacheArray(double capacity_kb, int ways, int line_bytes = 64);

    /**
     * Access a byte address; returns true on hit. Updates LRU.
     * Inline so PipelineSim's issue loop sees the whole L1-hit fast
     * path without a call per memory op.
     */
    bool access(uint64_t addr)
    {
        ++accessCount;
        const uint64_t line = addr >> lineShift;
        const size_t set = static_cast<size_t>(line & setMask);
        const uint64_t tag = line >> setShift;

        if (stamp == maxStamp) [[unlikely]]
            rebase();
        uint64_t *setTags = &tags[set * wayCount];
        uint32_t *setAges = &ages[set * wayCount];
        // Hit scan only; the victim scan below runs just on misses.
        for (size_t way = 0; way < wayCount; ++way) {
            if (setTags[way] == tag && setAges[way] != 0) {
                // Hit: bump to most recent.
                setAges[way] = ++stamp;
                return true;
            }
        }
        // Miss: fill an invalid way if any (age 0 sorts first), else
        // evict the least recently used one (first minimum).
        ++missCount;
        size_t victim = 0;
        uint32_t oldest = setAges[0];
        for (size_t way = 1; way < wayCount; ++way) {
            if (setAges[way] < oldest) {
                oldest = setAges[way];
                victim = way;
            }
        }
        setTags[victim] = tag;
        setAges[victim] = ++stamp;
        return false;
    }

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }
    double missRatio() const;

    size_t sets() const { return setCount; }
    size_t associativity() const { return wayCount; }

    /** Invalidate everything and clear statistics. */
    void reset();

    /**
     * Test seam: move the access clock forward to `value`, e.g. to
     * just below the wrap point so a short stream crosses a rebase.
     * Recency order is unchanged because every stored age stays at
     * or below the clock. Panics if `value` is behind the clock.
     */
    void advanceStampForTest(uint32_t value);

  private:
    /** The last stamp handed out before rebase() restarts the clock. */
    static constexpr uint32_t maxStamp = UINT32_MAX;

    /**
     * Replace each set's valid ages by their rank within the set
     * (1 = least recent; invalid ways keep 0) and restart the clock
     * at the largest rank. Only the order of ages inside a set
     * decides hits and victims, so the array behaves exactly as if
     * the clock had never wrapped.
     */
    void rebase();

    size_t wayCount;
    size_t setCount;
    unsigned lineShift;          ///< log2(line bytes)
    unsigned setShift;           ///< log2(set count)
    uint64_t setMask;            ///< setCount - 1
    uint64_t accessCount;
    uint64_t missCount;
    uint32_t stamp;              ///< access clock, rebased at maxStamp
    /** setCount x wayCount tags, row-major by set. */
    std::vector<uint64_t> tags;
    /** Last-touch stamp per way; 0 marks an invalid way. */
    std::vector<uint32_t> ages;
};

/** A fully-associative LRU TLB. */
class TlbArray
{
  public:
    /**
     * @param entries number of TLB entries
     * @param page_bytes page size (4KB on the study's systems)
     */
    explicit TlbArray(int entries, int page_bytes = 4096);

    /** Access a byte address; returns true on TLB hit. */
    bool access(uint64_t addr);

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }

    /**
     * Model GC-style displacement: evict a fraction of the TLB, as
     * a collector scanning the heap on the same core does to the
     * application (the paper's db observation, section 3.1). The
     * most recently used entries survive.
     */
    void displace(double fraction);

    void reset();

  private:
    size_t entryCount;
    unsigned pageShift;          ///< log2(page bytes)
    uint64_t accessCount;
    uint64_t missCount;
    uint64_t stamp;              ///< monotonic access clock
    size_t liveCount;            ///< valid entries
    std::vector<uint64_t> pages; ///< entryCount page numbers
    std::vector<uint64_t> ages;  ///< last-touch stamp; 0 = invalid
    std::vector<uint32_t> freeSlots;           ///< invalid slots
    // lhrlint:allow-next-line(det-unordered): page->slot lookups only — victims are chosen by the clock hand, never by map order
    std::unordered_map<uint64_t, uint32_t> pageIndex; ///< page->slot
};

/**
 * A multi-level simulated hierarchy: each level is accessed only on
 * a miss in the previous one (inclusive, no prefetching).
 */
class HierarchySim
{
  public:
    /** Level specs as (capacityKb, ways) pairs, innermost first. */
    explicit HierarchySim(
        const std::vector<std::pair<double, int>> &levels);

    /** Access an address through the hierarchy. */
    void access(uint64_t addr) { accessHitLevel(addr); }

    /**
     * Access an address and report where it hit: the level index,
     * or -1 when it missed every level (DRAM).
     */
    int accessHitLevel(uint64_t addr)
    {
        for (size_t level = 0; level < arrays.size(); ++level) {
            if (arrays[level].access(addr))
                return static_cast<int>(level);
        }
        return -1;
    }

    /** Misses of one level per kilo-instruction. */
    double mpki(size_t level, uint64_t instructions) const;

    size_t levelCount() const { return arrays.size(); }
    const CacheArray &level(size_t i) const { return arrays.at(i); }

    void reset();

  private:
    std::vector<CacheArray> arrays;
};

} // namespace lhr

#endif // LHR_CACHESIM_CACHE_SIM_HH
