/**
 * @file
 * Structural cache and TLB simulation.
 *
 * Where the interval model (lhr::cache) evaluates analytic miss
 * curves, this module simulates actual set-associative arrays with
 * LRU replacement, access by access. It exists to (a) characterize
 * synthetic traces the way hardware event counters characterize real
 * executions, and (b) cross-validate the analytic curves
 * (`lhrlab run ablation_tracesim`).
 *
 * Each set keeps its valid tags in a flat contiguous vector in
 * recency order, most recent first (no per-set node containers or
 * timestamps): a hit moves its tag to the front, a miss shifts the
 * set down one way, dropping the least recent tag when the set is
 * full, and puts the new tag first. The modeled sets are 8 or 16
 * ways wide, so the shift is a few word moves, and the common hit on
 * the most recent tag moves nothing. A per-set count of valid ways
 * means no tag value is reserved to mark an invalid way. Hits,
 * misses and victims are those of an explicit recency list because
 * each set is one.
 */

#ifndef LHR_CACHESIM_CACHE_SIM_HH
#define LHR_CACHESIM_CACHE_SIM_HH

#include <algorithm>
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

        uint64_t *setTags = &tags[set * wayCount];
        const size_t valid = validWays[set];
        size_t way = 0;
        while (way < valid && setTags[way] != tag)
            ++way;
        const bool hit = way < valid;
        if (!hit) {
            // Miss: fill the first invalid way, or, when the set is
            // full, overwrite the least recent (last) tag.
            ++missCount;
            if (valid < wayCount)
                ++validWays[set];
            way = std::min(valid, wayCount - 1);
        }
        // Move the ways ahead of `way` down one and put `tag` first.
        for (; way > 0; --way)
            setTags[way] = setTags[way - 1];
        setTags[0] = tag;
        return hit;
    }

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }
    double missRatio() const;

    size_t sets() const { return setCount; }
    size_t associativity() const { return wayCount; }

    /** Invalidate everything and clear statistics. */
    void reset();

  private:
    size_t wayCount;
    size_t setCount;
    unsigned lineShift;          ///< log2(line bytes)
    unsigned setShift;           ///< log2(set count)
    uint64_t setMask;            ///< setCount - 1
    uint64_t accessCount;
    uint64_t missCount;
    /**
     * setCount x wayCount tags, row-major by set; each set's first
     * validWays[set] tags are valid, most recently used first.
     */
    std::vector<uint64_t> tags;
    std::vector<uint32_t> validWays; ///< valid tags per set
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
