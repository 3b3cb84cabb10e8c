#include "cachesim/cache_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "util/logging.hh"

namespace lhr
{

namespace
{

bool
isPowerOfTwo(int x)
{
    return x > 0 && (x & (x - 1)) == 0;
}

} // namespace

CacheArray::CacheArray(double capacity_kb, int ways, int line_bytes)
    : wayCount(static_cast<size_t>(ways)), accessCount(0),
      missCount(0)
{
    if (capacity_kb <= 0.0 || ways < 1 || !isPowerOfTwo(line_bytes))
        panic("CacheArray: invalid geometry");
    const double lines = capacity_kb * 1024.0 / line_bytes;
    // Round the set count down to a power of two for indexing.
    setCount = std::bit_floor(
        std::max<size_t>(1, static_cast<size_t>(lines / ways)));
    // Both divisors are powers of two: index with shifts and masks.
    lineShift = static_cast<unsigned>(
        std::countr_zero(static_cast<unsigned>(line_bytes)));
    setShift = static_cast<unsigned>(std::countr_zero(setCount));
    setMask = setCount - 1;
    tags.assign(setCount * wayCount, 0);
    validWays.assign(setCount, 0);
}

double
CacheArray::missRatio() const
{
    return accessCount == 0
        ? 0.0
        : static_cast<double>(missCount) / accessCount;
}

void
CacheArray::reset()
{
    std::fill(validWays.begin(), validWays.end(), 0);
    accessCount = 0;
    missCount = 0;
}

TlbArray::TlbArray(int entries, int page_bytes)
    : entryCount(static_cast<size_t>(entries)), accessCount(0),
      missCount(0), stamp(0), liveCount(0)
{
    if (entries < 1 || !isPowerOfTwo(page_bytes))
        panic("TlbArray: invalid geometry");
    pageShift = static_cast<unsigned>(
        std::countr_zero(static_cast<unsigned>(page_bytes)));
    pages.assign(entryCount, 0);
    ages.assign(entryCount, 0);
    freeSlots.reserve(entryCount);
    for (size_t i = entryCount; i-- > 0;)
        freeSlots.push_back(static_cast<uint32_t>(i));
    pageIndex.reserve(entryCount);
}

bool
TlbArray::access(uint64_t addr)
{
    ++accessCount;
    const uint64_t page = addr >> pageShift;
    const auto it = pageIndex.find(page);
    if (it != pageIndex.end()) {
        ages[it->second] = ++stamp;
        return true;
    }
    ++missCount;
    uint32_t victim = 0;
    if (!freeSlots.empty()) {
        victim = freeSlots.back();
        freeSlots.pop_back();
        ++liveCount;
    } else {
        // Full: evict the least recently used entry (min age).
        uint64_t oldest = UINT64_MAX;
        for (size_t i = 0; i < entryCount; ++i) {
            if (ages[i] < oldest) {
                oldest = ages[i];
                victim = static_cast<uint32_t>(i);
            }
        }
        pageIndex.erase(pages[victim]);
    }
    pages[victim] = page;
    ages[victim] = ++stamp;
    pageIndex.emplace(page, victim);
    return false;
}

void
TlbArray::displace(double fraction)
{
    if (fraction < 0.0 || fraction > 1.0)
        panic("TlbArray::displace: fraction out of range");
    const size_t keep = static_cast<size_t>(
        std::ceil(liveCount * (1.0 - fraction)));
    if (keep >= liveCount)
        return;
    uint64_t cutoff = UINT64_MAX;
    if (keep > 0) {
        // Keep the `keep` highest ages (the MRU entries); ages are
        // unique, so the cutoff is exact.
        std::vector<uint64_t> live;
        live.reserve(liveCount);
        for (const uint64_t age : ages) {
            if (age != 0)
                live.push_back(age);
        }
        std::nth_element(live.begin(), live.begin() + (keep - 1),
                         live.end(), std::greater<>());
        cutoff = live[keep - 1];
    }
    for (size_t i = 0; i < entryCount; ++i) {
        if (ages[i] != 0 && ages[i] < cutoff) {
            ages[i] = 0;
            pageIndex.erase(pages[i]);
            freeSlots.push_back(static_cast<uint32_t>(i));
        }
    }
    liveCount = keep;
}

void
TlbArray::reset()
{
    std::fill(ages.begin(), ages.end(), 0);
    stamp = 0;
    liveCount = 0;
    accessCount = 0;
    missCount = 0;
    pageIndex.clear();
    freeSlots.clear();
    for (size_t i = entryCount; i-- > 0;)
        freeSlots.push_back(static_cast<uint32_t>(i));
}

HierarchySim::HierarchySim(
    const std::vector<std::pair<double, int>> &levels)
{
    if (levels.empty())
        panic("HierarchySim: needs at least one level");
    arrays.reserve(levels.size());
    for (const auto &[capacityKb, ways] : levels)
        arrays.emplace_back(capacityKb, ways);
}

double
HierarchySim::mpki(size_t level, uint64_t instructions) const
{
    if (instructions == 0)
        panic("HierarchySim::mpki: zero instructions");
    return arrays.at(level).misses() * 1000.0 /
        static_cast<double>(instructions);
}

void
HierarchySim::reset()
{
    for (auto &array : arrays)
        array.reset();
}

} // namespace lhr
