/**
 * @file
 * Tests for the structural cache/TLB simulators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "cachesim/cache_sim.hh"
#include "util/rng.hh"

namespace lhr
{

TEST(CacheArray, GeometryValidation)
{
    EXPECT_DEATH(CacheArray(0.0, 8), "geometry");
    EXPECT_DEATH(CacheArray(32.0, 0), "geometry");
    EXPECT_DEATH(CacheArray(32.0, 8, 63), "geometry");
    const CacheArray cache(32.0, 8);
    EXPECT_EQ(cache.associativity(), 8);
    EXPECT_EQ(cache.sets(), 64);
}

TEST(CacheArray, NonPowerOfTwoCapacityRoundsSetsDown)
{
    // 48KB / 8 ways / 64B lines = 96 sets, rounded down to the
    // nearest power of two (64) so set indexing stays a mask.
    const CacheArray cache(48.0, 8);
    EXPECT_EQ(cache.sets(), 64u);
    EXPECT_EQ(cache.associativity(), 8u);

    // 3KB / 2 ways / 64B = 24 sets -> 16.
    const CacheArray odd(3.0, 2);
    EXPECT_EQ(odd.sets(), 16u);

    // Degenerate: capacity below one line per way still yields one
    // set rather than zero.
    const CacheArray tiny(0.0625, 2); // 64B, 2 ways
    EXPECT_EQ(tiny.sets(), 1u);
}

TEST(CacheArray, ColdMissThenHit)
{
    CacheArray cache(32.0, 8);
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1004)); // same line
    EXPECT_FALSE(cache.access(0x2000));
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.5);
}

TEST(CacheArray, LruEvictsOldest)
{
    // Direct-ish: 2-way, lines mapping to the same set.
    CacheArray cache(1.0, 2, 64); // 1KB, 2-way: 8 sets
    const uint64_t setStride = 8 * 64; // same set every 512B
    cache.access(0 * setStride);
    cache.access(1 * setStride);
    cache.access(2 * setStride);     // evicts line 0
    EXPECT_FALSE(cache.access(0 * setStride)); // miss: was evicted
    EXPECT_TRUE(cache.access(2 * setStride));  // still resident
}

TEST(CacheArray, LruPromotionOnHit)
{
    CacheArray cache(1.0, 2, 64);
    const uint64_t s = 8 * 64;
    cache.access(0 * s);
    cache.access(1 * s);
    cache.access(0 * s); // promote 0 to MRU
    cache.access(2 * s); // must evict 1, not 0
    EXPECT_TRUE(cache.access(0 * s));
    EXPECT_FALSE(cache.access(1 * s));
}

TEST(CacheArray, FitsWorkingSetPerfectly)
{
    CacheArray cache(32.0, 8);
    // 256 lines = 16KB, fits in 32KB: after one pass, all hits.
    for (int round = 0; round < 3; ++round)
        for (uint64_t line = 0; line < 256; ++line)
            cache.access(line * 64);
    EXPECT_EQ(cache.misses(), 256u);
}

TEST(CacheArray, ThrashesWhenOversubscribed)
{
    CacheArray cache(32.0, 8);
    // Sequential sweep over 4x the capacity: pure LRU thrashing,
    // every access misses.
    for (int round = 0; round < 3; ++round)
        for (uint64_t line = 0; line < 4 * 512; ++line)
            cache.access(line * 64);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 1.0);
}

TEST(CacheArray, ResetClearsEverything)
{
    CacheArray cache(32.0, 8);
    cache.access(0x1000);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_FALSE(cache.access(0x1000)); // cold again
}

TEST(CacheArray, MatchesListLruReferenceOnRandomStreams)
{
    // A list-based true-LRU model, one recency list per set, most
    // recent first: the definition the flat recency-ordered sets
    // must reproduce hit for hit.
    struct ListLru
    {
        size_t sets;
        size_t ways;
        std::vector<std::list<uint64_t>> lists;

        bool
        access(uint64_t line)
        {
            auto &set = lists[line % sets];
            const auto it = std::find(set.begin(), set.end(), line);
            const bool hit = it != set.end();
            if (hit)
                set.erase(it);
            else if (set.size() == ways)
                set.pop_back();
            set.push_front(line);
            return hit;
        }
    };

    Rng rng(20261019);
    for (const int ways : {1, 2, 4, 8, 16}) {
        // 8KB: 128 lines in 128 / ways sets.
        CacheArray cache(8.0, ways);
        ASSERT_EQ(cache.sets() * cache.associativity(), 128u);
        ListLru reference{cache.sets(), cache.associativity(), {}};
        reference.lists.resize(reference.sets);
        for (int i = 0; i < 30000; ++i) {
            if (i == 15000) {
                // Invalidate everything mid-stream: both restart cold.
                cache.reset();
                for (auto &set : reference.lists)
                    set.clear();
            }
            // Half the accesses reuse a hot set of 48 lines, half
            // roam a footprint of 4x the capacity.
            const uint64_t line = rng.uniform() < 0.5
                ? static_cast<uint64_t>(rng.uniform() * 48)
                : static_cast<uint64_t>(rng.uniform() * 512);
            ASSERT_EQ(cache.access(line * 64 + (i % 64)),
                      reference.access(line))
                << ways << "-way, access " << i;
        }
        // Since the reset: 15000 accesses, with hits and misses both.
        EXPECT_EQ(cache.accesses(), 15000u);
        EXPECT_GT(cache.misses(), 3000u) << ways << "-way";
        EXPECT_LT(cache.misses(), 12000u) << ways << "-way";
    }
}

TEST(Tlb, HitAndMissAccounting)
{
    TlbArray tlb(4);
    EXPECT_FALSE(tlb.access(0x0000));
    EXPECT_TRUE(tlb.access(0x0FFF));  // same 4KB page
    EXPECT_FALSE(tlb.access(0x1000)); // next page
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, LruCapacity)
{
    TlbArray tlb(2);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x2000); // evicts page 0
    EXPECT_FALSE(tlb.access(0x0000));
    EXPECT_TRUE(tlb.access(0x2000));
}

TEST(Tlb, DisplacementEvicts)
{
    TlbArray tlb(8);
    for (uint64_t page = 0; page < 8; ++page)
        tlb.access(page * 4096);
    tlb.displace(1.0);
    // Everything gone.
    EXPECT_FALSE(tlb.access(0x0000));
    EXPECT_DEATH(tlb.displace(1.5), "fraction");
}

TEST(Tlb, DisplaceZeroIsNoOp)
{
    TlbArray tlb(8);
    for (uint64_t page = 0; page < 8; ++page)
        tlb.access(page * 4096);
    tlb.displace(0.0);
    for (uint64_t page = 0; page < 8; ++page)
        EXPECT_TRUE(tlb.access(page * 4096)) << "page " << page;
}

TEST(Tlb, DisplaceFullThenRefill)
{
    TlbArray tlb(4);
    for (uint64_t page = 0; page < 4; ++page)
        tlb.access(page * 4096);
    tlb.displace(1.0);
    // The whole TLB is invalid: every page is a compulsory miss
    // again, and the freed slots must absorb all of them.
    for (uint64_t page = 0; page < 4; ++page)
        EXPECT_FALSE(tlb.access(page * 4096)) << "page " << page;
    for (uint64_t page = 0; page < 4; ++page)
        EXPECT_TRUE(tlb.access(page * 4096)) << "page " << page;
}

TEST(Tlb, DisplaceOnEmptyIsSafe)
{
    TlbArray tlb(4);
    tlb.displace(0.0);
    tlb.displace(1.0);
    EXPECT_FALSE(tlb.access(0x0000));
}

TEST(Tlb, PartialDisplacementKeepsMru)
{
    TlbArray tlb(8);
    for (uint64_t page = 0; page < 8; ++page)
        tlb.access(page * 4096);
    tlb.displace(0.5); // keeps the 4 most recent pages
    EXPECT_TRUE(tlb.access(7 * 4096));
    EXPECT_FALSE(tlb.access(0 * 4096));
}

TEST(HierarchySim, InclusiveFiltering)
{
    HierarchySim sim({{1.0, 2}, {64.0, 8}});
    // Sweep 2KB (32 lines): thrashes 1KB L1, fits in L2.
    for (int round = 0; round < 4; ++round)
        for (uint64_t line = 0; line < 32; ++line)
            sim.access(line * 64);
    EXPECT_GT(sim.level(0).misses(), sim.level(1).misses());
    EXPECT_EQ(sim.level(1).misses(), 32u); // only compulsory
    EXPECT_GT(sim.mpki(0, 128), sim.mpki(1, 128));
    EXPECT_DEATH(sim.mpki(0, 0), "zero");
    EXPECT_DEATH(HierarchySim({}), "at least one");
}

TEST(HierarchySim, L2OnlySeesL1Misses)
{
    HierarchySim sim({{32.0, 8}, {256.0, 8}});
    Rng rng(3);
    for (int i = 0; i < 20000; ++i)
        sim.access(rng.below(1u << 20));
    EXPECT_LE(sim.level(1).accesses(), sim.level(0).misses());
}

} // namespace lhr
