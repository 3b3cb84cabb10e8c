/**
 * @file
 * Tests for Pareto dominance and frontier extraction.
 */

#include <gtest/gtest.h>

#include "stats/pareto.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace lhr
{

TEST(Pareto, DominanceBasics)
{
    const ParetoPoint fastCheap{"a", 2.0, 1.0};
    const ParetoPoint slowCostly{"b", 1.0, 2.0};
    const ParetoPoint fastCostly{"c", 2.0, 2.0};
    EXPECT_TRUE(dominates(fastCheap, slowCostly));
    EXPECT_TRUE(dominates(fastCheap, fastCostly));
    EXPECT_FALSE(dominates(slowCostly, fastCheap));
    EXPECT_FALSE(dominates(fastCostly, fastCheap));
}

TEST(Pareto, EqualPointsDoNotDominateEachOther)
{
    const ParetoPoint a{"a", 1.0, 1.0};
    const ParetoPoint b{"b", 1.0, 1.0};
    EXPECT_FALSE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
    const auto frontier = paretoFrontier({a, b});
    EXPECT_EQ(frontier.size(), 2u);
}

TEST(Pareto, SimpleFrontier)
{
    const std::vector<ParetoPoint> points = {
        {"slow-efficient", 1.0, 0.5},
        {"fast-hungry", 4.0, 2.0},
        {"dominated", 0.9, 0.6},
        {"middle", 2.0, 1.0},
    };
    const auto frontier = paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_EQ(frontier[0].label, "slow-efficient");
    EXPECT_EQ(frontier[1].label, "middle");
    EXPECT_EQ(frontier[2].label, "fast-hungry");
}

TEST(Pareto, SinglePointIsItsOwnFrontier)
{
    const auto frontier = paretoFrontier({{"only", 1.0, 1.0}});
    ASSERT_EQ(frontier.size(), 1u);
}

TEST(Pareto, EmptyInputYieldsEmptyFrontier)
{
    EXPECT_TRUE(paretoFrontier({}).empty());
}

TEST(Pareto, OneDominatorCollapsesTheFrontier)
{
    // One config better on both axes than every other: the frontier
    // is exactly that point, whatever the input order.
    const std::vector<ParetoPoint> points = {
        {"worst", 0.5, 4.0},
        {"king", 5.0, 0.5},
        {"mediocre", 2.0, 2.0},
        {"close", 4.9, 0.6},
    };
    const auto frontier = paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0].label, "king");
}

TEST(Pareto, TiesOnOneAxisKeepOnlyTheBetterOtherAxis)
{
    // Equal performance: the cheaper point dominates the other.
    const auto byEnergy = paretoFrontier(
        {{"cheap", 2.0, 1.0}, {"costly", 2.0, 3.0}});
    ASSERT_EQ(byEnergy.size(), 1u);
    EXPECT_EQ(byEnergy[0].label, "cheap");

    // Equal energy: the faster point dominates the other.
    const auto byPerf = paretoFrontier(
        {{"slow", 1.0, 2.0}, {"fast", 3.0, 2.0}});
    ASSERT_EQ(byPerf.size(), 1u);
    EXPECT_EQ(byPerf[0].label, "fast");

    // A tie on one axis between otherwise-incomparable points keeps
    // both: neither strictly improves the other.
    const auto mixed = paretoFrontier(
        {{"a", 2.0, 1.0}, {"b", 2.0, 1.0}, {"c", 3.0, 2.0}});
    EXPECT_EQ(mixed.size(), 3u);
}

TEST(Pareto, FrontierSortedByPerformance)
{
    const std::vector<ParetoPoint> points = {
        {"c", 3.0, 3.0}, {"a", 1.0, 1.0}, {"b", 2.0, 2.0},
    };
    const auto frontier = paretoFrontier(points);
    for (size_t i = 1; i < frontier.size(); ++i)
        EXPECT_LE(frontier[i - 1].performance, frontier[i].performance);
}

/** Property sweep over random point clouds. */
class ParetoRandomSweep : public ::testing::TestWithParam<uint64_t>
{
  protected:
    std::vector<ParetoPoint>
    randomCloud(uint64_t seed, size_t n)
    {
        Rng rng(seed);
        std::vector<ParetoPoint> points;
        for (size_t i = 0; i < n; ++i) {
            points.push_back({msgOf("p", i),
                              rng.uniform(0.1, 10.0),
                              rng.uniform(0.1, 10.0)});
        }
        return points;
    }
};

TEST_P(ParetoRandomSweep, NoFrontierMemberIsDominated)
{
    const auto points = randomCloud(GetParam(), 120);
    const auto frontier = paretoFrontier(points);
    for (const auto &member : frontier)
        for (const auto &other : points)
            ASSERT_FALSE(dominates(other, member));
}

TEST_P(ParetoRandomSweep, EveryNonMemberIsDominated)
{
    const auto points = randomCloud(GetParam(), 120);
    const auto frontier = paretoFrontier(points);
    auto onFrontier = [&](const ParetoPoint &pt) {
        for (const auto &member : frontier)
            if (member.label == pt.label)
                return true;
        return false;
    };
    for (const auto &pt : points) {
        if (onFrontier(pt))
            continue;
        bool dominated = false;
        for (const auto &other : points)
            if (dominates(other, pt))
                dominated = true;
        ASSERT_TRUE(dominated) << pt.label;
    }
}

TEST_P(ParetoRandomSweep, FrontierOfFrontierIsItself)
{
    const auto frontier =
        paretoFrontier(randomCloud(GetParam(), 80));
    const auto again = paretoFrontier(frontier);
    EXPECT_EQ(frontier.size(), again.size());
}

TEST_P(ParetoRandomSweep, EnergyDecreasesAsPerformanceDecreases)
{
    // Along a frontier sorted by ascending performance, energy must
    // be ascending too (otherwise a point would dominate its
    // neighbour).
    const auto frontier =
        paretoFrontier(randomCloud(GetParam(), 150));
    for (size_t i = 1; i < frontier.size(); ++i)
        ASSERT_LE(frontier[i - 1].energy, frontier[i].energy);
}

INSTANTIATE_TEST_SUITE_P(Clouds, ParetoRandomSweep,
                         ::testing::Values(1ull, 7ull, 21ull, 99ull,
                                           12345ull));

} // namespace lhr
