/**
 * @file
 * Tests for summary statistics, confidence intervals, linear fits,
 * and aggregation helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "stats/linfit.hh"
#include "stats/summary.hh"
#include "util/rng.hh"

namespace lhr
{

TEST(Summary, MeanAndVariance)
{
    Summary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, EmptyPanics)
{
    Summary s;
    EXPECT_DEATH(s.mean(), "empty");
    EXPECT_DEATH(s.min(), "empty");
    EXPECT_DEATH(s.max(), "empty");
}

TEST(Summary, SingleSampleHasZeroCi)
{
    Summary s;
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(Summary, CiMatchesHandComputation)
{
    // Three samples: mean 10, sd 1; CI = t(2) * 1/sqrt(3).
    Summary s;
    s.add(9.0);
    s.add(10.0);
    s.add(11.0);
    EXPECT_NEAR(s.ci95(), 4.303 / std::sqrt(3.0), 1e-9);
    EXPECT_NEAR(s.ci95Relative(), s.ci95() / 10.0, 1e-12);
}

TEST(Summary, TCriticalTableValues)
{
    EXPECT_NEAR(tCritical95(1), 12.706, 1e-9);
    EXPECT_NEAR(tCritical95(2), 4.303, 1e-9);
    EXPECT_NEAR(tCritical95(19), 2.093, 1e-9);
    EXPECT_NEAR(tCritical95(30), 2.042, 1e-9);
    EXPECT_NEAR(tCritical95(45), 2.000, 1e-9);
    EXPECT_NEAR(tCritical95(200), 1.960, 1e-9);
    EXPECT_DEATH(tCritical95(0), "degrees");
}

TEST(Summary, CiShrinksWithMoreSamples)
{
    Rng rng(5);
    Summary small, large;
    for (int i = 0; i < 5; ++i)
        small.add(rng.gaussian(100.0, 5.0));
    Rng rng2(5);
    for (int i = 0; i < 500; ++i)
        large.add(rng2.gaussian(100.0, 5.0));
    EXPECT_LT(large.ci95(), small.ci95());
}

TEST(Summary, MeanOfAndGeomean)
{
    EXPECT_DOUBLE_EQ(meanOf({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geomeanOf({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomeanOf({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_DEATH(meanOf({}), "empty");
    EXPECT_DEATH(geomeanOf({1.0, -1.0}), "positive");
}

namespace
{

/** percentileOf as a full sort computes it. */
double
sortedPercentile(std::vector<double> xs, double pct)
{
    std::sort(xs.begin(), xs.end());
    const double rank = pct / 100.0 * (xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - lo;
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

} // namespace

TEST(Summary, PercentileMatchesSortedReference)
{
    // Selection must pick the same two order statistics a sort
    // does, ties included, so the interpolated value is bit-equal.
    Rng rng(0x9E7C);
    for (size_t size = 1; size <= 50; ++size) {
        for (int rep = 0; rep < 20; ++rep) {
            // Few distinct values, so most vectors hold duplicates.
            std::vector<double> xs(size);
            for (double &x : xs)
                x = static_cast<double>(rng.below(8)) - 3.5 +
                    (rep % 2 ? rng.uniform() : 0.0);
            std::vector<double> pcts = {0.0, 2.5, 50.0, 97.5, 100.0};
            for (int k = 0; k < 5; ++k)
                pcts.push_back(rng.uniform(0.0, 100.0));
            for (const double pct : pcts) {
                ASSERT_EQ(std::bit_cast<uint64_t>(percentileOf(xs, pct)),
                          std::bit_cast<uint64_t>(sortedPercentile(xs, pct)))
                    << "size " << size << " pct " << pct;
            }
        }
    }
}

TEST(LinearFit, RecoversExactLine)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(i);
        ys.push_back(3.5 * i - 2.0);
    }
    const LinearFit fit = fitLinear(xs, ys);
    EXPECT_NEAR(fit.slope, 3.5, 1e-12);
    EXPECT_NEAR(fit.intercept, -2.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
    EXPECT_NEAR(fit.at(100.0), 348.0, 1e-9);
}

TEST(LinearFit, NoisyDataHasHighButImperfectR2)
{
    Rng rng(17);
    std::vector<double> xs, ys;
    for (int i = 0; i < 200; ++i) {
        xs.push_back(i);
        ys.push_back(2.0 * i + 1.0 + rng.gaussian(0.0, 3.0));
    }
    const LinearFit fit = fitLinear(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 0.05);
    EXPECT_GT(fit.r2, 0.99);
    EXPECT_LT(fit.r2, 1.0);
}

TEST(LinearFit, ConstantYIsPerfectFit)
{
    const LinearFit fit = fitLinear({1.0, 2.0, 3.0}, {5.0, 5.0, 5.0});
    EXPECT_NEAR(fit.slope, 0.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 5.0, 1e-12);
    EXPECT_DOUBLE_EQ(fit.r2, 1.0);
}

TEST(LinearFit, DegenerateInputsPanic)
{
    EXPECT_DEATH(fitLinear({1.0}, {1.0}), "two points");
    EXPECT_DEATH(fitLinear({1.0, 2.0}, {1.0}), "mismatched");
    EXPECT_DEATH(fitLinear({2.0, 2.0}, {1.0, 3.0}), "identical");
}

/** Property: CI relative accuracy across sample sizes. */
class SummarySizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SummarySizeSweep, CiCoversTrueMeanUsually)
{
    // With 95% CIs, the true mean should be covered roughly 95% of
    // the time; require at least 85% over 200 trials to keep the
    // test robust.
    const int n = GetParam();
    Rng rng(4242 + n);
    int covered = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        Summary s;
        for (int i = 0; i < n; ++i)
            s.add(rng.gaussian(50.0, 7.0));
        if (std::fabs(s.mean() - 50.0) <= s.ci95())
            ++covered;
    }
    EXPECT_GE(covered, trials * 85 / 100);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, SummarySizeSweep,
                         ::testing::Values(3, 5, 10, 20, 50));

} // namespace lhr
