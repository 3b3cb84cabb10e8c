/**
 * @file
 * Tests for the co-run interference model and bootstrap CIs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "harness/corun.hh"
#include "stats/bootstrap.hh"

namespace lhr
{

namespace
{

ExperimentRunner &
runner()
{
    static ExperimentRunner instance(0xC0117);
    return instance;
}

MachineConfig
i7TwoPlus()
{
    return withSmt(
        withTurbo(stockConfig(processorById("i7 (45)")), false),
        false);
}

/** Percentile of a sorted copy, as bootstrapCi95 once computed it. */
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

/**
 * The per-draw bootstrap: one rng.below() per draw, each resample
 * summed as it is drawn, two sorted percentiles.
 */
BootstrapCi
referenceBootstrap(const std::vector<double> &samples, Rng &rng,
                   int resamples)
{
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    std::vector<double> means;
    for (int r = 0; r < resamples; ++r) {
        double resum = 0.0;
        for (size_t i = 0; i < samples.size(); ++i)
            resum += samples[rng.below(samples.size())];
        means.push_back(resum / samples.size());
    }
    return {sum / samples.size(), sortedPercentile(means, 2.5),
            sortedPercentile(means, 97.5)};
}

} // namespace

TEST(CoRun, SlowdownsAreAtLeastOne)
{
    CoRunner corunner(runner());
    const auto cfg = i7TwoPlus();
    for (const char *a : {"hmmer", "mcf", "gcc"}) {
        for (const char *b : {"povray", "xalancbmk", "libquantum"}) {
            const auto r = corunner.run(cfg, benchmarkByName(a),
                                        benchmarkByName(b));
            ASSERT_GE(r.slowdownA, 1.0 - 1e-9) << a << "+" << b;
            ASSERT_GE(r.slowdownB, 1.0 - 1e-9) << a << "+" << b;
            ASSERT_GT(r.llcShareA, 0.1);
            ASSERT_LT(r.llcShareA, 0.9);
            ASSERT_GT(r.powerW, 0.0);
        }
    }
}

TEST(CoRun, CacheInsensitiveCodeIsImmune)
{
    // hmmer's working set fits in its private caches: even mcf
    // cannot hurt it much.
    CoRunner corunner(runner());
    const auto r = corunner.run(i7TwoPlus(), benchmarkByName("hmmer"),
                                benchmarkByName("mcf"));
    EXPECT_LT(r.slowdownA, 1.02);
}

TEST(CoRun, CapacityHungryRivalHurtsMore)
{
    // gcc suffers more next to mcf than next to povray.
    CoRunner corunner(runner());
    const auto vsHog = corunner.run(
        i7TwoPlus(), benchmarkByName("gcc"), benchmarkByName("mcf"));
    const auto vsLean = corunner.run(
        i7TwoPlus(), benchmarkByName("gcc"), benchmarkByName("povray"));
    EXPECT_GT(vsHog.slowdownA, vsLean.slowdownA);
}

TEST(CoRun, PressureWinsCapacity)
{
    // mcf's miss pressure wins it the larger LLC share against a
    // cache-light rival.
    CoRunner corunner(runner());
    const auto r = corunner.run(i7TwoPlus(), benchmarkByName("mcf"),
                                benchmarkByName("povray"));
    EXPECT_GT(r.llcShareA, 0.5);
}

TEST(CoRun, OlderChipSuffersMore)
{
    CoRunner corunner(runner());
    const auto old = corunner.run(
        stockConfig(processorById("C2D (65)")),
        benchmarkByName("gcc"), benchmarkByName("gcc"));
    const auto modern = corunner.run(
        i7TwoPlus(), benchmarkByName("gcc"), benchmarkByName("gcc"));
    EXPECT_GT(old.slowdownA, modern.slowdownA - 1e-9);
}

TEST(CoRun, MatrixShapeAndDiagonal)
{
    CoRunner corunner(runner());
    const std::vector<const Benchmark *> set = {
        &benchmarkByName("hmmer"), &benchmarkByName("mcf")};
    const auto matrix = corunner.matrix(i7TwoPlus(), set);
    ASSERT_EQ(matrix.size(), 2u);
    ASSERT_EQ(matrix[0].size(), 2u);
    for (const auto &row : matrix)
        for (double slowdown : row)
            EXPECT_GE(slowdown, 1.0 - 1e-9);
}

TEST(CoRun, Validation)
{
    CoRunner corunner(runner());
    const auto oneCore =
        withCores(stockConfig(processorById("i7 (45)")), 1);
    EXPECT_DEATH(corunner.run(oneCore, benchmarkByName("gcc"),
                              benchmarkByName("mcf")),
                 "two cores");
    EXPECT_DEATH(corunner.run(i7TwoPlus(), benchmarkByName("xalan"),
                              benchmarkByName("mcf")),
                 "single-threaded");
}

TEST(Bootstrap, IntervalBracketsTheMean)
{
    Rng rng(31);
    std::vector<double> samples;
    for (int i = 0; i < 30; ++i)
        samples.push_back(rng.gaussian(10.0, 1.0));
    const auto ci = bootstrapCi95(samples, rng);
    EXPECT_LE(ci.lo, ci.mean);
    EXPECT_GE(ci.hi, ci.mean);
    EXPECT_NEAR(ci.mean, 10.0, 1.0);
    EXPECT_GT(ci.halfWidthRelative(), 0.0);
}

TEST(Bootstrap, WidthShrinksWithSamples)
{
    Rng rng(32);
    std::vector<double> small, large;
    for (int i = 0; i < 5; ++i)
        small.push_back(rng.gaussian(10.0, 1.0));
    for (int i = 0; i < 200; ++i)
        large.push_back(rng.gaussian(10.0, 1.0));
    Rng r1(33), r2(33);
    EXPECT_GT(bootstrapCi95(small, r1).halfWidthRelative(),
              bootstrapCi95(large, r2).halfWidthRelative());
}

TEST(Bootstrap, ConstantSamplesGiveZeroWidth)
{
    Rng rng(34);
    const auto ci = bootstrapCi95({5.0, 5.0, 5.0, 5.0}, rng);
    EXPECT_DOUBLE_EQ(ci.lo, 5.0);
    EXPECT_DOUBLE_EQ(ci.hi, 5.0);
    EXPECT_DOUBLE_EQ(ci.halfWidthRelative(), 0.0);
}

TEST(Bootstrap, Validation)
{
    Rng rng(35);
    EXPECT_DEATH(bootstrapCi95({1.0}, rng), "two samples");
    EXPECT_DEATH(bootstrapCi95({1.0, 2.0}, rng, 10), "resamples");
}

TEST(Bootstrap, MatchesPerDrawReference)
{
    // Grouped draws and interleaved sums must reproduce the per-draw
    // algorithm bit for bit and leave the stream where it would. 999
    // resamples leave a group tail narrower than the interleave, and
    // n = 2500 makes every group the minimum four resamples.
    auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    std::vector<std::pair<size_t, int>> cases;
    for (size_t n : {2, 3, 5, 10, 20, 33, 64})
        for (int resamples : {100, 400, 999, 1000})
            cases.emplace_back(n, resamples);
    cases.emplace_back(2500, 101);
    for (const auto &[n, resamples] : cases) {
        Rng data(n * 7919 + resamples);
        std::vector<double> samples(n);
        for (double &x : samples)
            x = data.gaussian(100.0, 1.5);
        Rng reference(n + resamples), batched(n + resamples);
        const BootstrapCi expect =
            referenceBootstrap(samples, reference, resamples);
        const BootstrapCi got = bootstrapCi95(samples, batched, resamples);
        EXPECT_EQ(bits(got.mean), bits(expect.mean))
            << "n " << n << " resamples " << resamples;
        EXPECT_EQ(bits(got.lo), bits(expect.lo))
            << "n " << n << " resamples " << resamples;
        EXPECT_EQ(bits(got.hi), bits(expect.hi))
            << "n " << n << " resamples " << resamples;
        EXPECT_EQ(batched.next(), reference.next())
            << "n " << n << " resamples " << resamples;
    }
}

TEST(Bootstrap, CoverageReasonableAtModerateN)
{
    Rng rng(36);
    int covered = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> samples;
        for (int i = 0; i < 20; ++i)
            samples.push_back(rng.gaussian(50.0, 5.0));
        const auto ci = bootstrapCi95(samples, rng, 400);
        if (ci.lo <= 50.0 && 50.0 <= ci.hi)
            ++covered;
    }
    EXPECT_GE(covered, trials * 85 / 100);
}

} // namespace lhr
