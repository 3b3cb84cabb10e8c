/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hh"

namespace lhr
{

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(8);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(10);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(12);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(13);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(14);
    EXPECT_DEATH(rng.below(0), "below");
    std::vector<uint64_t> out(1);
    EXPECT_DEATH(rng.fillBelow(0, out.data(), out.size()), "below");
}

TEST(Rng, FillBelowMatchesRepeatedBelow)
{
    // fillBelow must return what one below(n) per draw returns and
    // leave the stream in the same place: the bootstrap's outputs
    // depend on both.
    const uint64_t half = 1ull << 63;
    const std::vector<uint64_t> divisors = {
        1, 2, 3, 8, 10, (1ull << 32) + 1, half + 1, UINT64_MAX};
    for (const uint64_t n : divisors) {
        constexpr size_t count = 3000;
        Rng reference(0xF111 + n), batched(0xF111 + n);
        std::vector<uint64_t> expected(count);
        for (uint64_t &v : expected)
            v = reference.below(n);
        std::vector<uint64_t> got(count);
        batched.fillBelow(n, got.data(), count);
        ASSERT_EQ(got, expected) << "n = " << n;
        EXPECT_EQ(batched.next(), reference.next()) << "n = " << n;
    }

    // Above 2^63 about half of all raw draws are rejected, so the
    // comparison above ran the rejection path; count them to be sure.
    Rng raw(0xF111 + half + 1);
    const uint64_t limit = UINT64_MAX - UINT64_MAX % (half + 1);
    int rejected = 0;
    for (int accepted = 0; accepted < 3000;) {
        if (raw.next() >= limit)
            ++rejected;
        else
            ++accepted;
    }
    EXPECT_GT(rejected, 1000);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(15);
    Rng child = parent.fork();
    // Child stream should not coincide with the parent's continued
    // stream.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (parent.next() == child.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic)
{
    Rng a(16), b(16);
    Rng ca = a.fork(), cb = b.fork();
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(ca.next(), cb.next());
}

/** Property sweep: moments hold across many seeds. */
class RngSeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RngSeedSweep, UniformMeanNearHalf)
{
    Rng rng(GetParam());
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, GaussianSymmetry)
{
    Rng rng(GetParam());
    int positive = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.gaussian() > 0.0)
            ++positive;
    EXPECT_NEAR(positive / static_cast<double>(n), 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1ull, 42ull, 1337ull,
                                           0xdeadbeefull, 0xC0FFEEull,
                                           999999937ull));

} // namespace lhr
