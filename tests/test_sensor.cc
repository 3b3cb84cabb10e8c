/**
 * @file
 * Tests for the Hall-sensor measurement chain and its calibration
 * (paper section 2.5), and for the Gaussian and quantize kernels of
 * the batched sampling session.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "sensor/calibration.hh"
#include "sensor/channel.hh"
#include "sensor/gauss_kernel.hh"
#include "stats/summary.hh"

namespace lhr
{

TEST(Sensor, SensitivitiesMatchDatasheet)
{
    EXPECT_DOUBLE_EQ(sensorSensitivity(SensorVariant::A5), 0.185);
    EXPECT_DOUBLE_EQ(sensorSensitivity(SensorVariant::A30), 0.066);
}

TEST(Sensor, ZeroCurrentNearMidRail)
{
    const PowerChannel channel(SensorVariant::A5, 1);
    Rng rng(2);
    Summary out;
    for (int i = 0; i < 200; ++i)
        out.add(channel.outputVolts(0.0, rng.gaussian()));
    EXPECT_NEAR(out.mean(), 2.5, 0.05);
}

TEST(Sensor, OutputScalesWithCurrent)
{
    const PowerChannel channel(SensorVariant::A5, 3);
    Rng rng(4);
    Summary low, high;
    for (int i = 0; i < 200; ++i) {
        low.add(channel.outputVolts(1.0, rng.gaussian()));
        high.add(channel.outputVolts(2.0, rng.gaussian()));
    }
    EXPECT_NEAR(high.mean() - low.mean(), 0.185, 0.01);
}

TEST(Sensor, QuantizeBounds)
{
    EXPECT_EQ(PowerChannel::quantize(-1.0), 0);
    EXPECT_EQ(PowerChannel::quantize(0.0), 0);
    EXPECT_EQ(PowerChannel::quantize(5.0), 1023);
    EXPECT_EQ(PowerChannel::quantize(99.0), 1023);
    EXPECT_EQ(PowerChannel::quantize(2.5), 512);
}

TEST(Sensor, RailAmps)
{
    EXPECT_DOUBLE_EQ(PowerChannel::railAmps(12.0), 1.0);
    EXPECT_DOUBLE_EQ(PowerChannel::railAmps(60.0), 5.0);
}

TEST(Sensor, NegativePowerPanics)
{
    const PowerChannel channel(SensorVariant::A5, 5);
    Rng rng(6);
    EXPECT_DEATH(channel.sampleCounts(-1.0, rng), "negative");
}

TEST(Calibration, FitQualityMeetsPaperGate)
{
    const PowerChannel channel(SensorVariant::A5, 7);
    Rng rng(8);
    const Calibration cal = Calibration::calibrate(channel, rng);
    EXPECT_GE(cal.r2(), Calibration::r2Gate);
}

TEST(Calibration, DecodesCurrentAccurately)
{
    const PowerChannel channel(SensorVariant::A5, 9);
    Rng calRng(10);
    const Calibration cal = Calibration::calibrate(channel, calRng);

    Rng rng(11);
    for (double amps : {0.5, 1.0, 1.5, 2.0, 2.5}) {
        Summary decoded;
        for (int i = 0; i < 100; ++i) {
            const int counts = PowerChannel::quantize(
                channel.outputVolts(amps, rng.gaussian()));
            decoded.add(cal.ampsFromCounts(counts));
        }
        // Calibration removes gain/offset error; residual error is
        // quantization plus noise, about 1% (section 2.5).
        EXPECT_NEAR(decoded.mean(), amps, 0.03 * amps + 0.01);
    }
}

TEST(Calibration, WattsRoundTrip)
{
    const PowerChannel channel(SensorVariant::A30, 12);
    Rng calRng(13);
    const Calibration cal = Calibration::calibrate(channel, calRng);

    Rng rng(14);
    Summary decoded;
    const double trueWatts = 60.0;
    for (int i = 0; i < 200; ++i)
        decoded.add(
            cal.wattsFromCounts(channel.sampleCounts(trueWatts, rng)));
    EXPECT_NEAR(decoded.mean(), trueWatts, 2.0);
}

TEST(Sensor, SaturatesBeyondRatedCurrent)
{
    // Past the rated range the Hall element compresses: equal
    // current steps produce smaller voltage steps.
    const PowerChannel channel(SensorVariant::A5, 21);
    Rng rng(22);
    Summary inRange, overRange;
    for (int i = 0; i < 400; ++i) {
        inRange.add(channel.outputVolts(4.5, rng.gaussian()) -
                    channel.outputVolts(3.5, rng.gaussian()));
        overRange.add(channel.outputVolts(7.0, rng.gaussian()) -
                      channel.outputVolts(6.0, rng.gaussian()));
    }
    EXPECT_GT(inRange.mean(), 3.0 * overRange.mean());
}

TEST(Sensor, FiveAmpPartUnderReadsI7ClassPower)
{
    // The methodological point of section 2.5: an 80W chip draws
    // ~6.7A, beyond the 5A part's range — it reads low, which is why
    // the i7's rig carries the 30A part.
    Rng calSeed(23);
    const PowerChannel small(SensorVariant::A5, 24);
    const PowerChannel big(SensorVariant::A30, 25);
    Rng rngA(26), rngB(26);
    Calibration calSmall = Calibration::calibrate(small, rngA);
    Calibration calBig = Calibration::calibrate(big, rngB);

    const double watts = 80.0;
    Summary readSmall, readBig;
    Rng noise(27);
    for (int i = 0; i < 300; ++i) {
        readSmall.add(
            calSmall.wattsFromCounts(small.sampleCounts(watts, noise)));
        readBig.add(
            calBig.wattsFromCounts(big.sampleCounts(watts, noise)));
    }
    EXPECT_LT(readSmall.mean(), 0.85 * watts); // saturated
    EXPECT_NEAR(readBig.mean(), watts, 0.05 * watts);
}

/** Property: every physical device calibrates within the gate. */
class SensorDeviceSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SensorDeviceSweep, CalibrationGateHolds)
{
    for (auto variant : {SensorVariant::A5, SensorVariant::A30}) {
        const PowerChannel channel(variant, GetParam());
        Rng rng(GetParam() ^ 0x5555);
        const Calibration cal = Calibration::calibrate(channel, rng);
        EXPECT_GE(cal.r2(), Calibration::r2Gate);
        // Slope must be positive (more counts = more current).
        EXPECT_GT(cal.fit().slope, 0.0);
    }
}

TEST_P(SensorDeviceSweep, MeasurementErrorAboutOnePercent)
{
    const PowerChannel channel(SensorVariant::A5, GetParam());
    Rng calRng(GetParam() ^ 0xAAAA);
    const Calibration cal = Calibration::calibrate(channel, calRng);
    Rng rng(GetParam() ^ 0x1234);
    const double watts = 25.0;
    Summary decoded;
    for (int i = 0; i < 500; ++i)
        decoded.add(
            cal.wattsFromCounts(channel.sampleCounts(watts, rng)));
    EXPECT_NEAR(decoded.mean(), watts, 0.02 * watts);
    EXPECT_LT(decoded.stddev() / watts, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Devices, SensorDeviceSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull,
                                           5ull, 6ull, 7ull, 8ull));

// The certainty-window sampler is sound only while the polynomial
// kernel stays within gaussKernelMaxError of libm. Measure the
// actual worst case of every resolved kernel against the exact
// Box-Muller expression and require an order of magnitude of slack.
TEST(GaussKernel, StaysWithinDocumentedErrorBound)
{
    constexpr size_t n = 1 << 15;
    std::vector<double> u1(n), u2(n), gc(n), gs(n);
    std::mt19937_64 rng(0x1234abcdu);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    for (size_t i = 0; i < n; ++i) {
        double u = 0.0;
        while (u <= 0.0)
            u = uniform(rng);
        u1[i] = u;
        u2[i] = uniform(rng);
    }
    // Include the extremes the sampler can actually produce.
    u1[0] = 0x1p-53;
    u1[1] = 1.0 - 0x1p-53;
    u2[1] = 1.0 - 0x1p-53;

    std::vector<GaussKernelFn> kernels = {&gaussPairsBase};
    if (GaussKernelFn avx2 = gaussKernelAvx2OrNull())
        kernels.push_back(avx2);

    for (GaussKernelFn kernel : kernels) {
        kernel(u1.data(), u2.data(), gc.data(), gs.data(), n);
        double maxError = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double r = std::sqrt(-2.0 * std::log(u1[i]));
            const double theta =
                2.0 * 3.141592653589793238462643383279502884 * u2[i];
            maxError = std::max(
                maxError, std::fabs(gc[i] - r * std::cos(theta)));
            maxError = std::max(
                maxError, std::fabs(gs[i] - r * std::sin(theta)));
        }
        EXPECT_LT(maxError, gaussKernelMaxError / 10.0);
    }
}

// Where both quantize builds accept a lane, they must agree on its
// count: acceptance means the count is provably the exact one, so
// any disagreement would break the bit-identity argument.
TEST(GaussKernel, QuantizeBuildsAgreeOnAcceptedLanes)
{
    SampleQuantizeFn avx2 = sampleQuantizeAvx2OrNull();
    if (!avx2)
        GTEST_SKIP() << "binary built without the AVX2 kernel";

    constexpr int n = 4096;
    std::vector<double> w(n), g1(n), g2(n);
    std::mt19937_64 rng(0x5678u);
    std::uniform_real_distribution<double> watts(0.0, 120.0);
    std::normal_distribution<double> gauss(0.0, 1.0);
    for (int i = 0; i < n; ++i) {
        w[i] = watts(rng);
        g1[i] = gauss(rng);
        g2[i] = gauss(rng);
    }

    SampleQuantizeParams p;
    p.sens = 0.09;
    p.gainFactor = 1.004;
    p.offsetVolts = 0.002;
    p.noiseVolts = 0.005;
    p.ratedAmps = 20.0;
    p.window = 1e-4;
    p.zeroWattsGuard = 1e-6;

    std::vector<int32_t> countsA(n, -1), countsB(n, -1);
    std::vector<int32_t> flaggedA(n), flaggedB(n);
    const size_t nA = sampleQuantizeBase(
        w.data(), g1.data(), g2.data(), n, p, countsA.data(),
        flaggedA.data());
    const size_t nB = avx2(w.data(), g1.data(), g2.data(), n, p,
                           countsB.data(), flaggedB.data());

    std::vector<bool> uncertainA(n, false), uncertainB(n, false);
    for (size_t i = 0; i < nA; ++i)
        uncertainA[(size_t)flaggedA[i]] = true;
    for (size_t i = 0; i < nB; ++i)
        uncertainB[(size_t)flaggedB[i]] = true;

    size_t bothAccepted = 0;
    for (int s = 0; s < n; ++s) {
        if (uncertainA[(size_t)s] || uncertainB[(size_t)s])
            continue;
        ++bothAccepted;
        EXPECT_EQ(countsA[(size_t)s], countsB[(size_t)s])
            << "lane " << s;
    }
    // The window above is tight; nearly every lane should be
    // accepted, otherwise the fast path is not actually fast.
    EXPECT_GT(bothAccepted, (size_t)(0.99 * n));
}

} // namespace lhr
