/**
 * @file
 * Tests for the multiprogramming (SPECrate-style) runner, the power
 * trace logger, and the DVFS diminishing-returns study.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/dvfs_study.hh"
#include "core/lab.hh"
#include "harness/multiprog.hh"
#include "sensor/hall.hh"
#include "sensor/trace_log.hh"

namespace lhr
{

namespace
{

Lab &
lab()
{
    static Lab instance(0xBEEF);
    return instance;
}

} // namespace

TEST(Rate, OneCopyIsTheBaseline)
{
    RateRunner rate(lab().runner());
    const auto cfg = withTurbo(
        stockConfig(processorById("i7 (45)")), false);
    const auto r = rate.run(cfg, benchmarkByName("hmmer"), 1);
    EXPECT_EQ(r.copies, 1);
    EXPECT_NEAR(r.throughput, 1.0, 1e-9);
    EXPECT_NEAR(r.rateEfficiency, 1.0, 1e-9);
}

TEST(Rate, ComputeBoundScalesNearLinearly)
{
    RateRunner rate(lab().runner());
    const auto cfg = withTurbo(
        stockConfig(processorById("i7 (45)")), false);
    const auto r = rate.run(cfg, benchmarkByName("hmmer"), 4);
    EXPECT_GT(r.throughput, 3.5);
    EXPECT_LE(r.throughput, 4.0 + 1e-9);
}

TEST(Rate, CacheBoundLosesEfficiency)
{
    RateRunner rate(lab().runner());
    const auto cfg = withTurbo(
        stockConfig(processorById("i7 (45)")), false);
    const auto hungry = rate.run(cfg, benchmarkByName("mcf"), 4);
    const auto lean = rate.run(cfg, benchmarkByName("hmmer"), 4);
    EXPECT_LT(hungry.rateEfficiency, lean.rateEfficiency);
}

TEST(Rate, BandwidthBoundSaturates)
{
    RateRunner rate(lab().runner());
    const auto cfg = stockConfig(processorById("C2Q (65)"));
    const auto sweep =
        rate.sweep(cfg, benchmarkByName("libquantum"));
    ASSERT_EQ(sweep.size(), 4u);
    // Throughput must be monotone but clearly sub-linear at 4
    // copies, and worse than a compute-bound workload's scaling on
    // the same chip (memory latency and the FSB both bind).
    for (size_t i = 1; i < sweep.size(); ++i)
        EXPECT_GE(sweep[i].throughput,
                  sweep[i - 1].throughput - 1e-9);
    EXPECT_LT(sweep.back().throughput, 3.8);
    const auto lean = rate.run(cfg, benchmarkByName("hmmer"), 4);
    EXPECT_LT(sweep.back().throughput, lean.throughput);
}

TEST(Rate, PowerGrowsWithCopies)
{
    RateRunner rate(lab().runner());
    const auto cfg = withTurbo(
        stockConfig(processorById("i7 (45)")), false);
    const auto one = rate.run(cfg, benchmarkByName("hmmer"), 1);
    const auto eight = rate.run(cfg, benchmarkByName("hmmer"), 8);
    EXPECT_GT(eight.powerW, one.powerW);
    // ...but energy per copy improves: the uncore amortizes.
    EXPECT_LT(eight.energyPerCopyJ, one.energyPerCopyJ);
}

TEST(Rate, Validation)
{
    RateRunner rate(lab().runner());
    const auto cfg = stockConfig(processorById("i7 (45)"));
    EXPECT_DEATH(rate.run(cfg, benchmarkByName("xalan"), 2),
                 "single-threaded");
    EXPECT_DEATH(rate.run(cfg, benchmarkByName("hmmer"), 0),
                 "out of range");
    EXPECT_DEATH(rate.run(cfg, benchmarkByName("hmmer"), 9),
                 "out of range");
}

TEST(TraceLog, RecordsAndSummarizes)
{
    const PowerChannel channel(SensorVariant::A5, 3);
    Rng calRng(4);
    const auto cal = Calibration::calibrate(channel, calRng);
    HallSession session(channel, cal);
    PowerTraceLogger logger(session);

    Rng rng(5);
    for (int i = 0; i < 500; ++i)
        logger.sample(i / 50.0, 20.0, rng);

    EXPECT_EQ(logger.count(), 500u);
    EXPECT_NEAR(logger.meanW(), 20.0, 1.0);
    EXPECT_LE(logger.minW(), logger.percentileW(5));
    EXPECT_LE(logger.percentileW(5), logger.percentileW(50));
    EXPECT_LE(logger.percentileW(50), logger.percentileW(95));
    EXPECT_LE(logger.percentileW(95), logger.maxW());
    EXPECT_NEAR(logger.percentileW(0), logger.minW(), 1e-9);
    EXPECT_NEAR(logger.percentileW(100), logger.maxW(), 1e-9);
}

TEST(TraceLog, CsvShape)
{
    const PowerChannel channel(SensorVariant::A5, 6);
    Rng calRng(7);
    const auto cal = Calibration::calibrate(channel, calRng);
    HallSession session(channel, cal);
    PowerTraceLogger logger(session);
    Rng rng(8);
    logger.sample(0.0, 30.0, rng);
    logger.sample(0.02, 30.0, rng);

    std::ostringstream os;
    logger.writeCsv(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("time_s,counts,watts"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(TraceLog, EmptyAndBadInputsPanic)
{
    const PowerChannel channel(SensorVariant::A5, 9);
    Rng calRng(10);
    const auto cal = Calibration::calibrate(channel, calRng);
    HallSession session(channel, cal);
    PowerTraceLogger logger(session);
    EXPECT_DEATH(logger.meanW(), "empty");
    Rng rng(11);
    logger.sample(0.0, 10.0, rng);
    EXPECT_DEATH(logger.percentileW(101.0), "percentile");
    logger.clear();
    EXPECT_EQ(logger.count(), 0u);
}

TEST(Dvfs, ProfilesAreSane)
{
    const auto profile = dvfsProfile(lab().runner(),
                                     lab().reference(), "i7 (45)", 5);
    EXPECT_EQ(profile.featureNm, 45);
    EXPECT_GE(profile.energyOptimalGhz, profile.fMinGhz - 1e-9);
    EXPECT_LE(profile.energyOptimalGhz, profile.fMaxGhz + 1e-9);
    EXPECT_GE(profile.energyAtMinRel, 1.0 - 1e-9);
    EXPECT_GE(profile.energyAtMaxRel, 1.0 - 1e-9);
    EXPECT_GT(profile.staticShareAtMin, 0.0);
    EXPECT_LT(profile.staticShareAtMin, 1.0);
    EXPECT_DEATH(dvfsProfile(lab().runner(), lab().reference(),
                             "i7 (45)", 1),
                 "two steps");
}

TEST(Dvfs, I7PrefersLowClockI5DoesNot)
{
    // Finding 3 recast as a DVFS statement: the 45nm i7's optimum is
    // its lowest clock; the 32nm i5's optimum is meaningfully above
    // its floor.
    const auto i7 = dvfsProfile(lab().runner(), lab().reference(),
                                "i7 (45)", 7);
    EXPECT_NEAR(i7.energyOptimalGhz, i7.fMinGhz, 1e-9);
    EXPECT_GT(i7.energyAtMaxRel, 1.3);

    const auto i5 = dvfsProfile(lab().runner(), lab().reference(),
                                "i5 (32)", 7);
    EXPECT_GT(i5.energyOptimalGhz, i5.fMinGhz + 0.1);
    EXPECT_LT(i5.energyAtMaxRel, 1.1);
}

} // namespace lhr
