/**
 * @file
 * Tests for the fault-injection rig and the hardened measurement
 * pipeline: injector determinism, the logger's fault semantics, the
 * byte-identity guarantee of an empty plan, poisoned configurations,
 * and the recovery path against an injected fault the raw pipeline
 * cannot survive.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hh"
#include "harness/runner.hh"
#include "sensor/calibration.hh"
#include "sensor/channel.hh"
#include "sensor/hall.hh"
#include "sensor/trace_log.hh"
#include "util/fp.hh"
#include "util/status.hh"

namespace lhr
{

namespace
{

/** Equality of the fault fields the Hall-era classes drive. */
bool
samePaperFault(const SampleFault &a, const SampleFault &b)
{
    return a.lost == b.lost && a.railed == b.railed &&
        a.extraCopies == b.extraCopies &&
        exactlyEqual(a.powerScale, b.powerScale) &&
        exactlyEqual(a.countsGain, b.countsGain);
}

bool
sameFault(const SampleFault &a, const SampleFault &b)
{
    return samePaperFault(a, b) && a.wrapGlitch == b.wrapGlitch &&
        a.stale == b.stale;
}

} // namespace

TEST(FaultPlan, NamesRoundTrip)
{
    for (const FaultClass cls : allFaultClasses()) {
        const auto parsed = parseFaultClass(faultClassName(cls));
        ASSERT_TRUE(parsed.has_value()) << faultClassName(cls);
        EXPECT_EQ(*parsed, cls);
    }
    EXPECT_FALSE(parseFaultClass("cosmic-ray").has_value());
    EXPECT_FALSE(parseFaultClass("").has_value());
}

TEST(FaultPlan, DefaultInjectsNothing)
{
    const FaultPlan plan;
    EXPECT_FALSE(plan.any());
    EXPECT_FALSE(plan.injectsSamples());
    for (const FaultClass cls : allFaultClasses())
        EXPECT_EQ(plan.rate(cls), 0.0);
}

TEST(FaultPlan, WithSetsRateAndValidates)
{
    FaultPlan plan;
    plan.with(FaultClass::DroppedSample, 0.25)
        .with(FaultClass::ThermalThrottle, 1.0);
    EXPECT_DOUBLE_EQ(plan.rate(FaultClass::DroppedSample), 0.25);
    EXPECT_DOUBLE_EQ(plan.rate(FaultClass::ThermalThrottle), 1.0);
    EXPECT_TRUE(plan.injectsSamples());
    EXPECT_TRUE(plan.any());

    EXPECT_DEATH(plan.with(FaultClass::DroppedSample, 1.5), "0, 1");
    EXPECT_DEATH(plan.with(FaultClass::DroppedSample, -0.1), "0, 1");
}

TEST(FaultPlan, PoisonedConfigAloneInjectsNoSamples)
{
    FaultPlan plan;
    plan.poisonedConfig = "some rig";
    EXPECT_TRUE(plan.any());
    EXPECT_FALSE(plan.injectsSamples());
}

TEST(FaultInjector, StreamIsAPureFunctionOfItsKey)
{
    FaultPlan plan;
    plan.seed = 0xABCD;
    for (const FaultClass cls : allFaultClasses())
        plan.with(cls, 0.2);

    constexpr int samples = 400;
    FaultInjector a(plan, 0x1111, 2, samples);
    FaultInjector b(plan, 0x1111, 2, samples);
    FaultInjector otherSession(plan, 0x1111, 3, samples);
    FaultInjector otherExperiment(plan, 0x2222, 2, samples);

    bool sessionDiffers = false, experimentDiffers = false;
    for (int i = 0; i < samples; ++i) {
        const SampleFault fa = a.next();
        EXPECT_TRUE(sameFault(fa, b.next())) << "sample " << i;
        sessionDiffers |= !sameFault(fa, otherSession.next());
        experimentDiffers |= !sameFault(fa, otherExperiment.next());
    }
    EXPECT_EQ(a.sampleIndex(), samples);
    EXPECT_TRUE(sessionDiffers);
    EXPECT_TRUE(experimentDiffers);
}

TEST(FaultInjector, RaplRatesLeaveTheOriginalStreamsUntouched)
{
    // The counter classes draw from a separate auxiliary stream, so
    // enabling them must not shift a single decision of the seven
    // Hall-era classes — existing fault studies stay reproducible.
    FaultPlan base;
    base.seed = 0xABCD;
    for (const FaultClass cls : allFaultClasses())
        if (cls != FaultClass::CounterWraparound &&
            cls != FaultClass::StaleCounter)
            base.with(cls, 0.2);
    FaultPlan withRapl = base;
    withRapl.with(FaultClass::CounterWraparound, 0.5)
        .with(FaultClass::StaleCounter, 0.5);

    constexpr int samples = 400;
    FaultInjector a(base, 0x1111, 2, samples);
    FaultInjector b(withRapl, 0x1111, 2, samples);
    bool sawWrap = false, sawStale = false;
    for (int i = 0; i < samples; ++i) {
        const SampleFault fa = a.next();
        const SampleFault fb = b.next();
        EXPECT_TRUE(samePaperFault(fa, fb)) << "sample " << i;
        EXPECT_FALSE(fa.wrapGlitch);
        EXPECT_FALSE(fa.stale);
        sawWrap |= fb.wrapGlitch;
        sawStale |= fb.stale;
    }
    EXPECT_TRUE(sawWrap);
    EXPECT_TRUE(sawStale);
}

TEST(FaultInjector, StaleBurstsChainAcrossSlots)
{
    // A rate-1.0 stale plan starts a burst on the first slot and
    // chains: every slot of the session re-reads the old counter.
    FaultPlan plan;
    plan.with(FaultClass::StaleCounter, 1.0);
    FaultInjector injector(plan, 0x5EED, 0, 64);
    for (int i = 0; i < 64; ++i)
        EXPECT_TRUE(injector.next().stale) << "sample " << i;
}

TEST(FaultInjector, ZeroRatesYieldCleanSamples)
{
    const FaultPlan plan; // all rates zero
    FaultInjector injector(plan, 0xFEED, 0, 256);
    for (int i = 0; i < 256; ++i) {
        const SampleFault fault = injector.next();
        EXPECT_FALSE(fault.lost);
        EXPECT_FALSE(fault.railed);
        EXPECT_EQ(fault.extraCopies, 0);
        EXPECT_DOUBLE_EQ(fault.powerScale, 1.0);
        EXPECT_DOUBLE_EQ(fault.countsGain, 1.0);
        EXPECT_FALSE(fault.wrapGlitch);
        EXPECT_FALSE(fault.stale);
    }
}

TEST(FaultInjector, DisconnectLosesEveryLaterSample)
{
    FaultPlan plan;
    plan.with(FaultClass::LoggerDisconnect, 1.0);
    constexpr int samples = 300;
    FaultInjector injector(plan, 0x5EED, 0, samples);
    int firstLost = -1;
    for (int i = 0; i < samples; ++i) {
        const bool lost = injector.next().lost;
        if (lost && firstLost < 0)
            firstLost = i;
        if (firstLost >= 0) {
            EXPECT_TRUE(lost) << "sample " << i;
        }
    }
    // The cut lands in the middle half of the session.
    ASSERT_GE(firstLost, samples / 4);
    ASSERT_LE(firstLost, 3 * samples / 4);
}

TEST(TraceLog, FaultedSamplingCountsAndLogs)
{
    const PowerChannel channel(SensorVariant::A30, 0x714);
    Rng calRng(0xCAFE);
    const Calibration calib =
        Calibration::calibrate(channel, calRng);
    HallSession session(channel, calib);
    PowerTraceLogger logger(session);
    Rng rng(0xD00D);

    logger.sample(0.00, 40.0, rng);

    SampleFault lost;
    lost.lost = true;
    logger.sample(0.02, 40.0, rng, lost);

    SampleFault duplicated;
    duplicated.extraCopies = 2;
    logger.sample(0.04, 40.0, rng, duplicated);

    SampleFault railed;
    railed.railed = true;
    logger.sample(0.06, 40.0, rng, railed);

    // 1 clean + (1 + 2 copies) + 1 railed; the lost slot is counted
    // but never logged.
    EXPECT_EQ(logger.count(), 5u);
    EXPECT_EQ(logger.lostSamples(), 1u);
    EXPECT_EQ(logger.duplicatedSamples(), 2u);

    const auto &log = logger.samples();
    // Duplicates repeat the slot's timestamp (how recovery spots them).
    EXPECT_DOUBLE_EQ(log[1].timeSec, 0.04);
    EXPECT_DOUBLE_EQ(log[2].timeSec, 0.04);
    EXPECT_DOUBLE_EQ(log[3].timeSec, 0.04);
    EXPECT_EQ(log[1].counts, log[2].counts);
    // The railed slot reads exactly the channel's rail code, far
    // above any honest 40W reading.
    EXPECT_EQ(log[4].counts, channel.railHighCounts());
    EXPECT_GT(log[4].counts, log[0].counts);

    logger.clear();
    EXPECT_EQ(logger.count(), 0u);
    EXPECT_EQ(logger.lostSamples(), 0u);
    EXPECT_EQ(logger.duplicatedSamples(), 0u);
}

TEST(RailCodes, BracketTheHonestRange)
{
    const PowerChannel channel(SensorVariant::A30, 0x714);
    EXPECT_GT(channel.railHighCounts(), channel.railLowCounts());
    // The ideal zero-current code sits between the rails.
    const int zero = PowerChannel::quantize(PowerChannel::zeroCurrentVolts);
    EXPECT_GT(channel.railHighCounts(), zero);
    EXPECT_LT(channel.railLowCounts(), zero);
    EXPECT_LT(channel.railHighCounts(), PowerChannel::adcCounts);
    EXPECT_GE(channel.railLowCounts(), 0);
}

TEST(Runner, EmptyPlanIsBitIdenticalToTheCleanPath)
{
    const auto cfg = stockConfig(processorById("i7 (45)"));
    const auto &bench = benchmarkByName("mcf");
    const auto &java = benchmarkByName("db");

    ExperimentRunner plain(0xBEEF);
    ExperimentRunner planned(0xBEEF);
    planned.setFaultPlan(FaultPlan{}); // all-zero: must change nothing
    MeasurementPolicy policy;          // defaults, harden on
    planned.setMeasurementPolicy(policy);

    EXPECT_TRUE(sameBits(plain.measure(cfg, bench),
                          planned.measure(cfg, bench)));
    EXPECT_TRUE(sameBits(plain.measure(cfg, java),
                          planned.measure(cfg, java)));
}

TEST(Runner, FaultPlanMustBeInstalledBeforeMeasuring)
{
    ExperimentRunner runner(0xBEEF);
    runner.measure(stockConfig(processorById("Atom (45)")),
                   benchmarkByName("mcf"));
    FaultPlan plan;
    plan.with(FaultClass::DroppedSample, 0.1);
    EXPECT_DEATH(runner.setFaultPlan(plan), "cached");
    EXPECT_DEATH(runner.setMeasurementPolicy(MeasurementPolicy{}),
                 "cached");
}

TEST(Runner, PoisonedConfigThrowsTypedFaultError)
{
    const auto poisoned = stockConfig(processorById("i7 (45)"));
    const auto healthy = stockConfig(processorById("Atom (45)"));
    const auto &bench = benchmarkByName("mcf");

    ExperimentRunner runner(0xBEEF);
    FaultPlan plan;
    plan.poisonedConfig = configKey(poisoned);
    runner.setFaultPlan(plan);

    try {
        runner.measure(poisoned, bench);
        FAIL() << "poisoned configuration measured successfully";
    } catch (const FaultError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::FaultDetected);
        EXPECT_NE(e.status().message().find(poisoned.label()),
                  std::string::npos);
    }

    // Other configurations are untouched — and bit-identical to a
    // plan-free runner, since a poison-only plan injects no samples.
    ExperimentRunner plain(0xBEEF);
    EXPECT_TRUE(sameBits(runner.measure(healthy, bench),
                          plain.measure(healthy, bench)));
}

TEST(Runner, PoisonMatchesTheExactConfig)
{
    // i7 (45) at 1.66 and at 1.70 GHz share the rounded display
    // label; poisoning one must leave the other measuring.
    const auto stock = stockConfig(processorById("i7 (45)"));
    const auto poisoned = withClock(stock, 1.66);
    const auto neighbour = withClock(stock, 1.70);
    ASSERT_EQ(poisoned.label(), neighbour.label());
    const auto &bench = benchmarkByName("mcf");

    ExperimentRunner runner(0xBEEF);
    FaultPlan plan;
    plan.poisonedConfig = configKey(poisoned);
    runner.setFaultPlan(plan);

    EXPECT_THROW(runner.measure(poisoned, bench), FaultError);
    ExperimentRunner plain(0xBEEF);
    EXPECT_TRUE(sameBits(runner.measure(neighbour, bench),
                          plain.measure(neighbour, bench)));
}

TEST(Runner, HardenedPipelineRecoversFromSaturation)
{
    const auto cfg = stockConfig(processorById("i7 (45)"));
    const auto &bench = benchmarkByName("mcf");

    ExperimentRunner clean(0xBEEF);
    const Measurement &truth = clean.measure(cfg, bench);

    FaultPlan plan;
    plan.seed = 0xBEEF;
    plan.with(FaultClass::SensorSaturation, 0.02);

    ExperimentRunner rawRunner(0xBEEF);
    rawRunner.setFaultPlan(plan);
    MeasurementPolicy raw;
    raw.harden = false;
    rawRunner.setMeasurementPolicy(raw);
    const Measurement &rawM = rawRunner.measure(cfg, bench);

    ExperimentRunner recRunner(0xBEEF);
    recRunner.setFaultPlan(plan);
    const Measurement &recM = recRunner.measure(cfg, bench);

    // Railed codes decode far above the real draw: the raw mean is
    // badly biased, the recovered mean is back near the truth.
    EXPECT_GT(rawM.powerW, truth.powerW * 1.10);
    EXPECT_NEAR(recM.powerW, truth.powerW, truth.powerW * 0.03);
    EXPECT_GT(recM.samplesRailed, 0);
    EXPECT_FALSE(recM.degraded);

    // Faulted measurements are deterministic: a second runner with
    // the same seed and plan reproduces both bit for bit.
    ExperimentRunner rawAgain(0xBEEF);
    rawAgain.setFaultPlan(plan);
    rawAgain.setMeasurementPolicy(raw);
    EXPECT_TRUE(sameBits(rawAgain.measure(cfg, bench), rawM));
    ExperimentRunner recAgain(0xBEEF);
    recAgain.setFaultPlan(plan);
    EXPECT_TRUE(sameBits(recAgain.measure(cfg, bench), recM));
}

TEST(Runner, DeadRigDegradesToFaultErrorNotAHang)
{
    // Rate-1.0 disconnects kill every session; retries and the CI
    // gate are capped, so the pipeline must give up with a typed
    // error rather than loop or fabricate a number.
    const auto cfg = stockConfig(processorById("i7 (45)"));
    const auto &bench = benchmarkByName("mcf");

    FaultPlan plan;
    plan.seed = 1;
    plan.with(FaultClass::LoggerDisconnect, 1.0)
        .with(FaultClass::DroppedSample, 0.9);

    ExperimentRunner runner(0xBEEF);
    runner.setFaultPlan(plan);

    EXPECT_THROW(runner.measure(cfg, bench), FaultError);
}

} // namespace lhr
