/**
 * @file
 * Tests for the measurement harness: determinism, methodology,
 * reference normalization, and aggregation (paper sections 2.5-2.6).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/aggregate.hh"
#include "harness/reference.hh"
#include "harness/runner.hh"
#include "sensor/calibration.hh"

namespace lhr
{

namespace
{

const ProcessorSpec &i7() { return processorById("i7 (45)"); }

} // namespace

TEST(Runner, DeterministicForEqualSeeds)
{
    ExperimentRunner a(99), b(99);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("xalan");
    const Measurement &ma = a.measure(cfg, bench);
    const Measurement &mb = b.measure(cfg, bench);
    EXPECT_DOUBLE_EQ(ma.timeSec, mb.timeSec);
    EXPECT_DOUBLE_EQ(ma.powerW, mb.powerW);
    EXPECT_DOUBLE_EQ(ma.timeCi95Rel, mb.timeCi95Rel);
}

TEST(Runner, DifferentSeedsPerturbMeasurements)
{
    ExperimentRunner a(1), b(2);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("xalan");
    EXPECT_NE(a.measure(cfg, bench).timeSec,
              b.measure(cfg, bench).timeSec);
}

TEST(Runner, OrderIndependentMeasurements)
{
    // Each (config, benchmark) pair derives its own stream, so
    // measuring in a different order gives identical results.
    const auto cfg = stockConfig(i7());
    const auto &first = benchmarkByName("mcf");
    const auto &second = benchmarkByName("xalan");

    ExperimentRunner fwd(7);
    const double t1 = fwd.measure(cfg, first).timeSec;
    const double t2 = fwd.measure(cfg, second).timeSec;

    ExperimentRunner rev(7);
    const double r2 = rev.measure(cfg, second).timeSec;
    const double r1 = rev.measure(cfg, first).timeSec;

    EXPECT_DOUBLE_EQ(t1, r1);
    EXPECT_DOUBLE_EQ(t2, r2);
}

TEST(Runner, NearbyClocksDoNotShareCache)
{
    // The display label rounds the clock to one decimal; the cache
    // must not (regression test for a label-keyed cache collision).
    ExperimentRunner runner(77);
    auto base = withTurbo(stockConfig(processorById("i5 (32)")), false);
    const auto a = withClock(base, 2.60);
    const auto b = withClock(base, 2.64);
    ASSERT_EQ(a.label(), b.label()); // same display label...
    EXPECT_NE(runner.measure(a, benchmarkByName("mcf")).timeSec,
              runner.measure(b, benchmarkByName("mcf")).timeSec);
}

TEST(Runner, KeyOfBytesArePinned)
{
    // keyOf's bytes seed every experiment's random stream, so any
    // change to them changes every measured number.
    const auto &mcf = benchmarkByName("mcf");
    const auto stock = stockConfig(i7());
    const auto noTurbo = withTurbo(stock, false);
    const auto custom =
        withClock(withTurbo(stockConfig(processorById("i5 (32)")), false),
                  2.64);
    EXPECT_EQ(ExperimentRunner::keyOf(stock, mcf),
              "i7 (45)|4|2|2.667000|1|mcf");
    EXPECT_EQ(ExperimentRunner::keyOf(noTurbo, mcf),
              "i7 (45)|4|2|2.667000|0|mcf");
    EXPECT_EQ(ExperimentRunner::keyOf(custom, mcf),
              "i5 (32)|2|2|2.640000|0|mcf");
    for (const auto &cfg : {stock, noTurbo, custom})
        EXPECT_EQ(ExperimentRunner::keyOf(cfg, mcf),
                  configKey(cfg) + mcf.name);
}

TEST(Runner, LongProcessorIdsKeepDistinctConfigKeys)
{
    // Custom machine files accept ids of any length; no key format
    // may truncate one into another configuration's identity.
    ProcessorSpec spec = i7();
    spec.id = std::string(200, 'x');
    const auto stock = stockConfig(spec);
    const auto slow = withClock(stock, 1.6);
    EXPECT_NE(configKey(stock), configKey(slow));
    EXPECT_EQ(configKey(stock), spec.id + "|4|2|2.667000|1|");
}

TEST(Runner, CachingReturnsSameObject)
{
    ExperimentRunner runner(3);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("db");
    const Measurement &a = runner.measure(cfg, bench);
    const Measurement &b = runner.measure(cfg, bench);
    EXPECT_EQ(&a, &b);
}

TEST(Runner, MemoPeekOfAbsentKeyIsNullAndUncounted)
{
    ExperimentRunner runner(3);
    EXPECT_EQ(runner.peekCache(stockConfig(i7()), benchmarkByName("db")),
              nullptr);
    EXPECT_EQ(runner.cacheStats().lookups(), 0u);
    EXPECT_EQ(runner.cachedMeasurements(), 0u);
}

TEST(Runner, MemoSeededKeyIsOneHitOnTheSeededObject)
{
    ExperimentRunner runner(3);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("db");
    Measurement seeded;
    seeded.timeSec = 12.5;
    seeded.powerW = 40.25;
    seeded.invocations = 20;
    ASSERT_TRUE(runner.seedCache(cfg, bench, seeded));
    EXPECT_EQ(runner.cacheStats().lookups(), 0u);

    const Measurement *peeked = runner.peekCache(cfg, bench);
    ASSERT_NE(peeked, nullptr);
    EXPECT_TRUE(sameBits(*peeked, seeded));
    EXPECT_EQ(&runner.measure(cfg, bench), peeked);
    const CacheStats stats = runner.cacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
}

TEST(Runner, MemoSeedOfCachedKeyIsRefused)
{
    ExperimentRunner runner(3);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("mcf");
    const Measurement &measured = runner.measure(cfg, bench);
    Measurement other = measured;
    other.powerW += 1.0;
    EXPECT_FALSE(runner.seedCache(cfg, bench, other));
    EXPECT_FALSE(runner.seedCache(cfg, bench, measured));
    EXPECT_EQ(runner.peekCache(cfg, bench), &measured);
    EXPECT_EQ(runner.cachedMeasurements(), 1u);
}

TEST(Runner, MemoPeekDuringMeasureIsNullOrPublished)
{
    // A Java key runs 20 invocations; while one thread is inside
    // measure(), peekCache must answer nullptr or the published
    // object, never a half-written one.
    ExperimentRunner runner(3);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("xalan");
    std::atomic<const Measurement *> measured{nullptr};
    std::thread producer(
        [&] { measured.store(&runner.measure(cfg, bench)); });
    std::vector<const Measurement *> published;
    while (measured.load() == nullptr) {
        if (const Measurement *p = runner.peekCache(cfg, bench))
            published.push_back(p);
    }
    producer.join();
    for (const Measurement *p : published)
        EXPECT_EQ(p, measured.load());
    EXPECT_EQ(runner.peekCache(cfg, bench), measured.load());
    EXPECT_EQ(runner.cacheStats().lookups(), 1u);
}

TEST(Runner, InvocationCountsFollowMethodology)
{
    ExperimentRunner runner(4);
    const auto cfg = stockConfig(i7());
    EXPECT_EQ(runner.measure(cfg, benchmarkByName("mcf")).invocations,
              3);
    EXPECT_EQ(
        runner.measure(cfg, benchmarkByName("ferret")).invocations, 5);
    EXPECT_EQ(
        runner.measure(cfg, benchmarkByName("xalan")).invocations, 20);
}

TEST(Runner, MeasuredPowerTracksTruePower)
{
    ExperimentRunner runner(5);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("fluidanimate");
    const auto profile = runner.profile(cfg, bench);
    const auto &m = runner.measure(cfg, bench);
    EXPECT_NEAR(m.powerW, profile.power.total(),
                0.06 * profile.power.total());
}

TEST(Runner, MeasuredTimeTracksTrueTime)
{
    ExperimentRunner runner(6);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("mcf");
    const auto profile = runner.profile(cfg, bench);
    const auto &m = runner.measure(cfg, bench);
    EXPECT_NEAR(m.timeSec, profile.timeSec, 0.05 * profile.timeSec);
}

TEST(Runner, TurboGrantsOnStockI7)
{
    ExperimentRunner runner(8);
    const auto &bench = benchmarkByName("mcf"); // single-threaded
    const auto tb = runner.profile(stockConfig(i7()), bench);
    // One active core: two turbo steps.
    EXPECT_NEAR(tb.grantedClockGhz,
                i7().stockClockGhz + 2.0 * i7().turboStepGhz,
                1e-9);
    const auto noTb =
        runner.profile(withTurbo(stockConfig(i7()), false), bench);
    EXPECT_NEAR(noTb.grantedClockGhz, i7().stockClockGhz, 1e-12);
    EXPECT_LT(tb.timeSec, noTb.timeSec);
}

TEST(Runner, CalibrationRigsMeetQualityGate)
{
    ExperimentRunner runner(9);
    for (const auto &spec : allProcessors())
        EXPECT_GE(runner.sensor(spec).calibration()->r2(), 0.999)
            << spec.id;
}

TEST(Reference, CoversAllBenchmarks)
{
    ExperimentRunner runner(10);
    const ReferenceSet ref(runner);
    for (const auto &bench : allBenchmarks()) {
        EXPECT_GT(ref.refTimeSec(bench), 0.0) << bench.name;
        EXPECT_GT(ref.refPowerW(bench), 0.0) << bench.name;
        EXPECT_NEAR(ref.refEnergyJ(bench),
                    ref.refTimeSec(bench) * ref.refPowerW(bench),
                    1e-9) << bench.name;
    }
}

TEST(Reference, IsMeanOfFourMachines)
{
    ExperimentRunner runner(11);
    const ReferenceSet ref(runner);
    const auto &bench = benchmarkByName("gcc");
    double sum = 0.0;
    for (const auto &id : ReferenceSet::referenceProcessorIds()) {
        sum += runner.measure(stockConfig(processorById(id)), bench)
                   .timeSec;
    }
    EXPECT_NEAR(ref.refTimeSec(bench), sum / 4.0, 1e-9);
}

TEST(Reference, HarmonicMeanOfReferencePerfIsOne)
{
    // By construction (paper section 2.6): the mean of the four
    // reference times is the reference, so the harmonic mean of the
    // four speedups is exactly 1 per benchmark.
    ExperimentRunner runner(12);
    const ReferenceSet ref(runner);
    const auto &bench = benchmarkByName("astar");
    double invSum = 0.0;
    for (const auto &id : ReferenceSet::referenceProcessorIds()) {
        const auto cfg = stockConfig(processorById(id));
        const double perf =
            ref.refTimeSec(bench) / runner.measure(cfg, bench).timeSec;
        invSum += 1.0 / perf;
    }
    EXPECT_NEAR(4.0 / invSum, 1.0, 1e-9);
}

TEST(Aggregate, EqualGroupWeighting)
{
    ExperimentRunner runner(13);
    const ReferenceSet ref(runner);
    const auto agg =
        aggregateConfig(runner, ref, stockConfig(i7()));
    double groupMeanOfPerf = 0.0;
    for (const auto &g : agg.byGroup)
        groupMeanOfPerf += g.perf;
    EXPECT_NEAR(agg.weighted.perf, groupMeanOfPerf / 4.0, 1e-12);
}

TEST(Aggregate, MinMaxBracketGroups)
{
    ExperimentRunner runner(14);
    const ReferenceSet ref(runner);
    const auto agg =
        aggregateConfig(runner, ref, stockConfig(i7()));
    for (const auto &g : agg.byGroup) {
        EXPECT_GE(g.perf, agg.minPerf);
        EXPECT_LE(g.perf, agg.maxPerf);
        EXPECT_GE(g.powerW, agg.minPowerW);
        EXPECT_LE(g.powerW, agg.maxPowerW);
    }
}

TEST(Aggregate, EnergyIsPowerTimesTimeNormalized)
{
    ExperimentRunner runner(15);
    const ReferenceSet ref(runner);
    const auto cfg = stockConfig(i7());
    const auto &bench = benchmarkByName("lusearch");
    const auto r = benchResult(runner, ref, cfg, bench);
    const auto &m = runner.measure(cfg, bench);
    EXPECT_NEAR(r.energy, m.energyJ() / ref.refEnergyJ(bench), 1e-12);
    EXPECT_NEAR(r.perf, ref.refTimeSec(bench) / m.timeSec, 1e-12);
}

TEST(Aggregate, ScalablesOutperformOnManyContexts)
{
    ExperimentRunner runner(16);
    const ReferenceSet ref(runner);
    const auto agg =
        aggregateConfig(runner, ref, stockConfig(i7()));
    EXPECT_GT(agg.group(Group::NativeScalable).perf,
              agg.group(Group::NativeNonScalable).perf);
    EXPECT_GT(agg.group(Group::JavaScalable).perf,
              agg.group(Group::JavaNonScalable).perf);
}

} // namespace lhr
