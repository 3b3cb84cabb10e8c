/**
 * @file
 * Tests for the PowerSensor abstraction: backend naming, the Hall
 * backend's bit-equivalence to the pre-abstraction channel chain,
 * both backends' batched sessions against the scalar session loop
 * (kept here as the reference), RAPL counter semantics
 * (quantization, wrap absorption, stale and wrap-glitch faults),
 * per-era backend selection, and the runner's backend plumbing end
 * to end.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "machine/processor.hh"
#include "sensor/calibration.hh"
#include "sensor/channel.hh"
#include "sensor/hall.hh"
#include "sensor/rapl.hh"
#include "sensor/sampling.hh"
#include "sensor/sensor.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace lhr
{

namespace
{

/** A flat-ish two-phase waveform around 40W. */
const std::vector<double> kPhases = {38.0, 44.0, 41.0, 39.5};

/**
 * The scalar definition of PowerSensor::sessionWatts(): one session,
 * then one fault-free read() per sample with the supply ripple drawn
 * first, decoded watts summed in sample order. The batched samplers
 * of both backends must reproduce it to the bit.
 */
double
scalarSessionWatts(const PowerSensor &sensor, const double *phase_power_w,
                   int phases, double scale, int samples, Rng &inv_rng)
{
    const auto session = sensor.beginSession(inv_rng);
    const SampleFault noFault;
    double sum = 0.0;
    for (int s = 0; s < samples; ++s) {
        const int k = sessionPhase(s, phases, samples);
        const double trueW = phase_power_w[k] * scale *
            (1.0 + PowerChannel::supplyRipple * inv_rng.gaussian());
        sum += session->read(trueW, inv_rng, noFault).watts;
    }
    return sum;
}

/**
 * Run one session both ways from equal streams (with a pending
 * Box-Muller half left cached when asked) and check the sum's bits
 * and the raw stream position agree.
 */
void
expectBatchedMatchesScalar(const PowerSensor &sensor,
                           const std::vector<double> &phases,
                           double scale, int samples, bool pending,
                           uint64_t seed, const std::string &where)
{
    Rng batched(seed), scalar(seed);
    if (pending) {
        (void)batched.gaussian();
        (void)scalar.gaussian();
    }
    ASSERT_EQ(batched.hasPendingGaussian(), pending) << where;
    const int n = static_cast<int>(phases.size());
    const double a =
        sensor.sessionWatts(phases.data(), n, scale, samples, batched);
    const double b = scalarSessionWatts(sensor, phases.data(), n, scale,
                                        samples, scalar);
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << where << ": " << a << " vs " << b;
    EXPECT_EQ(batched.next(), scalar.next()) << where;
}

} // namespace

TEST(SensorBackend, NamesRoundTrip)
{
    for (const SensorBackend backend :
         {SensorBackend::HallEffect, SensorBackend::Rapl}) {
        const auto parsed =
            parseSensorBackend(sensorBackendName(backend));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, backend);
    }
    EXPECT_FALSE(parseSensorBackend("wattmeter").has_value());
    EXPECT_FALSE(parseSensorBackend("").has_value());
}

TEST(SensorBackend, HallSessionIsBitIdenticalToTheChannelChain)
{
    // The abstraction's contract: a HallEffectSensor built from
    // (variant, device seed, cal seed) samples exactly like the
    // pre-abstraction PowerChannel + Calibration pipeline.
    const uint64_t deviceSeed = 0x714;
    const uint64_t calSeed = 0xCAFE;
    const HallEffectSensor sensor(SensorVariant::A30, deviceSeed,
                                  calSeed);

    const PowerChannel channel(SensorVariant::A30, deviceSeed);
    Rng calRng(calSeed);
    const Calibration calib = Calibration::calibrate(channel, calRng);

    constexpr int samples = 500;
    Rng viaSensor(0xD00D);
    Rng viaChain(0xD00D);
    const double a = sensor.sessionWatts(
        kPhases.data(), static_cast<int>(kPhases.size()), 1.02,
        samples, viaSensor);
    const double b = sampleSessionWatts(
        channel, calib, kPhases.data(),
        static_cast<int>(kPhases.size()), 1.02, samples, viaChain);
    EXPECT_EQ(a, b);
    // ... and leaves the invocation stream at the same position.
    EXPECT_EQ(viaSensor.next(), viaChain.next());
}

TEST(SensorBackend, BatchedSessionMatchesScalarChain)
{
    // Both backends' batched samplers against the scalar loop of
    // beginSession() + read(): the same sum to the bit, and the
    // invocation stream left at the same position. The 0 W phases
    // send their samples through the exact fallback (the Hall
    // sampler's zero-watt guard, RAPL's x <= 1 lanes), which the
    // ~40 W waveform reaches only about once per million samples.
    // Above 1600 W a RAPL slot's delta exceeds wrapGlitchCode and
    // the recorded code pegs there.
    const std::vector<double> zeroPhases = {0.0, 40.0, 0.0, 12.0};
    const std::vector<double> peggedPhases = {1700.0, 2500.0, 40.0};
    std::vector<std::unique_ptr<PowerSensor>> sensors;
    std::vector<std::string> names;
    for (const SensorVariant variant :
         {SensorVariant::A5, SensorVariant::A30}) {
        sensors.push_back(
            std::make_unique<HallEffectSensor>(variant, 0x714, 0xCAFE));
        names.push_back(variant == SensorVariant::A5 ? "A5" : "A30");
    }
    sensors.push_back(std::make_unique<RaplSensor>(0x5EED));
    names.push_back("RAPL");

    for (size_t i = 0; i < sensors.size(); ++i) {
        const bool rapl = sensors[i]->backend() == SensorBackend::Rapl;
        for (const std::vector<double> *phases :
             {&kPhases, &zeroPhases, &peggedPhases}) {
            // The Hall channel panics far below 1600 W.
            if (phases == &peggedPhases && !rapl)
                continue;
            for (const int samples : {8, 37, 1000, 1501}) {
                for (const bool pending : {false, true}) {
                    expectBatchedMatchesScalar(
                        *sensors[i], *phases, 1.02, samples, pending,
                        0xD00D,
                        msgOf(names[i], " phase[0] ", (*phases)[0],
                              " samples ", samples,
                              pending ? " pending" : ""));
                }
            }
        }
    }
}

TEST(SensorBackend, RaplBatchedSessionMatchesScalarOnRandomSessions)
{
    // A seeded sweep over devices, waveforms (exact 0 W phases,
    // milliwatts that round to a unit or none, ordinary loads, and
    // pegging >1600 W phases), scales, lengths and pending halves.
    const double ceilings[] = {0.02, 1.0, 150.0, 3000.0};
    Rng pick(0x5A3D);
    for (int trial = 0; trial < 3000; ++trial) {
        const RaplSensor sensor(pick.next());
        const int nPhases = 1 + static_cast<int>(pick.below(64));
        const double ceiling = ceilings[pick.below(4)];
        std::vector<double> phases(static_cast<size_t>(nPhases));
        for (double &w : phases)
            w = pick.below(8) == 0 ? 0.0 : pick.uniform(0.0, ceiling);
        const double scale = pick.uniform(0.9, 1.1);
        const int samples = 1 + static_cast<int>(pick.below(200));
        const bool pending = pick.below(2) == 0;
        expectBatchedMatchesScalar(
            sensor, phases, scale, samples, pending, pick.next(),
            msgOf("trial ", trial, " ceiling ", ceiling, " samples ",
                  samples, pending ? " pending" : ""));
        if (HasFailure())
            return;
    }
}

TEST(SensorBackend, HallBeginSessionDrawsNothing)
{
    const HallEffectSensor sensor(SensorVariant::A5, 1, 2);
    Rng touched(42), untouched(42);
    const auto session = sensor.beginSession(touched);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(touched.next(), untouched.next());
}

TEST(SensorBackend, MakeSensorSeedsTheHallChainLikeTheOldRig)
{
    const auto &spec = processorById("i7 (45)");
    const uint64_t baseSeed = 0xBEEF;
    const auto sensor =
        makeSensor(SensorBackend::HallEffect, spec, baseSeed);
    ASSERT_EQ(sensor->backend(), SensorBackend::HallEffect);

    // i7's TDP (130W) selects the 30A variant; seeds derive from the
    // spec id exactly as the pre-abstraction rig derived them.
    const PowerChannel channel(SensorVariant::A30,
                               baseSeed ^ fnv1a(spec.id));
    Rng calRng(baseSeed ^ fnv1a(spec.id + "/cal"));
    const Calibration calib = Calibration::calibrate(channel, calRng);

    Rng viaSensor(7), viaChain(7);
    EXPECT_EQ(sensor->sessionWatts(kPhases.data(),
                                   static_cast<int>(kPhases.size()),
                                   1.0, 300, viaSensor),
              sampleSessionWatts(channel, calib, kPhases.data(),
                                 static_cast<int>(kPhases.size()),
                                 1.0, 300, viaChain));
    EXPECT_EQ(sensor->railHighCode(), channel.railHighCounts());
    EXPECT_EQ(sensor->railLowCode(), channel.railLowCounts());
}

TEST(SensorBackend, RaplSessionIsDeterministicAndNearTruth)
{
    const RaplSensor sensor(0x5EED);
    constexpr int samples = 1000;
    const double trueW = 40.625; // mean of kPhases

    Rng a(0x1234), b(0x1234);
    const double sumA = sensor.sessionWatts(
        kPhases.data(), static_cast<int>(kPhases.size()), 1.0,
        samples, a);
    const double sumB = sensor.sessionWatts(
        kPhases.data(), static_cast<int>(kPhases.size()), 1.0,
        samples, b);
    EXPECT_EQ(sumA, sumB);

    // The decode carries only the device's ±2% systematic gain and
    // sub-unit quantization; the mean must land near the true draw.
    const double mean = sumA / samples;
    EXPECT_NEAR(mean, trueW * sensor.deviceGain(), trueW * 0.01);
    EXPECT_NEAR(mean, trueW, trueW * 0.06);
}

TEST(SensorBackend, RaplAbsorbsNaturalCounterWraps)
{
    // The 32-bit counter wraps every ~32k slots at 100W; a correct
    // reader differences in unsigned arithmetic, so every slot of a
    // constant-power session decodes identically across many wraps.
    const RaplSensor sensor(0x5EED);
    Rng rng(9);
    const auto session = sensor.beginSession(rng);
    const SampleFault clean;
    const SensorReading first = session->read(100.0, rng, clean);
    EXPECT_GT(first.code, 0);
    EXPECT_LT(first.code, sensor.railHighCode());
    for (int slot = 0; slot < 100000; ++slot) {
        const SensorReading r = session->read(100.0, rng, clean);
        ASSERT_EQ(r.code, first.code) << "slot " << slot;
        ASSERT_EQ(r.watts, first.watts) << "slot " << slot;
    }
}

TEST(SensorBackend, RaplStaleReadThenDoubleDeltaCatchUp)
{
    const RaplSensor sensor(0x5EED);
    Rng rng(11);
    const auto session = sensor.beginSession(rng);
    const SampleFault clean;
    SampleFault stale;
    stale.stale = true;

    const SensorReading before = session->read(60.0, rng, clean);
    // The stale slot re-reads the previous counter value: zero
    // delta, the backend's low rail.
    const SensorReading staleRead = session->read(60.0, rng, stale);
    EXPECT_EQ(staleRead.code, sensor.railLowCode());
    EXPECT_EQ(staleRead.watts, 0.0);
    // The next honest read catches up both slots' energy.
    const SensorReading catchUp = session->read(60.0, rng, clean);
    EXPECT_EQ(catchUp.code, 2 * before.code);
    EXPECT_EQ(catchUp.watts, 2.0 * before.watts);
    // ... and the session then returns to the steady-state delta.
    EXPECT_EQ(session->read(60.0, rng, clean).code, before.code);
}

TEST(SensorBackend, RaplWrapGlitchPegsAtTheHighRail)
{
    const RaplSensor sensor(0x5EED);
    Rng rng(13);
    const auto session = sensor.beginSession(rng);
    SampleFault glitch;
    glitch.wrapGlitch = true;

    const SensorReading r = session->read(80.0, rng, glitch);
    EXPECT_EQ(r.code, RaplSensor::wrapGlitchCode);
    EXPECT_EQ(r.code, sensor.railHighCode());
    // 2^21 units per 20ms slot decodes to exactly 1600W — far
    // outside any honest delta, so the rail screen rejects it.
    EXPECT_DOUBLE_EQ(r.watts, 1600.0);
    EXPECT_GT(r.code, session->read(80.0, rng, SampleFault{}).code);
}

TEST(SensorBackend, DefaultBackendFollowsTheEra)
{
    for (const auto &spec : allProcessors())
        EXPECT_EQ(defaultSensorBackend(spec),
                  SensorBackend::HallEffect)
            << spec.id;
    for (const auto &spec : postPaperProcessors())
        EXPECT_EQ(defaultSensorBackend(spec), SensorBackend::Rapl)
            << spec.id;
}

TEST(RunnerBackend, RigCarriesTheConfiguredBackend)
{
    const auto &i7 = processorById("i7 (45)");
    const auto &xeon = processorById("XeonSP (14)");

    // Unforced, each rig follows its era.
    ExperimentRunner byEra(0xBEEF);
    EXPECT_EQ(byEra.forcedSensor(), std::nullopt);
    EXPECT_EQ(byEra.sensor(i7).backend(), SensorBackend::HallEffect);
    EXPECT_NE(byEra.sensor(i7).calibration(), nullptr);
    EXPECT_EQ(byEra.sensor(xeon).backend(), SensorBackend::Rapl);

    // A forced backend wins over the era, in both directions.
    ExperimentRunner rapl(0xBEEF, SensorBackend::Rapl);
    EXPECT_EQ(rapl.forcedSensor(), SensorBackend::Rapl);
    EXPECT_EQ(rapl.sensor(i7).backend(), SensorBackend::Rapl);
    EXPECT_EQ(rapl.sensor(i7).calibration(), nullptr);

    ExperimentRunner hall(0xBEEF, SensorBackend::HallEffect);
    EXPECT_EQ(hall.sensor(xeon).backend(), SensorBackend::HallEffect);
    EXPECT_NE(hall.sensor(xeon).calibration(), nullptr);
}

TEST(RunnerBackend, RaplMeasurementsAreDeterministicAndDiffer)
{
    const auto cfg = stockConfig(processorById("i7 (45)"));
    const auto &bench = benchmarkByName("mcf");

    ExperimentRunner a(0xBEEF, SensorBackend::Rapl);
    ExperimentRunner b(0xBEEF, SensorBackend::Rapl);
    ExperimentRunner hall(0xBEEF);

    const Measurement &ma = a.measure(cfg, bench);
    EXPECT_TRUE(sameBits(ma, b.measure(cfg, bench)));

    // The backend is actually in the loop: the Hall chain decodes
    // through a different noise path, so the two disagree...
    const Measurement &mh = hall.measure(cfg, bench);
    EXPECT_NE(ma.powerW, mh.powerW);
    // ... but both measure the same rig, so only within a few
    // percent (Hall noise, RAPL gain and quantization).
    EXPECT_NEAR(ma.powerW, mh.powerW, mh.powerW * 0.08);
    EXPECT_EQ(ma.invocations, mh.invocations);
}

TEST(RunnerBackend, ServerPartMeasuresUnderRaplByDefault)
{
    const auto cfg = stockConfig(processorById("XeonE5v3 (22)"));
    const auto &bench = benchmarkByName("mcf");
    ExperimentRunner runner(0xBEEF);
    EXPECT_EQ(runner.sensor(*cfg.spec).backend(),
              SensorBackend::Rapl);
    const Measurement &m = runner.measure(cfg, bench);
    EXPECT_GT(m.powerW, 10.0);
    EXPECT_LT(m.powerW, cfg.spec->tdpW);
}

TEST(RunnerBackend, HardenedPipelineRecoversFromRaplFaults)
{
    const auto cfg = stockConfig(processorById("XeonE5 (32)"));
    const auto &bench = benchmarkByName("mcf");

    ExperimentRunner clean(0xBEEF);
    const Measurement &truth = clean.measure(cfg, bench);

    // Wrap glitches peg at the high rail, stale reads at the low
    // rail; the hardened pipeline's rail screen rejects both.
    FaultPlan plan;
    plan.seed = 0xBEEF;
    plan.with(FaultClass::CounterWraparound, 0.02)
        .with(FaultClass::StaleCounter, 0.03);

    ExperimentRunner faulted(0xBEEF);
    faulted.setFaultPlan(plan);
    const Measurement &recovered = faulted.measure(cfg, bench);

    EXPECT_GT(recovered.samplesRailed, 0);
    EXPECT_FALSE(recovered.degraded);
    // Stale slots move their energy into the next slot's catch-up,
    // so the surviving mean rides a few percent above the truth but
    // nowhere near the 1600W a raw wrap glitch injects.
    EXPECT_NEAR(recovered.powerW, truth.powerW, truth.powerW * 0.10);

    ExperimentRunner again(0xBEEF);
    again.setFaultPlan(plan);
    EXPECT_TRUE(sameBits(again.measure(cfg, bench), recovered));
}

} // namespace lhr
