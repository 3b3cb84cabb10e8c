#include "harness/runner.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "jvm/jvm_model.hh"
#include "sensor/trace_log.hh"
#include "workload/phases.hh"
#include "power/turbo.hh"
#include "stats/summary.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace lhr
{

namespace
{

// The hardened pipeline's gates and caps (see MeasurementPolicy).

/** Re-run until both relative 95% CIs are inside this gate. */
constexpr double ciGateRel = 0.05;

/**
 * A session whose first- and second-half power means differ by more
 * than this fraction is rejected (calibration drift, throttle or
 * co-runner windows show up as exactly this skew).
 */
constexpr double balanceGateRel = 0.04;

/** Minimum surviving-sample fraction for a session to count. */
constexpr double minSampleFraction = 0.6;

/** Re-runs allowed per invalid invocation. */
constexpr int maxRetries = 3;

/** Extra invocations allowed by the CI gate. */
constexpr int maxExtraInvocations = 12;

/** Median/MAD rejection threshold across invocations. */
constexpr double outlierMadK = 6.0;

/** Switching-activity vector from a PerfResult's utilizations. */
std::vector<double>
activityOf(const PerfResult &run, const Benchmark &bench)
{
    // A second SMT thread keeps more of the core's front end and
    // thread-duplicated state toggling even at equal utilization.
    const double smtBoost = 0.07 * (run.threadsPerCore - 1);
    std::vector<double> act(run.coreUtilization.size(), 0.0);
    for (size_t i = 0; i < act.size(); ++i) {
        if (run.coreUtilization[i] > 0.0) {
            act[i] = std::min(1.0,
                switchingActivity(run.coreUtilization[i],
                                  bench.fpShare) + smtBoost);
        }
    }
    return act;
}

int
countActive(const std::vector<double> &activity)
{
    int n = 0;
    for (double a : activity)
        if (a > 0.0)
            ++n;
    return std::max(1, n);
}

/** The random draws that open one benchmark invocation. */
struct InvocationDraw
{
    double measuredTime; ///< the invocation's timed result
    double powerScale;   ///< run-to-run power multiplier
    int samples;         ///< 50Hz sensor samples in the session
};

/**
 * Draw one invocation's timing and power scale from its stream, in
 * the order every measurement path consumes them: JVM residual
 * warm-up jitter (Java only), timing noise, power scale.
 */
InvocationDraw
drawInvocation(const Benchmark &bench, const ExecutionProfile &prof,
               Rng &inv_rng)
{
    const bool java = bench.language() == Language::Java;
    const double timeSigma = java ? 0.016 : 0.004;
    // Run-to-run power differs beyond sensor noise: thermal drift,
    // GC/phase alignment, OS scheduling. Phase-rich benchmarks vary
    // more.
    const double powerSigma =
        (java ? 0.012 : 0.008) + 0.04 * bench.phaseVariability;

    double trueTime = prof.timeSec;
    if (java) {
        // Warm-up iterations 1..4 run unmeasured inside the
        // invocation; the measured fifth iteration still carries a
        // little residual compiler activity.
        trueTime *= JvmModel::warmupFactor(
            JvmMethodology::measuredIteration);
        trueTime *= 1.0 + 0.01 * std::fabs(inv_rng.gaussian());
    }
    InvocationDraw draw;
    draw.measuredTime = trueTime * (1.0 + timeSigma * inv_rng.gaussian());
    draw.powerScale = 1.0 + powerSigma * inv_rng.gaussian();

    const double duration =
        std::min(draw.measuredTime, ExperimentRunner::maxSampledSec);
    draw.samples = std::max(
        10, static_cast<int>(duration * PowerChannel::sampleHz));
    return draw;
}

/**
 * Fill a measurement's means, relative 95% CIs and invocation count
 * from the time and power summaries of the invocations it kept.
 */
void
summarize(Measurement &m, const Summary &time_stats,
          const Summary &power_stats)
{
    m.timeSec = time_stats.mean();
    m.timeCi95Rel = time_stats.ci95Relative();
    m.powerW = power_stats.mean();
    m.powerCi95Rel = power_stats.ci95Relative();
    m.invocations = static_cast<int>(time_stats.count());
}

} // namespace

ExperimentRunner::ExperimentRunner(uint64_t seed,
                                   std::optional<SensorBackend> sensor)
    : baseSeed(seed), sensorChoice(sensor)
{
}

std::string
ExperimentRunner::keyOf(const MachineConfig &cfg, const Benchmark &bench)
{
    return configKey(cfg, bench.name);
}

void
ExperimentRunner::setFaultPlan(FaultPlan plan)
{
    if (cachedMeasurements() > 0) {
        panic("ExperimentRunner::setFaultPlan: measurements taken "
              "under the previous plan are already cached");
    }
    faults = std::move(plan);
}

void
ExperimentRunner::setMeasurementPolicy(const MeasurementPolicy &pol)
{
    if (cachedMeasurements() > 0) {
        panic("ExperimentRunner::setMeasurementPolicy: measurements "
              "taken under the previous policy are already cached");
    }
    policy = pol;
}

/**
 * Find-or-create the spec's slot under specMutex, then build it
 * exactly once outside that lock. Concurrent callers for the same
 * spec block on the slot's once_flag, not on each other's builds
 * for different specs.
 */
const ExperimentRunner::SpecSlot &
ExperimentRunner::specSlot(const ProcessorSpec &spec)
{
    SpecSlot *slot;
    {
        std::lock_guard<std::mutex> lock(specMutex);
        auto &owned = specSlots[&spec];
        if (!owned)
            owned = std::make_unique<SpecSlot>();
        slot = owned.get();
    }
    std::call_once(slot->once, [&] {
        slot->perf = std::make_unique<PerfModel>(spec);
        slot->power = std::make_unique<ChipPowerModel>(spec);
        slot->sensor = makeSensor(
            sensorChoice.value_or(defaultSensorBackend(spec)), spec,
            baseSeed);
    });
    return *slot;
}

const PerfModel &
ExperimentRunner::perfModel(const ProcessorSpec &spec)
{
    return *specSlot(spec).perf;
}

const ChipPowerModel &
ExperimentRunner::powerModel(const ProcessorSpec &spec)
{
    return *specSlot(spec).power;
}

const PowerSensor &
ExperimentRunner::sensor(const ProcessorSpec &spec)
{
    return *specSlot(spec).sensor;
}

ExecutionProfile
ExperimentRunner::profile(const MachineConfig &cfg, const Benchmark &bench)
{
    const ProcessorSpec &spec = *cfg.spec;
    const SpecSlot &slot = specSlot(spec);
    const PerfModel &perf = *slot.perf;
    const ChipPowerModel &power = *slot.power;
    const double work = bench.instructionsB() * 1e9;

    // AVX license derating (server parts): vector-heavy code pulls
    // the core below its granted clock, with the benchmark's FP share
    // standing in for AVX residency. The pipeline and the power model
    // both see the licensed clock; the granted clock keeps its Turbo
    // -step semantics. Guarded so paper parts (penalty 0) evaluate
    // the exact same expression as before.
    auto licensed = [&](double f) {
        return spec.avxClockPenalty > 0.0
            ? f * (1.0 - spec.avxClockPenalty * bench.fpShare)
            : f;
    };

    auto execute = [&](double clock_ghz) {
        const double f = licensed(clock_ghz);
        if (bench.language() == Language::Java)
            return JvmModel::run(perf, bench, cfg, f);
        return perf.evaluate(bench, cfg, f, work, bench.appThreads);
    };

    PerfResult run = execute(cfg.clockGhz);
    std::vector<double> activity = activityOf(run, bench);
    int activeCores = countActive(activity);

    double clock = cfg.clockGhz;
    if (spec.hasTurbo && cfg.turboEnabled) {
        // The governor probes each candidate clock twice (power cap
        // and junction cap); breakdownAt is pure per clock, so one
        // memoized slot halves the model work of the turbo search.
        auto breakdownAt = [&, memoClock = -1.0,
                            memo = PowerBreakdown{}](double f) mutable {
            if (f != memoClock) {
                const PerfResult r = execute(f);
                memo = power.compute(cfg, licensed(f),
                                     activityOf(r, bench),
                                     r.llcActivity, r.dramGBs);
                memoClock = f;
            }
            return memo;
        };
        auto powerAt = [&](double f) { return breakdownAt(f).total(); };
        auto junctionAt = [&](double f) {
            return breakdownAt(f).junctionC;
        };
        clock = TurboGovernor::grant(cfg, activeCores, powerAt,
                                     junctionAt);
        // A same-clock grant (no boost headroom) must not trigger a
        // spurious re-execution: compare with the governor's own
        // clock tolerance, not exact float equality.
        if (std::fabs(clock - cfg.clockGhz) >
            TurboGovernor::clockToleranceGhz) {
            run = execute(clock);
            activity = activityOf(run, bench);
            activeCores = countActive(activity);
        }
    }

    ExecutionProfile prof;
    prof.timeSec = run.timeSec;
    prof.grantedClockGhz = clock;
    prof.effectiveClockGhz = licensed(clock);
    prof.coreActivity = activity;
    prof.llcActivity = run.llcActivity;
    prof.dramGBs = run.dramGBs;
    prof.activeCores = activeCores;
    prof.power = power.compute(cfg, prof.effectiveClockGhz, activity,
                               run.llcActivity, run.dramGBs);
    return prof;
}

ExperimentRunner::MemoSlot
ExperimentRunner::memoSlot(const MachineConfig &cfg, const Benchmark &bench,
                           bool claim) const
{
    const std::string key = ExperimentRunner::keyOf(cfg, bench);
    MemoShard &shard = memoShards[fnv1a(key) % memoShardCount];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!claim) {
        const auto it = shard.entries.find(key);
        return {shard,
                it == shard.entries.end() ? nullptr : it->second.get(),
                false};
    }
    auto [it, fresh] = shard.entries.try_emplace(key);
    if (fresh)
        it->second = std::make_unique<MemoEntry>();
    return {shard, it->second.get(), fresh};
}

const Measurement &
ExperimentRunner::measure(const MachineConfig &cfg, const Benchmark &bench)
{
    const MemoSlot slot = memoSlot(cfg, bench, /* claim */ true);
    if (slot.claimed)
        slot.shard.misses.fetch_add(1, std::memory_order_relaxed);
    else
        slot.shard.hits.fetch_add(1, std::memory_order_relaxed);

    // The inserting thread measures; concurrent readers of the same
    // key block here until the measurement is published. `ready`
    // flips only after the value is fully assigned (release pairs
    // with peekCache's acquire).
    MemoEntry &entry = *slot.entry;
    std::call_once(entry.once, [&] {
        entry.value = runMeasurement(cfg, bench);
        entry.ready.store(true, std::memory_order_release);
    });
    return entry.value;
}

bool
ExperimentRunner::seedCache(const MachineConfig &cfg,
                            const Benchmark &bench,
                            const Measurement &m)
{
    const MemoSlot slot = memoSlot(cfg, bench, /* claim */ true);
    if (!slot.claimed)
        return false;
    // Publish through the slot's once_flag, the same protocol
    // measure() uses: a concurrent measure() of this key blocks on
    // the flag and then reads the seeded value as a plain hit.
    MemoEntry &entry = *slot.entry;
    std::call_once(entry.once, [&] {
        entry.value = m;
        entry.ready.store(true, std::memory_order_release);
    });
    return true;
}

const Measurement *
ExperimentRunner::peekCache(const MachineConfig &cfg,
                            const Benchmark &bench) const
{
    const MemoEntry *entry = memoSlot(cfg, bench, /* claim */ false).entry;
    // An entry exists from the moment a producer claims the key; it
    // is only readable once published. Never block on the once_flag
    // here — the whole point of the probe is answering "not yet"
    // instantly while another thread is mid-measurement.
    if (entry == nullptr || !entry->ready.load(std::memory_order_acquire))
        return nullptr;
    return &entry->value;
}

CacheStats
ExperimentRunner::cacheStats() const
{
    CacheStats stats;
    for (const MemoShard &shard : memoShards) {
        stats.hits += shard.hits.load(std::memory_order_relaxed);
        stats.misses += shard.misses.load(std::memory_order_relaxed);
    }
    return stats;
}

void
ExperimentRunner::resetCacheStats()
{
    for (MemoShard &shard : memoShards) {
        shard.hits.store(0, std::memory_order_relaxed);
        shard.misses.store(0, std::memory_order_relaxed);
    }
}

size_t
ExperimentRunner::cachedMeasurements() const
{
    size_t n = 0;
    for (const MemoShard &shard : memoShards) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        n += shard.entries.size();
    }
    return n;
}

/**
 * The shared front half of measure(), phasePowerSeries() and
 * meterRun(): profile the execution, derive the experiment's stream
 * from its key, and fork the phase model off that stream. Every
 * consumer therefore sees the identical phase series.
 */
ExperimentRunner::Execution
ExperimentRunner::execution(const MachineConfig &cfg,
                            const Benchmark &bench)
{
    const uint64_t streamHash = fnv1a(ExperimentRunner::keyOf(cfg, bench));
    Execution run{profile(cfg, bench), streamHash,
                  Rng(baseSeed ^ streamHash), {}};
    const ExecutionProfile &prof = run.prof;

    // Phase behaviour from the workload's phase model: compute- and
    // memory-leaning intervals plus GC bursts for Java, producing
    // the nonuniform power traces real workloads show.
    const ChipPowerModel &power = powerModel(*cfg.spec);
    Rng phaseRng = run.rng.fork();
    PhaseModel phaseModel(bench, phaseRng.next());
    const auto points = phaseModel.generate(powerPhases);

    run.phases.resize(points.size());
    for (size_t k = 0; k < points.size(); ++k) {
        std::vector<double> act = prof.coreActivity;
        for (double &a : act)
            a = std::clamp(a * points[k].activityMult, 0.0, 1.0);
        run.phases[k] = power.compute(
            cfg, prof.effectiveClockGhz, act,
            std::clamp(prof.llcActivity * points[k].memoryMult, 0.0,
                       1.0),
            prof.dramGBs * points[k].memoryMult);
    }
    return run;
}

std::vector<PowerBreakdown>
ExperimentRunner::phasePowerSeries(const MachineConfig &cfg,
                                   const Benchmark &bench)
{
    return execution(cfg, bench).phases;
}

StructureMeters
ExperimentRunner::meterRun(const MachineConfig &cfg,
                           const Benchmark &bench, double *duration_sec)
{
    // The meters see the identical phase series the Hall sensor
    // samples in measure().
    const Execution run = execution(cfg, bench);

    StructureMeters meters;
    const double dt = run.prof.timeSec / run.phases.size();
    for (const auto &phase : run.phases)
        meters.deposit(phase, dt);
    if (duration_sec)
        *duration_sec = run.prof.timeSec;
    return meters;
}

Measurement
ExperimentRunner::runMeasurement(const MachineConfig &cfg,
                                 const Benchmark &bench)
{
    if (!faults.poisonedConfig.empty() &&
        configKey(cfg) == faults.poisonedConfig) {
        throw FaultError(Status::error(
            StatusCode::FaultDetected,
            "rig offline for poisoned configuration '" + cfg.label() +
                "' (" + bench.name + ")"));
    }
    Execution run = execution(cfg, bench);
    const ExecutionProfile &prof = run.prof;
    Rng &rng = run.rng;
    std::vector<double> phasePowerW(run.phases.size());
    for (size_t k = 0; k < run.phases.size(); ++k)
        phasePowerW[k] = run.phases[k].total();

    // A plan with nonzero rates takes the fault-aware path. With an
    // empty plan the runner must stay byte-identical to the
    // fault-free laboratory (the golden-output contract); the clean
    // path below keeps that contract while sampling each session
    // through the batched bit-exact pipeline.
    if (faults.injectsSamples()) {
        return faultedMeasurement(cfg, bench, prof, phasePowerW, rng,
                                  run.streamHash);
    }

    const PowerSensor &rig = sensor(*cfg.spec);
    const int invocations = bench.prescribedInvocations();
    Summary timeStats, powerStats;
    for (int inv = 0; inv < invocations; ++inv) {
        Rng invRng = rng.fork();
        const InvocationDraw draw = drawInvocation(bench, prof, invRng);

        // Sample the power trace at 50Hz through the sensor chain —
        // supply ripple on the 12V rail (< 1%, section 2.5), Hall
        // sensor, ADC, calibration decode. The batched session is
        // bitwise equal to sampling one-by-one through
        // channel->sampleCounts (see sensor/sampling.hh).
        const double wattsSum = rig.sessionWatts(
            phasePowerW.data(), powerPhases, draw.powerScale,
            draw.samples, invRng);

        timeStats.add(draw.measuredTime);
        powerStats.add(wattsSum / draw.samples);
    }

    Measurement m;
    summarize(m, timeStats, powerStats);
    return m;
}

/**
 * The fault-aware measurement path. Every sampling session (one
 * benchmark invocation's 50Hz run) goes through the FaultInjector
 * and PowerTraceLogger; the raw pipeline (policy.harden == false)
 * then averages whatever the logger recorded, while the hardened
 * pipeline validates, retries, screens and re-runs within the gates
 * and caps at the top of this file. Fully deterministic: sessions are numbered, and
 * every random decision flows from the experiment's derived stream.
 */
Measurement
ExperimentRunner::faultedMeasurement(const MachineConfig &cfg,
                                     const Benchmark &bench,
                                     const ExecutionProfile &prof,
                                     const std::vector<double> &phasePowerW,
                                     Rng &rng, uint64_t stream_hash)
{
    const PowerSensor &rig = sensor(*cfg.spec);
    const int invocations = bench.prescribedInvocations();
    const int railHigh = rig.railHighCode();
    const int railLow = rig.railLowCode();

    struct Session
    {
        double measuredTime = 0.0;
        int expectedSamples = 0;
        long lost = 0;
        std::vector<TraceSample> trace;
    };

    // Sessions are numbered across the whole measurement (initial
    // invocations, retries, CI-gate extras) so every one gets its
    // own fault stream and the sequence is reproducible.
    int nextSession = 0;
    auto runSession = [&]() {
        const int session = nextSession++;
        Rng invRng = rng.fork();
        const InvocationDraw draw = drawInvocation(bench, prof, invRng);
        const int samples = draw.samples;
        Session out;
        out.measuredTime = draw.measuredTime;
        out.expectedSamples = samples;

        FaultInjector injector(faults, stream_hash, session, samples);
        const auto sensorSession = rig.beginSession(invRng);
        PowerTraceLogger logger(*sensorSession);
        for (int s = 0; s < samples; ++s) {
            const int k = static_cast<int>(
                static_cast<int64_t>(s) * powerPhases / samples) %
                powerPhases;
            const double trueW = phasePowerW[k] * draw.powerScale *
                (1.0 + 0.003 * invRng.gaussian());
            logger.sampleFaulted(s / PowerChannel::sampleHz, trueW,
                                 invRng, injector.next());
        }
        out.lost = static_cast<long>(logger.lostSamples());
        out.trace = logger.samples();
        return out;
    };

    Measurement m;

    if (!policy.harden) {
        // The naive pipeline: believe the logger. A disconnected
        // logger reads as zero power, a railed sensor as its rail.
        Summary timeStats, powerStats;
        for (int inv = 0; inv < invocations; ++inv) {
            const Session s = runSession();
            double mean = 0.0;
            if (!s.trace.empty()) {
                double sum = 0.0;
                for (const TraceSample &ts : s.trace)
                    sum += ts.watts;
                mean = sum / s.trace.size();
            }
            timeStats.add(s.measuredTime);
            powerStats.add(mean);
            m.samplesLost += s.lost;
        }
        summarize(m, timeStats, powerStats);
        return m;
    }

    struct Accepted
    {
        double timeSec;
        double powerW;
    };
    std::vector<Accepted> accepted;

    // Session validation: reject duplicate timestamps and railed ADC
    // codes sample by sample, then the session as a whole when too
    // few samples survive or its two halves disagree on mean power.
    auto validateSession = [&](const Session &s, Accepted &out) {
        m.samplesLost += s.lost;
        double sum = 0.0, headSum = 0.0, tailSum = 0.0;
        long kept = 0, headN = 0, tailN = 0;
        const double midTime =
            s.expectedSamples / PowerChannel::sampleHz * 0.5;
        double prevTime = -1.0;
        for (const TraceSample &ts : s.trace) {
            if (ts.timeSec == prevTime) {
                ++m.samplesDuplicated;
                continue;
            }
            prevTime = ts.timeSec;
            if (ts.counts >= railHigh || ts.counts <= railLow) {
                ++m.samplesRailed;
                continue;
            }
            sum += ts.watts;
            ++kept;
            if (ts.timeSec < midTime) {
                headSum += ts.watts;
                ++headN;
            } else {
                tailSum += ts.watts;
                ++tailN;
            }
        }
        if (kept < minSampleFraction * s.expectedSamples)
            return false;
        const double mean = sum / kept;
        if (headN > 0 && tailN > 0 && mean > 0.0) {
            const double skew =
                std::fabs(headSum / headN - tailSum / tailN);
            if (skew > balanceGateRel * mean)
                return false;
        }
        out.timeSec = s.measuredTime;
        out.powerW = mean;
        return true;
    };

    // One accepted invocation, re-running invalid sessions with a
    // fresh stream up to the retry cap.
    auto acquire = [&]() {
        for (int attempt = 0; attempt <= maxRetries; ++attempt) {
            if (attempt > 0)
                ++m.retries;
            const Session s = runSession();
            Accepted a;
            if (validateSession(s, a)) {
                accepted.push_back(a);
                return true;
            }
        }
        return false;
    };

    for (int inv = 0; inv < invocations; ++inv) {
        if (!acquire())
            m.degraded = true;
    }
    if (accepted.size() < 2) {
        throw FaultError(Status::error(
            StatusCode::FaultDetected,
            msgOf("unrecoverable measurement for '", cfg.label(), "' / ",
                  bench.name, ": only ", accepted.size(),
                  " valid invocations after retries")));
    }

    // Median/MAD screen across accepted invocations, then the
    // paper's protocol: add invocations until the CIs pass the gate.
    Summary timeStats, powerStats;
    int rejected = 0;
    auto aggregate = [&]() {
        std::vector<double> powers;
        powers.reserve(accepted.size());
        for (const Accepted &a : accepted)
            powers.push_back(a.powerW);
        const double med = percentileOf(powers, 50.0);
        std::vector<double> dev;
        dev.reserve(powers.size());
        for (const double p : powers)
            dev.push_back(std::fabs(p - med));
        const double mad = percentileOf(std::move(dev), 50.0);
        // The noise floor keeps a near-zero MAD (tightly clustered
        // invocations) from rejecting everything over rounding dust.
        const double limit =
            outlierMadK * std::max(mad, 0.005 * med);
        timeStats = Summary();
        powerStats = Summary();
        rejected = 0;
        for (const Accepted &a : accepted) {
            if (std::fabs(a.powerW - med) > limit) {
                ++rejected;
                continue;
            }
            timeStats.add(a.timeSec);
            powerStats.add(a.powerW);
        }
    };

    aggregate();
    while ((timeStats.count() < 2 ||
            timeStats.ci95Relative() > ciGateRel ||
            powerStats.ci95Relative() > ciGateRel) &&
           m.extraInvocations < maxExtraInvocations) {
        ++m.extraInvocations;
        if (!acquire())
            m.degraded = true;
        aggregate();
    }
    if (timeStats.count() < 2) {
        // The screen left too little data; fall back to every
        // accepted invocation and flag the result.
        timeStats = Summary();
        powerStats = Summary();
        rejected = 0;
        for (const Accepted &a : accepted) {
            timeStats.add(a.timeSec);
            powerStats.add(a.powerW);
        }
        m.degraded = true;
    }
    if (timeStats.ci95Relative() > ciGateRel ||
        powerStats.ci95Relative() > ciGateRel)
        m.degraded = true;

    m.outlierInvocations = rejected;
    summarize(m, timeStats, powerStats);
    return m;
}

} // namespace lhr
