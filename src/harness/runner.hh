/**
 * @file
 * The experiment runner: executes a benchmark on a machine
 * configuration end to end — performance model, JVM model for Java,
 * Turbo governor, chip power model, phase behaviour, the Hall-sensor
 * measurement chain, and the per-suite repetition methodology — and
 * returns the Measurement the paper's analyses consume.
 *
 * Concurrency: every public method is safe to call from multiple
 * threads. The memo cache is one map under one mutex; each entry is
 * computed exactly once (std::call_once), outside that lock, while
 * other threads asking for the same experiment block until it is
 * ready. Each processor's models and sensor rig are built lazily the
 * same way, together, in one per-processor slot. Because each
 * experiment derives its own random stream from its key, results are
 * bit-identical whatever the thread count or execution order — the
 * contract lhr::SweepEngine builds on.
 */

#ifndef LHR_HARNESS_RUNNER_HH
#define LHR_HARNESS_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cpu/perf_model.hh"
#include "fault/fault.hh"
#include "harness/measurement.hh"
#include "machine/processor.hh"
#include "util/env.hh"
#include "power/chip_power.hh"
#include "power/meters.hh"
#include "sensor/channel.hh"
#include "sensor/sensor.hh"
#include "util/rng.hh"
#include "util/status.hh"
#include "workload/benchmark.hh"

namespace lhr
{

/** Memo-cache hit/miss counters (see ExperimentRunner::cacheStats). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;

    uint64_t lookups() const { return hits + misses; }
};

/**
 * How the measurement pipeline defends itself when a rig is flaky
 * (a FaultPlan with nonzero rates is installed). With harden on, the
 * runner mirrors the paper's protocol of re-running until intervals
 * are tight: it validates every sampling session (drops railed ADC
 * codes and duplicate timestamps, rejects sessions with too few
 * surviving samples or an unbalanced first/second-half power mean),
 * re-runs invalid sessions with a fresh random stream, screens
 * accepted invocations with a median/MAD outlier test, and keeps
 * adding invocations until the 95% CIs pass the gate — all within
 * hard caps, so a dead rig degrades to a FaultError instead of an
 * infinite loop. The gates and caps are fixed constants of the
 * protocol (runner.cc). None of this runs when the plan injects
 * nothing: the clean path is byte-identical to the fault-free
 * laboratory.
 */
struct MeasurementPolicy
{
    /** Recover (true) or record the raw faulted stream (false). */
    bool harden = true;
};

/**
 * Runs experiments and caches results. Deterministic for a given
 * seed and sensor backend, both fixed at construction: every
 * (configuration, benchmark) pair derives its own random stream, so
 * measurements are independent of execution order and of the number
 * of threads driving the runner.
 */
class ExperimentRunner
{
  public:
    /**
     * @param seed base of every experiment's random stream
     * @param sensor force every rig onto one backend; nullopt gives
     *        each processor its era's default (defaultSensorBackend)
     */
    explicit ExperimentRunner(
        uint64_t seed = builtinSeed,
        std::optional<SensorBackend> sensor = std::nullopt);

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /**
     * Measure a benchmark on a configuration with the paper's
     * methodology: 3 invocations for SPEC CPU, 5 for PARSEC, 20 JVM
     * invocations reporting the fifth iteration for Java. Results
     * are cached; the returned reference stays valid for the
     * runner's lifetime. Thread-safe: concurrent calls under the
     * same key compute the measurement once and all receive the
     * same object.
     */
    const Measurement &measure(const MachineConfig &cfg,
                               const Benchmark &bench);

    /**
     * Install a fault model. Experiments on the plan's poisoned
     * configuration throw FaultError from measure(); nonzero rates
     * route sampling through the FaultInjector. Must be called
     * before any measurement is cached (panic otherwise — cached
     * results taken under another plan would silently mix in).
     */
    void setFaultPlan(FaultPlan plan);

    /**
     * Install the recovery policy (see MeasurementPolicy). Same
     * no-cached-measurements precondition as setFaultPlan().
     */
    void setMeasurementPolicy(const MeasurementPolicy &policy);

    /**
     * The deterministic execution profile (no sensor, no noise) at
     * the granted (possibly Turbo-boosted) clock.
     */
    ExecutionProfile profile(const MachineConfig &cfg,
                             const Benchmark &bench);

    /** The performance model of a processor (built lazily, once). */
    const PerfModel &perfModel(const ProcessorSpec &spec);

    /** The power model of a processor (built lazily, once). */
    const ChipPowerModel &powerModel(const ProcessorSpec &spec);

    /**
     * The measurement backend of a processor's rig (built lazily,
     * once). Its calibration() is nullptr for a RAPL rig.
     */
    const PowerSensor &sensor(const ProcessorSpec &spec);

    /** The backend forced onto every rig; nullopt: the era default. */
    std::optional<SensorBackend> forcedSensor() const { return sensorChoice; }

    /**
     * The true per-phase power waveform of one execution — the
     * series the Hall sensor samples and the meters integrate.
     * Deterministic per (config, benchmark).
     */
    std::vector<PowerBreakdown> phasePowerSeries(
        const MachineConfig &cfg, const Benchmark &bench);

    /**
     * Replay one execution into on-chip structure meters — the
     * instrumentation the paper recommends architects expose. The
     * same phase series drives the external Hall sensor in
     * measure(), so the two can be compared.
     *
     * @param duration_sec out-parameter for the metered interval
     */
    StructureMeters meterRun(const MachineConfig &cfg,
                             const Benchmark &bench,
                             double *duration_sec = nullptr);

    /**
     * Pre-seed the memo cache with a previously persisted
     * measurement (checkpoint/resume: see SweepOptions::warmStart).
     * The entry behaves exactly like a computed one — measure() on
     * the same key returns it as a cache hit without running the
     * experiment. Returns false (and changes nothing) when the key
     * is already cached or being computed. Seeding counts neither
     * as a hit nor a miss.
     */
    bool seedCache(const MachineConfig &cfg, const Benchmark &bench,
                   const Measurement &m);

    /**
     * Probe the memo cache without computing, blocking, or touching
     * the hit/miss counters: the published measurement if this key
     * has one, nullptr when the key is absent OR still being
     * computed by another thread. This is the warm-key fast path of
     * `lhrlab serve`: the daemon answers a published key on the
     * connection thread instead of queueing it for a worker, so the
     * probe must never wait on an in-flight computation.
     */
    [[nodiscard]] const Measurement *peekCache(const MachineConfig &cfg,
                                               const Benchmark &bench) const;

    /**
     * The exact cache/stream identity of one experiment — the string
     * the memo cache and random streams key on:
     * configKey(cfg) + bench.name, built in one allocation (e.g.
     * "i7 (45)|4|2|2.667000|1|mcf"). These bytes seed every random
     * stream, so changing the format changes every output. The
     * display label is NOT a substitute (it rounds the clock).
     */
    [[nodiscard]] static std::string keyOf(const MachineConfig &cfg,
                                           const Benchmark &bench);

    /**
     * Memo-cache counters since construction; callers that want one
     * phase's counts take before/after deltas. A miss is counted by
     * the thread that inserts the entry; every other lookup of that
     * key is a hit, including lookups that block while the inserting
     * thread is still measuring.
     */
    CacheStats cacheStats() const;

    /** Number of measurements currently memoized. */
    size_t cachedMeasurements() const;

    /** Sensor sampling is capped to this many simulated seconds. */
    static constexpr double maxSampledSec = 30.0;

    /** Number of power phases per execution. */
    static constexpr int powerPhases = 64;

  private:
    /**
     * Everything the runner builds for one processor: its models and
     * its sensor rig, each a pure function of (spec, seed, backend).
     * The map that owns the slot is guarded by specMutex, but the
     * slot is built outside that lock under its own once_flag, so
     * slow builds (model fitting, calibration sweeps) of different
     * specs proceed in parallel.
     */
    struct SpecSlot
    {
        std::once_flag once;
        std::unique_ptr<PerfModel> perf;
        std::unique_ptr<ChipPowerModel> power;
        std::unique_ptr<PowerSensor> sensor;
    };

    /**
     * One experiment's noise-free execution and the start of its
     * random stream: the profile, the stream hash and derived Rng
     * (already past the phase fork), and the per-phase power series.
     */
    struct Execution
    {
        ExecutionProfile prof;
        uint64_t streamHash;
        Rng rng;
        std::vector<PowerBreakdown> phases;
    };

    /**
     * One memoized measurement. Producers publish through the
     * once_flag (concurrent readers of the same key block there);
     * `ready` flips true only after `value` is fully assigned, so
     * peekCache() can answer "is this published?" without blocking
     * on an in-flight computation.
     */
    struct MemoEntry
    {
        std::once_flag once;
        std::atomic<bool> ready{false};
        Measurement value;
    };

    /** One experiment's memo entry (see claimMemo()). */
    struct MemoSlot
    {
        MemoEntry &entry;
        bool claimed; ///< this call created the entry
    };

    /**
     * Find or insert one experiment's memo entry under memoMutex. An
     * absent key gets a fresh, unpublished entry that this call owns
     * (claimed). With count set, the lookup also counts as a miss
     * (claimed) or a hit.
     */
    MemoSlot claimMemo(const MachineConfig &cfg, const Benchmark &bench,
                       bool count);

    const SpecSlot &specSlot(const ProcessorSpec &spec);
    Execution execution(const MachineConfig &cfg, const Benchmark &bench);
    Measurement runMeasurement(const MachineConfig &cfg,
                               const Benchmark &bench);
    Measurement faultedMeasurement(const MachineConfig &cfg,
                                   const Benchmark &bench,
                                   const ExecutionProfile &prof,
                                   const std::vector<double> &phasePowerW,
                                   Rng &rng, uint64_t stream_hash);

    const uint64_t baseSeed;
    const std::optional<SensorBackend> sensorChoice;
    FaultPlan faults;
    MeasurementPolicy policy;

    mutable std::mutex memoMutex; ///< guards memo, memoHits, memoMisses
    // unique_ptr gives every entry a stable address: references handed
    // out by measure() survive rehashing and concurrent inserts.
    // lhrlint:allow-next-line(det-unordered): keyed lookups only — the memo cache is never iterated (sweeps emit in row-major grid order)
    std::unordered_map<std::string, std::unique_ptr<MemoEntry>> memo;
    uint64_t memoHits = 0;
    uint64_t memoMisses = 0;

    std::mutex specMutex; ///< guards specSlots
    // lhrlint:allow-next-line(det-unordered): keyed lookups only — the slot map is never iterated
    std::unordered_map<const ProcessorSpec *, std::unique_ptr<SpecSlot>>
        specSlots;
};

} // namespace lhr

#endif // LHR_HARNESS_RUNNER_HH
