/**
 * @file
 * The experiment runner: executes a benchmark on a machine
 * configuration end to end — performance model, JVM model for Java,
 * Turbo governor, chip power model, phase behaviour, the Hall-sensor
 * measurement chain, and the per-suite repetition methodology — and
 * returns the Measurement the paper's analyses consume.
 *
 * Concurrency: every public method is safe to call from multiple
 * threads. The memo cache is sharded by key hash; each entry is
 * computed exactly once (std::call_once) while other threads asking
 * for the same experiment block until it is ready. Per-processor
 * models and sensor rigs are built lazily the same way. Because each
 * experiment derives its own random stream from its key, results are
 * bit-identical whatever the thread count or execution order — the
 * contract lhr::SweepEngine builds on.
 */

#ifndef LHR_HARNESS_RUNNER_HH
#define LHR_HARNESS_RUNNER_HH

#include <array>
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
#include "sensor/calibration.hh"
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
 * seed: every (configuration, benchmark) pair derives its own random
 * stream, so measurements are independent of execution order and of
 * the number of threads driving the runner.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(uint64_t seed = defaultSeed());

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
    const FaultPlan &faultPlan() const { return faults; }

    /**
     * Install the recovery policy (see MeasurementPolicy). Same
     * no-cached-measurements precondition as setFaultPlan().
     */
    void setMeasurementPolicy(const MeasurementPolicy &policy);
    const MeasurementPolicy &measurementPolicy() const { return policy; }

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
     * The calibrated measurement channel of a processor's rig.
     * panic()s when the rig's backend has no calibration (RAPL
     * decodes directly from energy units).
     */
    const Calibration &calibration(const ProcessorSpec &spec);

    /** The measurement backend of a processor's rig. */
    const PowerSensor &sensor(const ProcessorSpec &spec);

    /**
     * Force every rig this runner builds onto one backend (nullopt
     * restores the per-spec default). Must be called before any rig
     * is built — a rig constructed under another backend would
     * silently mix measurement chains (panic otherwise).
     */
    void setSensorBackend(std::optional<SensorBackend> backend);

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
     * the memo shards and random streams key on:
     * configKey(cfg) + bench.name, built in one allocation (e.g.
     * "i7 (45)|4|2|2.667000|1|mcf"). These bytes seed every random
     * stream, so changing the format changes every output. The
     * display label is NOT a substitute (it rounds the clock).
     */
    [[nodiscard]] static std::string keyOf(const MachineConfig &cfg,
                                           const Benchmark &bench);

    /**
     * Memo-cache counters since construction (or the last reset).
     * A miss is counted by the thread that inserts the entry; every
     * other lookup of that key is a hit, including lookups that
     * block while the inserting thread is still measuring.
     */
    CacheStats cacheStats() const;

    /** Zero the hit/miss counters (entries stay cached). */
    void resetCacheStats();

    /** Number of measurements currently memoized. */
    size_t cachedMeasurements() const;

    /** Sensor sampling is capped to this many simulated seconds. */
    static constexpr double maxSampledSec = 30.0;

    /** Number of power phases per execution. */
    static constexpr int powerPhases = 64;

  private:
    struct Rig
    {
        std::unique_ptr<PowerSensor> sensor;
    };

    /**
     * A lazily-built, build-exactly-once slot. The map that owns the
     * slot is guarded by a mutex, but construction of the value runs
     * outside that lock under the slot's own once_flag, so slow
     * builds (model fitting, calibration sweeps) of different specs
     * proceed in parallel.
     */
    template <typename T>
    struct OnceSlot
    {
        std::once_flag once;
        T value;
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

    /**
     * One memo-cache shard: a mutex plus the entries it guards. The
     * hit/miss counters live per shard too (summed by cacheStats()),
     * so the counter cache line is contended by at most the threads
     * hashing into one shard instead of by every lookup in the
     * process.
     */
    struct MemoShard
    {
        mutable std::mutex mutex;
        // unique_ptr gives every entry a stable address: references
        // handed out by measure() survive rehashing and concurrent
        // inserts into the same shard.
        // lhrlint:allow-next-line(det-unordered): keyed lookups only — the memo cache is never iterated (sweeps emit in row-major grid order)
        std::unordered_map<std::string, std::unique_ptr<MemoEntry>>
            entries;
        std::atomic<uint64_t> hits{0};
        std::atomic<uint64_t> misses{0};
    };

    static constexpr size_t memoShardCount = 16;

    /** Where one experiment's memo entry lives (see memoSlot()). */
    struct MemoSlot
    {
        MemoShard &shard;
        MemoEntry *entry;  ///< nullptr: absent and not claimed
        bool claimed;      ///< this call created the entry
    };

    /**
     * Find one experiment's memo entry under its shard's lock. With
     * claim set, an absent key gets a fresh, unpublished entry that
     * this call owns (claimed); otherwise an absent key yields a
     * null entry. Touches no hit/miss counter.
     */
    MemoSlot memoSlot(const MachineConfig &cfg, const Benchmark &bench,
                      bool claim) const;

    template <typename T>
    using SpecSlotMap = // lhrlint:allow-next-line(det-unordered): keyed lookups only — slot maps are never iterated
        std::unordered_map<const ProcessorSpec *,
                           std::unique_ptr<OnceSlot<T>>>;

    template <typename T, typename Build>
    const T &specOnce(SpecSlotMap<T> &map, const ProcessorSpec &spec,
                      Build &&build);

    const Rig &rig(const ProcessorSpec &spec);
    Measurement runMeasurement(const MachineConfig &cfg,
                               const Benchmark &bench);
    Measurement faultedMeasurement(const MachineConfig &cfg,
                                   const Benchmark &bench,
                                   const ExecutionProfile &prof,
                                   const std::vector<double> &phasePowerW,
                                   Rng &rng, uint64_t stream_hash);
    std::vector<PowerBreakdown> phaseBreakdowns(
        const MachineConfig &cfg, const Benchmark &bench,
        const ExecutionProfile &prof, Rng &rng);

    uint64_t baseSeed;
    FaultPlan faults;
    MeasurementPolicy policy;
    std::optional<SensorBackend> backendChoice;

    mutable std::array<MemoShard, memoShardCount> memoShards;

    std::mutex specMutex; ///< guards the three per-spec slot maps
    SpecSlotMap<std::unique_ptr<PerfModel>> perfModels;
    SpecSlotMap<std::unique_ptr<ChipPowerModel>> powerModels;
    SpecSlotMap<Rig> rigs;
};

} // namespace lhr

#endif // LHR_HARNESS_RUNNER_HH
