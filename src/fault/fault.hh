/**
 * @file
 * Deterministic fault injection for the simulated measurement rig.
 *
 * The paper's credibility rests on measurement hygiene: calibrated
 * Hall sensors, 50Hz logging, repetitions until tight confidence
 * intervals (sections 2.5, Table 2). A real bench also fails in
 * mundane ways — the AVR logger drops or repeats samples, the Hall
 * element saturates past its rated current, sensor gain drifts with
 * temperature, the USB logger disconnects mid-run, the machine
 * thermally throttles, a stray co-runner lands on the box. This
 * module reproduces that fault model, seeded and fully
 * deterministic, so the hardened measurement pipeline
 * (harness/runner) can be exercised and its recovery quantified
 * (study: ablation_faults).
 *
 * Scope of each class:
 *   - per-sample: DroppedSample, DuplicatedSample, SensorSaturation
 *     (railing windows of a few samples at ratedAmps());
 *   - per-session (one invocation's sampling run): CalibrationDrift
 *     (gain ramp over the session), LoggerDisconnect (every sample
 *     after a cut point is lost), ThermalThrottle and
 *     CorunInterference (a contiguous window where the true power
 *     waveform itself is depressed/inflated).
 *
 * A FaultPlan can also poison one configuration outright
 * (alwaysThrow semantics): the runner throws FaultError for every
 * experiment on it, modelling a dead rig; SweepEngine degrades those
 * cells to flagged rows.
 */

#ifndef LHR_FAULT_FAULT_HH
#define LHR_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/rng.hh"

namespace lhr
{

/** The injectable fault classes. */
enum class FaultClass
{
    DroppedSample,      ///< logger misses a 50Hz slot entirely
    DuplicatedSample,   ///< logger records a stale repeat
    SensorSaturation,   ///< Hall output rails at the rated current
    CalibrationDrift,   ///< sensor gain ramps over a session
    LoggerDisconnect,   ///< all samples after a cut point are lost
    ThermalThrottle,    ///< true power depressed for a window
    CorunInterference,  ///< true power inflated for a window
    // RAPL-backend classes (no effect on the Hall chain):
    CounterWraparound,  ///< energy MSR wraps inside a read interval
    StaleCounter,       ///< MSR reads return a stale counter value
};

inline constexpr size_t faultClassCount = 9;

/** Stable kebab-case name, e.g. "dropped-sample". */
const char *faultClassName(FaultClass cls);

/** Parse a faultClassName(); nullopt when unknown. */
std::optional<FaultClass> parseFaultClass(std::string_view text);

/** All classes, in declaration order (for sweeps over the model). */
std::array<FaultClass, faultClassCount> allFaultClasses();

/**
 * The fault model of one rig: a rate per class plus an optional
 * poisoned configuration. Rates are probabilities — per 50Hz sample
 * for the sample-scoped classes, per sampling session for the
 * session-scoped ones. An all-zero plan (the default) injects
 * nothing and leaves the measurement pipeline bit-identical to the
 * fault-free laboratory.
 */
struct FaultPlan
{
    /** Extra entropy folded into every per-experiment fault stream. */
    uint64_t seed = 0;

    /** Per-class probabilities, all zero by default. */
    std::array<double, faultClassCount> rates{};

    /**
     * configKey() of a configuration whose every experiment throws
     * FaultError (a dead rig). Exact: a configuration tens of MHz
     * away still measures. Empty = none.
     */
    std::string poisonedConfig;

    double rate(FaultClass cls) const
    {
        return rates[static_cast<size_t>(cls)];
    }

    /** Builder-style rate setter; panics on a rate outside [0, 1]. */
    FaultPlan &with(FaultClass cls, double rate);

    /** True when any rate is nonzero or a config is poisoned. */
    bool any() const;

    /** True when any sample/session fault rate is nonzero. */
    bool injectsSamples() const;
};

/** What the injector did to one 50Hz sample slot. */
struct SampleFault
{
    bool lost = false;        ///< dropped, or after a disconnect
    bool railed = false;      ///< ADC pegged at the sensor's rail
    int extraCopies = 0;      ///< stale duplicates logged after it
    double powerScale = 1.0;  ///< throttle x interference on true W
    double countsGain = 1.0;  ///< calibration drift on the decode
    bool wrapGlitch = false;  ///< RAPL: mis-handled counter wrap
    bool stale = false;       ///< RAPL: read returns the old counter
};

/**
 * One sampling session's fault stream. Constructed per invocation
 * from the plan, a per-experiment hash, and the session ordinal, so
 * the injected faults are a pure function of (plan, experiment,
 * session) — independent of threads, retries elsewhere, or wall
 * time. next() advances one 50Hz slot.
 */
class FaultInjector
{
  public:
    /**
     * @param plan            the rig's fault model (copied)
     * @param stream_hash     per-experiment hash (e.g. fnv1a of the
     *                        experiment key)
     * @param session         ordinal of this sampling session
     * @param expected_samples planned 50Hz slots in the session
     */
    FaultInjector(const FaultPlan &plan, uint64_t stream_hash,
                  int session, int expected_samples);

    /** Fault decisions for the next sample slot. */
    SampleFault next();

    /** Slots consumed so far. */
    int sampleIndex() const { return index; }

  private:
    bool bernoulli(FaultClass cls);

    FaultPlan plan;
    Rng rng;
    /**
     * The RAPL fault classes draw from their own stream so enabling
     * them never shifts the draw positions — and therefore the
     * decisions — of the original seven classes.
     */
    Rng auxRng;
    int expectedSamples;
    int index = 0;

    int railRemaining = 0;
    int staleRemaining = 0;
    double driftGainPerSample = 0.0;
    int disconnectAt = -1;      ///< sample index; -1 = never
    int throttleStart = -1, throttleEnd = -1;
    double throttleScale = 1.0;
    int interfereStart = -1, interfereEnd = -1;
    double interfereScale = 1.0;
};

} // namespace lhr

#endif // LHR_FAULT_FAULT_HH
