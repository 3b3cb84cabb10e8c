/**
 * @file
 * The power-sensor abstraction: one measurement backend per rig.
 *
 * The paper's chain — Hall sensor, ADC, calibration decode — is one
 * way to observe chip power; post-2011 parts expose another, the
 * RAPL cumulative-energy MSRs. PowerSensor is the seam between the
 * harness and whichever chain a rig carries: a session converts true
 * watts to a recorded code and decoded watts, one 50Hz slot at a
 * time, under the same SampleFault decisions the FaultInjector
 * produces for either chain.
 *
 * The Hall backend (sensor/hall.hh) wraps the original
 * PowerChannel + Calibration pipeline and is bit-identical to it;
 * the RAPL backend (sensor/rapl.hh) models energy-counter semantics.
 * A session is read() slot by slot where faults act on the record
 * (the fault-aware pipeline); the clean hot path is sessionWatts(),
 * which both backends implement with one batched sampler over the
 * same gaussian staging (sensor/sampling.hh).
 */

#ifndef LHR_SENSOR_SENSOR_HH
#define LHR_SENSOR_SENSOR_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "fault/fault.hh"
#include "util/rng.hh"

namespace lhr
{

struct ProcessorSpec;
class Calibration;

/** The measurement backends a rig can carry. */
enum class SensorBackend
{
    HallEffect,  ///< ACS714 Hall sensor on the 12V rail (the paper)
    Rapl         ///< cumulative-energy MSR, read per 50Hz slot
};

/** Stable name, "hall" or "rapl". */
const char *sensorBackendName(SensorBackend backend);

/** Parse a sensorBackendName(); nullopt when unknown. */
std::optional<SensorBackend> parseSensorBackend(std::string_view text);

/** One recorded sensor slot: the raw code and its decode. */
struct SensorReading
{
    int code;      ///< raw recorded value (ADC counts / energy units)
    double watts;  ///< decoded power
};

/**
 * One sampling session of a sensor: stateful where the backend is
 * (RAPL carries its counter), created per invocation. read()
 * converts one 50Hz slot's true power under a fault decision; it
 * always converts — draws are consumed even for a lost slot — so the
 * random stream position stays a pure function of the slot index.
 */
class SensorSession
{
  public:
    virtual ~SensorSession() = default;

    virtual SensorReading read(double true_watts, Rng &rng,
                               const SampleFault &fault) = 0;
};

/**
 * One rig's measurement backend. Thread-safe after construction:
 * all mutable sampling state lives in the per-invocation session.
 */
class PowerSensor
{
  public:
    virtual ~PowerSensor() = default;

    virtual SensorBackend backend() const = 0;

    /**
     * Codes at the backend's recording limits. The hardened
     * measurement pipeline screens recorded codes against these:
     * a railed Hall slot records railHighCode(); a wrap-glitched or
     * stale RAPL slot records railHighCode() / railLowCode().
     */
    virtual int railHighCode() const = 0;
    virtual int railLowCode() const = 0;

    /**
     * Start a sampling session. Backends with per-session state may
     * draw from rng (the invocation stream) to place it; the Hall
     * backend draws nothing, keeping its stream byte-identical to
     * the pre-abstraction harness.
     */
    virtual std::unique_ptr<SensorSession>
    beginSession(Rng &rng) const = 0;

    /**
     * Run one clean (fault-free) sampling session over a phase power
     * waveform and return the sum of decoded watts — the harness's
     * hot path. Sample s reads phase k = sessionPhase(s, phases,
     * samples) with supply ripple applied inside the session:
     *
     *   trueW = phase_power_w[k] * scale *
     *           (1 + PowerChannel::supplyRipple * gaussian)
     *
     * Defined as beginSession() once, then read() per sample with no
     * fault, summing the decoded watts in sample order. Each backend
     * implements it with the batched bit-exact sampler
     * (sensor/sampling.hh), which returns that sum to the bit and
     * leaves inv_rng's raw stream where that loop leaves it;
     * tests/test_sensor_backend.cc keeps the loop as the reference.
     */
    virtual double sessionWatts(const double *phase_power_w,
                                int phases, double scale, int samples,
                                Rng &inv_rng) const = 0;

    /**
     * The counts-to-watts calibration when the backend has one
     * (Hall); nullptr for backends that decode directly (RAPL).
     */
    virtual const Calibration *calibration() const { return nullptr; }
};

/**
 * The power phase sample s of a session reads: (s * phases) / samples,
 * so a session's samples walk the waveform once, in order.
 */
inline int
sessionPhase(int s, int phases, int samples)
{
    return static_cast<int>(static_cast<int64_t>(s) * phases / samples) %
        phases;
}

/** Build a backend's sensor for a processor's rig. */
std::unique_ptr<PowerSensor> makeSensor(SensorBackend backend,
                                        const ProcessorSpec &spec,
                                        uint64_t base_seed);

/**
 * The backend a rig carries unless its runner forces one: Hall for
 * the paper parts, RAPL for the post-2011 server eras.
 */
SensorBackend defaultSensorBackend(const ProcessorSpec &spec);

} // namespace lhr

#endif // LHR_SENSOR_SENSOR_HH
