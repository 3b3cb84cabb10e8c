/**
 * @file
 * The RAPL-style energy-counter backend.
 *
 * Post-2011 Intel parts expose package energy as a cumulative MSR:
 * a 32-bit counter of fixed energy units (2^-16 J) that the firmware
 * advances at a ~1ms update interval and that wraps modulo 2^32. A
 * software reader samples it once per 50Hz slot and differences
 * consecutive readings; correct readers difference in unsigned
 * 32-bit arithmetic so a natural wrap mid-session is harmless.
 *
 * The model reproduces those semantics deterministically: per-update
 * quantization to whole energy units, a per-device systematic gain
 * error (RAPL is a model, not a measurement), a random counter start
 * per session, and the two reader failure modes the fault injector
 * drives — a mis-handled wraparound (the recorded slot pegs at
 * wrapGlitchCode) and a stale read (the reader sees the previous
 * value: a zero-delta slot, then a double-delta catch-up).
 */

#ifndef LHR_SENSOR_RAPL_HH
#define LHR_SENSOR_RAPL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sensor/channel.hh"
#include "sensor/sensor.hh"

namespace lhr
{

class RaplSensor;

/** One RAPL sampling session: the counter and the reader's state. */
class RaplSession : public SensorSession
{
  public:
    /** Draws the session's counter start from rng. */
    RaplSession(const RaplSensor &sensor, Rng &rng);

    SensorReading read(double true_watts, Rng &rng,
                      const SampleFault &fault) override;

  private:
    const RaplSensor &rapl;
    uint32_t counter;   ///< the MSR: always advances, wraps mod 2^32
    uint32_t lastRead;  ///< last value the reader consumed
};

/** The RAPL backend of one rig. */
class RaplSensor : public PowerSensor
{
  public:
    explicit RaplSensor(uint64_t device_seed);

    SensorBackend backend() const override
    {
        return SensorBackend::Rapl;
    }

    /**
     * A mis-handled wrap records this code: 2^21 units per 20ms slot
     * is 1600W, far outside any real delta, so the hardened
     * pipeline's rail screen rejects it. A stale read records 0
     * (railLowCode), rejected the same way.
     */
    int railHighCode() const override { return wrapGlitchCode; }
    int railLowCode() const override { return 0; }

    std::unique_ptr<SensorSession>
    beginSession(Rng &rng) const override;

    /**
     * The batched bit-exact session (sensor/sampling.hh): equal to
     * beginSession() + read() per sample, without a virtual call or a
     * libm gaussian per sample.
     */
    double sessionWatts(const double *phase_power_w, int phases,
                        double scale, int samples,
                        Rng &inv_rng) const override;

    /** Systematic energy-model gain error of this device. */
    double deviceGain() const { return gain; }

    /**
     * Whole energy units one firmware update adds at a slot's power:
     * read()'s arithmetic, also the batched session's exact fallback.
     * Calibration drift maps to the energy model's gain ramping.
     */
    long unitsPerUpdate(double watts, double counts_gain) const
    {
        const double updateJ = watts * gain * counts_gain / updateHz;
        return std::lround(updateJ / energyUnitJ);
    }

    /** The counter advance of one 50Hz slot at a per-update step. */
    static uint32_t slotAdvance(long units)
    {
        return static_cast<uint32_t>(units) *
            static_cast<uint32_t>(updatesPerSlot);
    }

    /** The recorded code of an honest slot delta, and its decode. */
    static int slotCode(uint32_t delta)
    {
        return static_cast<int>(std::min<uint32_t>(
            delta, static_cast<uint32_t>(wrapGlitchCode)));
    }
    static double slotWatts(int code)
    {
        return code * energyUnitJ * PowerChannel::sampleHz;
    }

    static constexpr double energyUnitJ = 1.0 / 65536.0;  // 2^-16 J
    static constexpr double updateHz = 1000.0;
    static constexpr int wrapGlitchCode = 1 << 21;
    /** Firmware updates between two 50Hz reader visits. */
    static constexpr int updatesPerSlot =
        static_cast<int>(updateHz / PowerChannel::sampleHz);

  private:
    double gain;  ///< about ±2%, fixed per device
};

} // namespace lhr

#endif // LHR_SENSOR_RAPL_HH
