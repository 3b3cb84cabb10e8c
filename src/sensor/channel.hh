/**
 * @file
 * The power measurement signal chain (paper section 2.5).
 *
 * The paper isolates the processor's 12V supply on the motherboard,
 * inserts a Pololu ACS714 carrier (Allegro Hall-effect linear
 * current sensor, 185mV/A, 2.5V zero-current output, <1.5% typical
 * error), digitizes the output with an AVR data-logging stick, and
 * samples at 50Hz. The i7's higher current requires the 30A variant
 * (66mV/A). Each physical sensor is calibrated against 28 reference
 * currents with a linear fit (R^2 >= 0.999).
 *
 * We reproduce the same chain: a true chip power waveform is
 * converted to rail current, through the sensor transfer function
 * (with per-device gain/offset error and noise), quantized by a
 * 10-bit ADC, then decoded through the calibration fit. Measurement
 * error in the reproduced Table 2 comes from here.
 */

#ifndef LHR_SENSOR_CHANNEL_HH
#define LHR_SENSOR_CHANNEL_HH

#include <cstdint>

#include "util/rng.hh"

namespace lhr
{

/** ACS714 sensor variants used in the study. */
enum class SensorVariant
{
    A5,   ///< ±5A, 185 mV/A
    A30   ///< ±30A, 66 mV/A (used on the i7)
};

/** Sensitivity of a variant in volts per ampere. */
double sensorSensitivity(SensorVariant variant);

/**
 * One physical measurement channel: Hall sensor soldered into a
 * specific machine's 12V rail plus the logging ADC. Per-device gain
 * and offset errors are drawn once at construction (devices differ;
 * calibration removes most of the error).
 */
class PowerChannel
{
  public:
    /**
     * @param variant sensor model
     * @param device_seed per-device seed fixing its error terms
     */
    PowerChannel(SensorVariant variant, uint64_t device_seed);

    /**
     * Sensor analog output voltage for a rail current, given one
     * standard-normal draw for the sample noise.
     */
    double outputVolts(double amps, double noise_gaussian) const;

    /** Rated linear range of the variant in amperes. */
    double ratedAmps() const;

    /**
     * Fraction of incremental sensitivity retained beyond the rated
     * range: the Hall element compresses, so currents past the
     * rating read low — why the i7's rig needs the 30A part
     * (section 2.5).
     */
    static constexpr double overRangeGain = 0.25;

    /**
     * ADC counts for a true chip power in watts, given one
     * standard-normal draw for the sample noise: rail current,
     * sensor transfer, 10-bit quantizer. The one copy of the chain;
     * sampleCounts() and the batch sampler's exact fallback
     * (sensor/sampling.cc) both call it. Panics on negative power.
     */
    int countsFor(double watts, double noise_gaussian) const;

    /** One ADC sample (counts), drawing its noise from `noise`. */
    int sampleCounts(double watts, Rng &noise) const
    {
        return countsFor(watts, noise.gaussian());
    }

    /**
     * ADC counts of the sensor pegged at its positive/negative rail:
     * the ideal output at ±ratedAmps(), no noise or device error. A
     * saturated logger slot reads exactly railHighCounts(); the
     * hardened measurement pipeline detects railing by comparing
     * recorded counts against these (see MeasurementPolicy).
     */
    int railHighCounts() const;
    int railLowCounts() const;

    /** True rail current for a chip power (I = P / 12V). */
    static double railAmps(double watts) { return watts / railVolts; }

    SensorVariant variant() const { return sensorVariant; }

    /**
     * The device's fixed error terms and noise sigma. The batch
     * sampler's vectorised fast path (sensor/sample_quantize.inl)
     * replays outputVolts() over many samples at once, so it needs
     * the same constants this channel draws at construction.
     */
    double deviceGainError() const { return gainError; }
    double deviceOffsetVolts() const { return offsetVolts; }
    double sampleNoiseVolts() const { return noiseVolts; }

    static constexpr double railVolts = 12.0;
    static constexpr double zeroCurrentVolts = 2.5;
    static constexpr double sampleHz = 50.0;

    /** 10-bit ADC against a 5V reference. */
    static int quantize(double volts);
    static constexpr int adcCounts = 1024;
    static constexpr double adcVref = 5.0;

  private:
    SensorVariant sensorVariant;
    double gainError;    ///< multiplicative, about ±1%
    double offsetVolts;  ///< additive, about ±10mV
    double noiseVolts;   ///< gaussian sample noise sigma
};

} // namespace lhr

#endif // LHR_SENSOR_CHANNEL_HH
