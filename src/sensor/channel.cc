#include "sensor/channel.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace lhr
{

double
sensorSensitivity(SensorVariant variant)
{
    switch (variant) {
      case SensorVariant::A5:  return 0.185;
      case SensorVariant::A30: return 0.066;
    }
    panic("sensorSensitivity: unknown variant");
}

PowerChannel::PowerChannel(SensorVariant variant, uint64_t device_seed)
    : sensorVariant(variant)
{
    Rng device(device_seed);
    // The datasheet's "typical total output error" of 1.5% is
    // dominated by gain error and offset, both stable per device.
    gainError = device.gaussian(0.0, 0.006);
    offsetVolts = device.gaussian(0.0, 0.008);
    noiseVolts = 0.004;
}

double
PowerChannel::ratedAmps() const
{
    return sensorVariant == SensorVariant::A5 ? 5.0 : 30.0;
}

double
PowerChannel::outputVolts(double amps, double noise_gaussian) const
{
    const double sens = sensorSensitivity(sensorVariant);
    // Linear inside the rated range; compressed beyond it.
    const double rated = ratedAmps();
    double effective = amps;
    if (amps > rated)
        effective = rated + (amps - rated) * overRangeGain;
    else if (amps < -rated)
        effective = -rated + (amps + rated) * overRangeGain;
    return zeroCurrentVolts + sens * effective * (1.0 + gainError) +
        offsetVolts + noiseVolts * noise_gaussian;
}

int
PowerChannel::quantize(double volts)
{
    const double clamped = std::clamp(volts, 0.0, adcVref);
    const int counts = static_cast<int>(
        std::lround(clamped / adcVref * (adcCounts - 1)));
    return std::clamp(counts, 0, adcCounts - 1);
}

int
PowerChannel::railHighCounts() const
{
    return quantize(zeroCurrentVolts +
                    sensorSensitivity(sensorVariant) * ratedAmps());
}

int
PowerChannel::railLowCounts() const
{
    return quantize(zeroCurrentVolts -
                    sensorSensitivity(sensorVariant) * ratedAmps());
}

int
PowerChannel::countsFor(double watts, double noise_gaussian) const
{
    if (watts < 0.0)
        panic("PowerChannel::countsFor: negative power");
    return quantize(outputVolts(railAmps(watts), noise_gaussian));
}

} // namespace lhr
