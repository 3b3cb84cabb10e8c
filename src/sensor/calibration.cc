#include "sensor/calibration.hh"

#include <vector>

#include "util/logging.hh"

namespace lhr
{

Calibration
Calibration::calibrate(const PowerChannel &channel, Rng &rng)
{
    const bool small = channel.variant() == SensorVariant::A5;
    const double lo = small ? 0.3 : 2.0;
    const double hi = small ? 3.0 : 25.0;

    std::vector<double> counts, amps;
    counts.reserve(calibrationPoints);
    amps.reserve(calibrationPoints);
    for (int point = 0; point < calibrationPoints; ++point) {
        const double current =
            lo + (hi - lo) * point / (calibrationPoints - 1);
        double sum = 0.0;
        for (int reading = 0; reading < readingsPerPoint; ++reading)
            sum += PowerChannel::quantize(
                channel.outputVolts(current, rng.gaussian()));
        counts.push_back(sum / readingsPerPoint);
        amps.push_back(current);
    }

    const LinearFit fit = fitLinear(counts, amps);
    if (fit.r2 < r2Gate) {
        warn(msgOf("sensor calibration fit R^2 = ", fit.r2,
                   " below the ", r2Gate, " gate"));
    }
    return Calibration(fit);
}

double
Calibration::ampsFromCounts(double counts) const
{
    return countsToAmps.at(counts);
}

double
Calibration::wattsFromCounts(double counts) const
{
    return ampsFromCounts(counts) * PowerChannel::railVolts;
}

} // namespace lhr
