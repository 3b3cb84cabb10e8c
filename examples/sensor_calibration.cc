/**
 * @file
 * Example: calibrate a Hall-effect power measurement channel against
 * the reference current source and inspect the fit — the paper's
 * section 2.5 procedure (28 reference currents, linear fit,
 * R^2 >= 0.999).
 *
 * Usage: sensor_calibration [device-seed]
 */

#include <cstdlib>
#include <iostream>

#include "sensor/calibration.hh"
#include "sensor/channel.hh"
#include "stats/summary.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                   : 42;

    std::cout << "Calibrating an ACS714 +-5A channel (device seed "
              << seed << ")\n\n";

    const lhr::PowerChannel channel(lhr::SensorVariant::A5, seed);
    lhr::Rng rng(seed ^ 0xCA11B8);
    const auto cal = lhr::Calibration::calibrate(channel, rng);

    std::cout << "Fit: amps = "
              << lhr::formatFixed(cal.fit().slope, 6) << " * counts + "
              << lhr::formatFixed(cal.fit().intercept, 4)
              << "   (R^2 = " << lhr::formatFixed(cal.r2(), 6)
              << ", gate " << lhr::formatFixed(lhr::Calibration::r2Gate, 3)
              << ")\n\nResiduals across the current range:\n";

    lhr::TableWriter table;
    table.addColumn("True A");
    table.addColumn("Decoded A");
    table.addColumn("Error mA");
    table.addColumn("Error %");
    for (double amps = 0.4; amps <= 3.01; amps += 0.4) {
        lhr::Summary decoded;
        for (int i = 0; i < 256; ++i) {
            decoded.add(cal.ampsFromCounts(lhr::PowerChannel::quantize(
                channel.outputVolts(amps, rng.gaussian()))));
        }
        table.beginRow();
        table.cell(amps, 2);
        table.cell(decoded.mean(), 4);
        table.cell(1000.0 * (decoded.mean() - amps), 1);
        table.cell(100.0 * (decoded.mean() - amps) / amps, 2);
    }
    table.print(std::cout);

    std::cout <<
        "\nAt the 12V rail, 1 count ~= "
        << lhr::formatFixed(cal.fit().slope * 12.0, 3)
        << " W of quantization step.\n";
    return 0;
}
