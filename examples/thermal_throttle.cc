/**
 * @file
 * Example: Turbo Boost in the time domain. A sustained hot workload
 * on the i7 boosts while the package is cool, then sheds the boost
 * step as the junction approaches its limit — the dynamic behind the
 * paper's §3.6 observation that boost depends on "temperature,
 * power, and current conditions".
 *
 * Usage: thermal_throttle [power_watts] [seconds]
 */

#include <iostream>

#include "core/lab.hh"
#include "power/thermal_transient.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    if (argc > 3)
        lhr::fatal(std::string("unexpected argument '") + argv[3] +
                   "' (usage: thermal_throttle [power_watts] [seconds])");
    const lhr::Expected<double> wattsArg =
        argc > 1 ? lhr::parseReal(argv[1]) : lhr::Expected<double>(138.0);
    if (!wattsArg.ok() || wattsArg.value() < 0.0 ||
        wattsArg.value() > 1000.0) {
        lhr::fatal(std::string("power_watts takes a number in 0..1000, "
                               "got '") + argv[1] + "'");
    }
    const lhr::Expected<long> secondsArg =
        argc > 2 ? lhr::parseInt(argv[2], 0, 86400) : lhr::Expected<long>(120);
    if (!secondsArg.ok())
        lhr::fatal("seconds: " + secondsArg.status().message());
    const double watts = wattsArg.value();
    const long seconds = secondsArg.value();

    const auto cfg =
        lhr::stockConfig(lhr::processorById("i7 (45)"));
    lhr::ThermalThrottle throttle(cfg, 2, 8.0);

    std::cout << "Sustained " << lhr::formatFixed(watts, 0)
              << " W single-core load on " << cfg.label()
              << " (throttle point "
              << lhr::formatFixed(lhr::ThermalModel::throttleJunctionC,
                                  0)
              << " C)\n\n";

    lhr::TableWriter table;
    table.addColumn("t (s)");
    table.addColumn("Junction C");
    table.addColumn("Boost steps");
    table.addColumn("Clock GHz");

    double clock = cfg.clockGhz;
    for (int t = 0; t <= seconds; ++t) {
        clock = throttle.step(
            [&](double f) {
                // Power tracks clock roughly linearly near the top.
                return watts * f / (cfg.clockGhz + 0.266);
            },
            1.0);
        if (t % 10 == 0) {
            table.beginRow();
            table.cell(static_cast<long>(t));
            table.cell(throttle.junctionC(), 1);
            table.cell(static_cast<long>(throttle.currentSteps()));
            table.cell(clock, 2);
        }
    }
    table.print(std::cout);

    std::cout <<
        "\nBoost survives the cold start and is withdrawn as the\n"
        "package saturates its thermal headroom; a cooler workload\n"
        "(try 60 W) keeps both steps indefinitely.\n";
    return 0;
}
