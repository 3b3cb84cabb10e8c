/**
 * @file
 * Example: log a raw power trace the way the paper's AVR stick does
 * (§2.5) — 50Hz ADC samples over the benchmark's phase behaviour —
 * and summarize it. With --csv the raw trace is emitted for
 * plotting.
 *
 * Usage: power_trace [benchmark] [--csv]
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "core/lab.hh"
#include "util/logging.hh"
#include "sensor/hall.hh"
#include "sensor/trace_log.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    if (argc > 3 || (argc == 3 && std::strcmp(argv[2], "--csv") != 0))
        lhr::fatal(std::string("unexpected argument '") + argv[argc - 1] +
                   "' (usage: power_trace [benchmark] [--csv])");
    const std::string benchName = argc > 1 ? argv[1] : "gcc";
    const bool emitCsv = argc == 3;

    lhr::Lab lab;
    const auto &spec = lhr::processorById("i7 (45)");
    const auto cfg = lhr::stockConfig(spec);
    const lhr::Benchmark *found = lhr::findBenchmark(benchName);
    if (!found)
        lhr::fatal("unknown benchmark '" + benchName + "'");
    const lhr::Benchmark &bench = *found;

    // Sample the execution's true phase-power waveform through a
    // fresh calibrated channel, exactly as the harness does.
    double duration = 0.0;
    const auto meters = lab.runner().meterRun(cfg, bench, &duration);
    const double meanTrueW =
        meters.energyJ(lhr::MeterDomain::Package) / duration;
    const auto series = lab.runner().phasePowerSeries(cfg, bench);

    const lhr::PowerChannel channel(lhr::SensorVariant::A30, 99);
    lhr::Rng calRng(100);
    const auto cal = lhr::Calibration::calibrate(channel, calRng);
    lhr::HallSession session(channel, cal);
    lhr::PowerTraceLogger logger(session);

    lhr::Rng rng(101);
    const double logged = std::min(duration, 20.0);
    const int samples = std::max(
        32, static_cast<int>(logged * lhr::PowerChannel::sampleHz));
    for (int i = 0; i < samples; ++i) {
        const double t = i / lhr::PowerChannel::sampleHz;
        const size_t k = static_cast<size_t>(i) * series.size() / samples;
        logger.sample(t, series[k].total(), rng);
    }

    if (emitCsv) {
        logger.writeCsv(std::cout);
        return 0;
    }

    std::cout << "Power trace of " << bench.name << " on "
              << cfg.label() << " (" << logger.count()
              << " samples @ 50Hz)\n\n";
    lhr::TableWriter table;
    table.addColumn("Statistic", lhr::TableWriter::Align::Left);
    table.addColumn("Watts");
    auto row = [&](const char *name, double value) {
        table.beginRow();
        table.cell(std::string(name));
        table.cell(value, 2);
    };
    row("mean", logger.meanW());
    row("min", logger.minW());
    row("p5", logger.percentileW(5));
    row("median", logger.percentileW(50));
    row("p95", logger.percentileW(95));
    row("max", logger.maxW());
    row("metered true mean", meanTrueW);
    table.print(std::cout);
    std::cout << "\nRe-run with --csv for the raw trace.\n";
    return 0;
}
