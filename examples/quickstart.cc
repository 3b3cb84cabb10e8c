/**
 * @file
 * Quickstart: the lab as a library. Measure one benchmark on the
 * stock processors and print the measurements. The benchmark is
 * either one of the paper's 61, looked up by name, or a workload
 * described by hand (`my-analytics`), which goes through the same
 * measurement pipeline. Every other way into the lab is an lhrlab
 * command.
 *
 * Usage: quickstart [benchmark-name | my-analytics]
 */

#include <iostream>
#include <string>

#include "core/lab.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace
{

/**
 * A user-defined workload: a hypothetical in-memory analytics engine,
 * memory heavy, moderately parallel, Java. Field meanings are
 * documented on lhr::Benchmark; the miss-curve parameters are what you
 * would measure on your own application with cachegrind or
 * performance counters.
 */
const lhr::Benchmark analytics{
    "my-analytics",
    lhr::Suite::DaCapo09,           // closest suite shape
    lhr::Group::JavaScalable,
    25.0,                           // reference time (s)
    "In-memory analytics engine (user-defined)",
    /* ilp */ 1.7,
    /* memAccessPerInstr */ 0.40,
    /* miss */ {30.0, 0.35, 300000.0, 3.0},
    /* branchMispKi */ 4.0,
    /* fpShare */ 0.10,
    /* appThreads */ 0,             // scales to all contexts
    /* parallelFraction */ 0.88,
    /* jvmServiceFraction */ 0.12,
    /* gcInterferenceRelief */ 0.06,
    /* phaseVariability */ 0.10,
};

/**
 * Measure the hand-written workload. The reference machines were
 * never measured on it, so energy is normalized to the i7 instead of
 * reported as Perf/Ref.
 */
void
measureAnalytics(lhr::Lab &lab)
{
    std::cout << "Measuring '" << analytics.name
              << "' across the stock processors\n\n";

    const double i7Energy =
        lab.measure(lhr::stockConfig(lhr::processorById("i7 (45)")),
                    analytics).energyJ();

    lhr::TableWriter table;
    table.addColumn("Processor", lhr::TableWriter::Align::Left);
    table.addColumn("Time s");
    table.addColumn("Power W");
    table.addColumn("Energy J");
    table.addColumn("Energy vs i7");
    for (const auto &spec : lhr::allProcessors()) {
        const auto &m =
            lab.measure(lhr::stockConfig(spec), analytics);
        table.beginRow();
        table.cell(spec.id);
        table.cell(m.timeSec, 2);
        table.cell(m.powerW, 1);
        table.cell(m.energyJ(), 1);
        table.cell(m.energyJ() / i7Energy, 2);
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 2)
        lhr::fatal(std::string("unexpected argument '") + argv[2] +
                   "' (usage: quickstart [benchmark-name])");
    const std::string benchName = argc > 1 ? argv[1] : "mcf";
    lhr::Lab lab;
    if (benchName == analytics.name) {
        measureAnalytics(lab);
        return 0;
    }
    const lhr::Benchmark *found = lhr::findBenchmark(benchName);
    if (!found) {
        lhr::fatal("unknown benchmark '" + benchName +
                   "' (try: mcf, lusearch, fluidanimate, ...)");
    }
    const lhr::Benchmark &bench = *found;

    std::cout << "Benchmark: " << bench.name << " ("
              << lhr::suiteName(bench.suite) << ", "
              << lhr::groupName(bench.group) << ")\n"
              << bench.description << "\n\n";

    lhr::TableWriter table;
    table.addColumn("Processor", lhr::TableWriter::Align::Left);
    table.addColumn("Time (s)");
    table.addColumn("+-%");
    table.addColumn("Power (W)");
    table.addColumn("+-%");
    table.addColumn("Energy (J)");
    table.addColumn("Perf/Ref");

    for (const auto &spec : lhr::allProcessors()) {
        const auto cfg = lhr::stockConfig(spec);
        const auto &m = lab.measure(cfg, bench);
        const auto r = lab.result(cfg, bench);
        table.beginRow();
        table.cell(spec.id);
        table.cell(m.timeSec, 2);
        table.cell(100.0 * m.timeCi95Rel, 2);
        table.cell(m.powerW, 2);
        table.cell(100.0 * m.powerCi95Rel, 2);
        table.cell(m.energyJ(), 1);
        table.cell(r.perf, 2);
    }
    table.print(std::cout);
    return 0;
}
