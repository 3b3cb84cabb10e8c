/**
 * @file
 * Example: measure a user-defined workload. Downstream users are not
 * limited to the paper's 61 benchmarks — a Benchmark descriptor can
 * be written by hand (e.g. from performance-counter profiles of your
 * own application) and pushed through the same measurement pipeline.
 *
 * This models a hypothetical in-memory analytics engine: memory
 * heavy, moderately parallel, Java.
 */

#include <iostream>

#include "core/lab.hh"
#include "util/logging.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    if (argc > 1)
        lhr::fatal(std::string("unexpected argument '") + argv[1] +
                   "' (custom_workload takes none)");

    // Describe the workload. Field meanings are documented on
    // lhr::Benchmark; miss-curve parameters are what you would
    // measure with cachegrind or performance counters.
    lhr::Benchmark analytics{
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

    lhr::Lab lab;
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
    return 0;
}
