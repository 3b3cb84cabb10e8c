/**
 * @file
 * Quickstart: measure one benchmark on one processor and print the
 * measurement, then compare the stock processors on that benchmark.
 *
 * Usage: quickstart [benchmark-name]
 */

#include <iostream>
#include <string>

#include "core/lab.hh"
#include "util/logging.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    if (argc > 2)
        lhr::fatal(std::string("unexpected argument '") + argv[2] +
                   "' (usage: quickstart [benchmark-name])");
    const std::string benchName = argc > 1 ? argv[1] : "mcf";
    const lhr::Benchmark *found = lhr::findBenchmark(benchName);
    if (!found) {
        lhr::fatal("unknown benchmark '" + benchName +
                   "' (try: mcf, lusearch, fluidanimate, ...)");
    }
    const lhr::Benchmark &bench = *found;

    lhr::Lab lab;

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
