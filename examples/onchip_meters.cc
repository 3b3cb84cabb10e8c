/**
 * @file
 * Example: read the on-chip structure power meters while a workload
 * runs — the instrumentation the paper's conclusion asks hardware
 * vendors to expose ("power meters are necessary for optimizing
 * energy"). Shows the RAPL-style raw counter discipline: sample,
 * difference with wraparound, convert by the energy unit.
 *
 * Usage: onchip_meters [benchmark] [processor-id]
 */

#include <iostream>

#include "core/lab.hh"
#include "power/meters.hh"
#include "util/logging.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    if (argc > 3)
        lhr::fatal(std::string("unexpected argument '") + argv[3] +
                   "' (usage: onchip_meters [benchmark] [processor-id])");
    const std::string benchName = argc > 1 ? argv[1] : "pjbb2005";
    const std::string procId = argc > 2 ? argv[2] : "i7 (45)";

    const lhr::Benchmark *bench = lhr::findBenchmark(benchName);
    if (!bench)
        lhr::fatal("unknown benchmark '" + benchName + "'");
    const lhr::ProcessorSpec *spec = lhr::findProcessor(procId);
    if (!spec)
        lhr::fatal("unknown processor '" + procId + "'");

    lhr::Lab lab;
    const auto cfg = lhr::stockConfig(*spec);

    double duration = 0.0;
    const auto meters = lab.runner().meterRun(cfg, *bench, &duration);

    std::cout << "Structure meters for " << bench->name << " on "
              << cfg.label() << " (" << lhr::formatFixed(duration, 2)
              << " s, energy unit "
              << lhr::formatFixed(1e6 * meters.energyUnitJ(), 2)
              << " uJ/count)\n\n";

    lhr::TableWriter table;
    table.addColumn("Domain", lhr::TableWriter::Align::Left);
    table.addColumn("Raw counter");
    table.addColumn("Energy J");
    table.addColumn("Avg W");
    table.addColumn("Share %");

    const double pkgJ = meters.energyJ(lhr::MeterDomain::Package);
    for (const auto domain :
         {lhr::MeterDomain::Package, lhr::MeterDomain::Cores,
          lhr::MeterDomain::Llc, lhr::MeterDomain::Uncore}) {
        const double joules = meters.energyJ(domain);
        table.beginRow();
        table.cell(lhr::meterDomainName(domain));
        table.cell(static_cast<long>(meters.raw(domain)));
        table.cell(joules, 2);
        table.cell(joules / duration, 2);
        table.cell(100.0 * joules / pkgJ, 1);
    }
    table.print(std::cout);

    std::cout << "\nExternal Hall-sensor measurement for comparison: "
              << lhr::formatFixed(lab.measure(cfg, *bench).powerW, 2)
              << " W\n";
    return 0;
}
