/**
 * @file
 * Example: sweep a processor's clock range and chart how
 * performance, power, and energy respond — the experiment behind the
 * paper's Finding 3 (the i5 is energy-flat across its clock range;
 * the i7 and C2D are not).
 *
 * Usage: clock_energy_sweep [processor-id] [steps]
 *   e.g. clock_energy_sweep "i5 (32)" 7
 */

#include <iostream>

#include "core/lab.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    if (argc > 3)
        lhr::fatal(std::string("unexpected argument '") + argv[3] +
                   "' (usage: clock_energy_sweep [processor-id] [steps])");
    const std::string id = argc > 1 ? argv[1] : "i7 (45)";
    if (!lhr::findProcessor(id))
        lhr::fatal("unknown processor '" + id + "'");
    const lhr::Expected<long> steps =
        argc > 2 ? lhr::parseInt(argv[2], 2, 32) : lhr::Expected<long>(6);
    if (!steps.ok())
        lhr::fatal("steps: " + steps.status().message());

    lhr::Lab lab;
    const auto sweep = lhr::clockSweep(lab.runner(), lab.reference(), id,
                                       static_cast<int>(steps.value()));

    std::cout << "Clock sweep of " << id
              << " (all values relative to the lowest clock)\n\n";

    lhr::TableWriter table;
    table.addColumn("GHz");
    table.addColumn("Perf");
    table.addColumn("Energy");
    table.addColumn("Perf/GHz");
    for (const auto &pt : sweep) {
        table.beginRow();
        table.cell(pt.clockGhz, 2);
        table.cell(pt.perfRelBase, 3);
        table.cell(pt.energyRelBase, 3);
        table.cell(pt.perfRelBase /
                   (pt.clockGhz / sweep.front().clockGhz), 3);
    }
    table.print(std::cout);

    const auto &last = sweep.back();
    std::cout << "\nVerdict: running " << id
              << " at its top clock costs "
              << lhr::formatFixed(
                     100.0 * (last.energyRelBase - 1.0), 1)
              << "% energy versus its lowest clock.\n";
    return 0;
}
