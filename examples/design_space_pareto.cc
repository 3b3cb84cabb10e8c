/**
 * @file
 * Example: extract the measured energy/performance Pareto frontier
 * of the 45nm design space for a chosen workload group — the paper's
 * section 4.2 analysis as a reusable tool.
 *
 * Usage: design_space_pareto [group]
 *   group: nn | ns | jn | js | avg (default avg)
 */

#include <iostream>
#include <optional>
#include <string>

#include "core/lab.hh"
#include "util/logging.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    if (argc > 2)
        lhr::fatal(std::string("unexpected argument '") + argv[2] +
                   "' (usage: design_space_pareto [group])");
    const std::string which = argc > 1 ? argv[1] : "avg";
    std::optional<lhr::Group> group;
    if (which == "nn")
        group = lhr::Group::NativeNonScalable;
    else if (which == "ns")
        group = lhr::Group::NativeScalable;
    else if (which == "jn")
        group = lhr::Group::JavaNonScalable;
    else if (which == "js")
        group = lhr::Group::JavaScalable;
    else if (which != "avg")
        lhr::fatal("unknown group '" + which +
                   "' (use nn|ns|jn|js|avg)");

    lhr::Lab lab;
    const auto points = lhr::paretoPoints45nm(
        lab.runner(), lab.reference(), group);
    const auto frontier = lhr::paretoFrontier(points);

    std::cout << "45nm energy/performance design space for "
              << (group ? lhr::groupName(*group) : "the average")
              << "\n(" << points.size() << " configurations, "
              << frontier.size() << " Pareto-efficient)\n\n";

    auto onFrontier = [&](const std::string &label) {
        for (const auto &member : frontier)
            if (member.label == label)
                return true;
        return false;
    };

    lhr::TableWriter table;
    table.addColumn("Configuration", lhr::TableWriter::Align::Left);
    table.addColumn("Perf/Ref");
    table.addColumn("Energy/Ref");
    table.addColumn("Pareto", lhr::TableWriter::Align::Left);
    for (const auto &pt : points) {
        table.beginRow();
        table.cell(pt.label);
        table.cell(pt.performance, 2);
        table.cell(pt.energy, 3);
        table.cell(onFrontier(pt.label) ? "*" : "");
    }
    table.print(std::cout);
    return 0;
}
