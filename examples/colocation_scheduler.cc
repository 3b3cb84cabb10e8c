/**
 * @file
 * Example: energy-aware co-location scheduling built on the co-run
 * interference model. Given a batch of single-threaded jobs and a
 * two-core machine, pair them to minimize total completion slowdown
 * — the downstream use the paper's measurement infrastructure
 * enables ("measure power and performance to understand and
 * optimize", Conclusion).
 *
 * Compares the best pairing against the worst and against a naive
 * in-order pairing.
 */

#include <algorithm>
#include <iostream>
#include <numeric>

#include "core/lab.hh"
#include "harness/corun.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace
{

struct Pairing
{
    std::vector<std::pair<int, int>> pairs;
    double totalSlowdown;
};

double
costOf(const std::vector<std::vector<double>> &penalty,
       const std::vector<std::pair<int, int>> &pairs)
{
    double cost = 0.0;
    for (const auto &[a, b] : pairs)
        cost += penalty[a][b] + penalty[b][a];
    return cost;
}

/** Exhaustive best/worst perfect matching over a small job set. */
void
search(const std::vector<std::vector<double>> &penalty,
       std::vector<int> &remaining,
       std::vector<std::pair<int, int>> &current, Pairing &best,
       Pairing &worst)
{
    if (remaining.empty()) {
        const double cost = costOf(penalty, current);
        if (best.pairs.empty() || cost < best.totalSlowdown)
            best = {current, cost};
        if (worst.pairs.empty() || cost > worst.totalSlowdown)
            worst = {current, cost};
        return;
    }
    const int first = remaining.front();
    for (size_t i = 1; i < remaining.size(); ++i) {
        std::vector<int> next;
        for (size_t j = 1; j < remaining.size(); ++j)
            if (j != i)
                next.push_back(remaining[j]);
        current.emplace_back(first, remaining[i]);
        search(penalty, next, current, best, worst);
        current.pop_back();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1)
        lhr::fatal(std::string("unexpected argument '") + argv[1] +
                   "' (colocation_scheduler takes none)");

    lhr::Lab lab;
    lhr::CoRunner corunner(lab.runner());
    const auto cfg = lhr::stockConfig(lhr::processorById("C2D (65)"));

    const std::vector<const lhr::Benchmark *> jobs = {
        &lhr::benchmarkByName("hmmer"),
        &lhr::benchmarkByName("mcf"),
        &lhr::benchmarkByName("gcc"),
        &lhr::benchmarkByName("xalancbmk"),
        &lhr::benchmarkByName("povray"),
        &lhr::benchmarkByName("omnetpp"),
    };

    std::cout << "Pairing " << jobs.size()
              << " jobs onto the two cores of " << cfg.label()
              << "\n(cost = summed co-run slowdowns)\n\n";

    const auto penalty = corunner.matrix(cfg, jobs);

    std::vector<int> indices(jobs.size());
    std::iota(indices.begin(), indices.end(), 0);
    std::vector<std::pair<int, int>> current;
    Pairing best, worst;
    search(penalty, indices, current, best, worst);

    std::vector<std::pair<int, int>> naive;
    for (size_t i = 0; i + 1 < jobs.size(); i += 2)
        naive.emplace_back(i, i + 1);

    auto show = [&](const char *label,
                    const std::vector<std::pair<int, int>> &pairs) {
        std::cout << label << " (cost "
                  << lhr::formatFixed(costOf(penalty, pairs), 3)
                  << "):";
        for (const auto &[a, b] : pairs)
            std::cout << "  [" << jobs[a]->name << " + "
                      << jobs[b]->name << "]";
        std::cout << "\n";
    };

    show("Best pairing ", best.pairs);
    show("Naive pairing", naive);
    show("Worst pairing", worst.pairs);

    std::cout << "\nInterference penalty avoided by scheduling: "
              << lhr::formatFixed(
                     100.0 * (worst.totalSlowdown - best.totalSlowdown) /
                         worst.totalSlowdown,
                     1)
              << "% of the worst case.\nThe rule the matrix teaches: "
                 "never waste two interference-immune\njobs (hmmer, "
                 "povray) on each other — spread them against the\n"
                 "aggressors.\n";
    return 0;
}
