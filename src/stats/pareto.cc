#include "stats/pareto.hh"

#include <algorithm>

#include "util/fp.hh"

namespace lhr
{

bool
dominates(const ParetoPoint &a, const ParetoPoint &b)
{
    const bool noWorse =
        a.performance >= b.performance && a.energy <= b.energy;
    const bool better =
        a.performance > b.performance || a.energy < b.energy;
    return noWorse && better;
}

std::vector<ParetoPoint>
paretoFrontier(const std::vector<ParetoPoint> &points)
{
    std::vector<ParetoPoint> frontier;
    for (const auto &candidate : points) {
        bool dominated = false;
        for (const auto &other : points) {
            if (dominates(other, candidate)) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            frontier.push_back(candidate);
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const ParetoPoint &a, const ParetoPoint &b) {
                  if (!exactlyEqual(a.performance, b.performance))
                      return a.performance < b.performance;
                  return a.energy < b.energy;
              });
    return frontier;
}

} // namespace lhr
