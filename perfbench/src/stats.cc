#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of percentile p among n samples. */
size_t
nearestRank(size_t n, double p)
{
    const double exact = p / 100.0 * static_cast<double>(n);
    // Percentiles like 99.9 are not exact in binary; a rank that is
    // an integer up to rounding must not be pushed one place up.
    const size_t rank =
        static_cast<size_t>(std::ceil(exact - 1e-9 * static_cast<double>(n)));
    return std::clamp<size_t>(rank, 1, n);
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(sorted.size(), p) - 1];
}

std::optional<Tail>
highestTail(std::vector<double> values, size_t min_beyond)
{
    const size_t n = values.size();
    std::optional<Tail> best;
    if (n == 0)
        return best;
    std::sort(values.begin(), values.end());
    static const double ladder[] = {50.0,   90.0,    99.0,     99.9,
                                    99.99, 99.999, 99.9999};
    for (const double p : ladder) {
        const size_t rank = nearestRank(n, p);
        const size_t beyond = n - rank;
        if (beyond < min_beyond)
            break;
        best = Tail{p, values[rank - 1], n, beyond};
    }
    return best;
}

} // namespace perfbench
