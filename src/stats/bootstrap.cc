#include "stats/bootstrap.hh"

#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/fp.hh"

namespace lhr
{

double
BootstrapCi::halfWidthRelative() const
{
    if (exactZero(mean))
        return 0.0;
    return (hi - lo) / 2.0 / std::fabs(mean);
}

BootstrapCi
bootstrapCi95(const std::vector<double> &samples, Rng &rng,
              int resamples)
{
    if (samples.size() < 2)
        panic("bootstrapCi95: need at least two samples");
    if (resamples < 100)
        panic("bootstrapCi95: too few resamples");

    double sum = 0.0;
    for (double x : samples)
        sum += x;

    // Resample in groups. A group's indices are drawn first, in the
    // stream order of one below() per draw; then each resample is
    // summed in its own index order, `width` resamples interleaved
    // so their add chains overlap. Every sum adds the same values in
    // the same order as a resample-at-a-time loop, so the bits match.
    const size_t n = samples.size();
    const size_t total = static_cast<size_t>(resamples);
    constexpr size_t width = 4;
    constexpr size_t indexBudget = 8192;
    const size_t group =
        std::min(total, std::max(width, indexBudget / n / width * width));
    std::vector<uint64_t> indices(group * n);
    std::vector<double> means;
    means.reserve(total);
    for (size_t first = 0; first < total; first += group) {
        const size_t count = std::min(group, total - first);
        rng.fillBelow(n, indices.data(), count * n);
        size_t r = 0;
        for (; r + width <= count; r += width) {
            const uint64_t *draw = &indices[r * n];
            double resum[width] = {};
            for (size_t i = 0; i < n; ++i) {
                for (size_t w = 0; w < width; ++w)
                    resum[w] += samples[draw[w * n + i]];
            }
            for (size_t w = 0; w < width; ++w)
                means.push_back(resum[w] / n);
        }
        for (; r < count; ++r) {
            const uint64_t *draw = &indices[r * n];
            double resum = 0.0;
            for (size_t i = 0; i < n; ++i)
                resum += samples[draw[i]];
            means.push_back(resum / n);
        }
    }
    BootstrapCi ci;
    ci.mean = sum / samples.size();
    ci.lo = percentileOf(means, 2.5);
    ci.hi = percentileOf(std::move(means), 97.5);
    return ci;
}

} // namespace lhr
