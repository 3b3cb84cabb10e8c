/**
 * @file
 * Order statistics the benchmark reports beside lhr::percentileOf:
 * nearest-rank percentiles, and the tail percentile that is backed by
 * enough samples to mean something.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench
{

/**
 * Nearest-rank percentile of `sorted` (ascending): the smallest value
 * with at least p% of the samples at or below it. 0 when empty.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/** A tail percentile together with the samples that support it. */
struct Tail
{
    double percentile = 0.0; ///< e.g. 99.9
    double value = 0.0;      ///< nearest-rank value at that percentile
    size_t samples = 0;      ///< samples the percentile was taken over
    size_t beyond = 0;       ///< samples strictly above its rank
};

/**
 * The highest percentile of the ladder 50, 90, 99, 99.9, ... that has
 * at least `min_beyond` samples beyond its rank, with its sample
 * count. A p99 over 200 samples rests on two points; this reports the
 * p90 instead. nullopt when even the median lacks support.
 */
std::optional<Tail> highestTail(std::vector<double> values,
                                size_t min_beyond = 10);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
