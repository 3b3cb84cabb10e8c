/**
 * @file
 * A/B comparison of perf-baseline artifacts (BENCH_sweep.json,
 * BENCH_trace.json) for the CI regression gate.
 *
 * Both bench drivers emit an array of {name, config, metrics,
 * wall_sec} records; this module parses two such files, matches
 * records by name, and classifies every metric delta. Only
 * throughput metrics — names ending in "_per_sec" — gate: they are
 * medians over repetitions (see bench/sweep_throughput.cc), so a
 * drop beyond the tolerance is a real regression, not scheduler
 * noise. The gate is additionally noise-aware: when a record
 * carries "<metric>_spread_rel" (relative min-to-max spread across
 * the repetitions), the tolerance for that metric widens to at
 * least the spread observed on either side, so a machine whose
 * repetitions disagree by 20% cannot fail a 15% gate on noise
 * alone. Everything else (wall_sec, cache counters, speedup) is
 * reported in the table but never fails the build.
 */

#ifndef LHR_ANALYSIS_PERF_COMPARE_HH
#define LHR_ANALYSIS_PERF_COMPARE_HH

#include <string>
#include <utility>
#include <vector>

#include "util/fp.hh"
#include "util/status.hh"

namespace lhr
{

/** One bench record: its name and flattened numeric metrics. */
struct PerfRecord
{
    std::string name;
    /** "metrics.*" members plus wall_sec, in document order. */
    std::vector<std::pair<std::string, double>> metrics;

    /** Metric by name, or `fallback` when absent. */
    [[nodiscard]] double metricOr(const std::string &key, double fallback) const;
    [[nodiscard]] bool hasMetric(const std::string &key) const;
};

/**
 * Parse a bench baseline document (a JSON array of records).
 * Records without a string "name" are a ParseError; non-numeric
 * metrics are skipped (the writer emits null for non-finite values).
 */
[[nodiscard]] Expected<std::vector<PerfRecord>>
parsePerfRecords(const std::string &json_text);

/** How a metric's delta is judged. */
enum class MetricDirection
{
    HigherIsBetter, ///< throughput: "*_per_sec" — gates
    Informational,  ///< everything else — reported only
};

[[nodiscard]] MetricDirection metricDirection(const std::string &metric);

/** One metric of one record, before vs after. */
struct PerfDelta
{
    std::string record; ///< record name, e.g. "sweep_serial"
    std::string metric; ///< metric name, e.g. "experiments_per_sec"
    double before = 0.0;
    double after = 0.0;
    MetricDirection direction = MetricDirection::Informational;
    /**
     * Gate tolerance for this delta: the configured tolerance
     * widened to the repetition spread either side reported
     * ("<metric>_spread_rel"), so noisy hosts do not false-fail.
     */
    double tolerance = 0.0;

    /** (after - before) / before; 0 when before is 0. */
    [[nodiscard]] double deltaRel() const
    {
        return !exactZero(before) ? (after - before) / before : 0.0;
    }

    /** True when this delta fails the gate. */
    [[nodiscard]] bool regression() const
    {
        return direction == MetricDirection::HigherIsBetter &&
            deltaRel() < -tolerance;
    }
};

/** The full A/B comparison of two baseline files. */
struct PerfComparison
{
    std::vector<PerfDelta> deltas;       ///< matched, in B-file order
    std::vector<std::string> onlyBefore; ///< records gone in B
    std::vector<std::string> onlyAfter;  ///< records new in B

    [[nodiscard]] bool hasRegression() const;
    [[nodiscard]] std::vector<const PerfDelta *> regressions() const;
};

/**
 * Compare two parsed baselines. `tolerance` is the relative drop a
 * gating metric may take before it counts as a regression (0.15 =
 * 15%); per-metric spreads can only widen it, never narrow it.
 */
[[nodiscard]] PerfComparison comparePerfRecords(const std::vector<PerfRecord> &before,
                                  const std::vector<PerfRecord> &after,
                                  double tolerance);

/**
 * GitHub-flavoured markdown A/B table of the comparison — emitted
 * into the CI job summary whether or not the gate fails, so every
 * run documents its perf delta.
 */
std::string perfTableMarkdown(const PerfComparison &cmp,
                              const std::string &title);

} // namespace lhr

#endif // LHR_ANALYSIS_PERF_COMPARE_HH
