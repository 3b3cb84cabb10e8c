/**
 * @file
 * Running summary statistics and Student-t confidence intervals.
 *
 * The paper reports 95% confidence intervals on execution time and
 * power over 3 (SPEC prescription), 5 (PARSEC) or 20 (Java)
 * repetitions (Table 2). Summary accumulates samples with Welford's
 * online algorithm and produces those intervals.
 */

#ifndef LHR_STATS_SUMMARY_HH
#define LHR_STATS_SUMMARY_HH

#include <cstddef>
#include <vector>

namespace lhr
{

/**
 * Online accumulator for mean, variance, extrema and 95% CIs.
 */
class Summary
{
  public:
    Summary();

    /** Add a sample. */
    void add(double x);

    /** Number of samples. */
    size_t count() const { return n; }

    /** Arithmetic mean. panic()s when empty. */
    double mean() const;

    /** Unbiased sample variance; 0 when fewer than 2 samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample. panic()s when empty. */
    double min() const;

    /** Largest sample. panic()s when empty. */
    double max() const;

    /**
     * Half-width of the 95% confidence interval on the mean
     * (Student-t); 0 when fewer than 2 samples.
     */
    double ci95() const;

    /**
     * ci95() as a fraction of the mean — the "confidence interval"
     * percentage the paper tabulates. 0 when the mean is 0.
     */
    double ci95Relative() const;

  private:
    size_t n;
    double meanAcc;
    double m2Acc;
    double minAcc;
    double maxAcc;
};

/**
 * Two-sided 95% Student-t critical value for the given degrees of
 * freedom (df >= 1). Exact table for small df, asymptote above.
 */
double tCritical95(size_t df);

/** Arithmetic mean of a vector. panic()s when empty. */
double meanOf(const std::vector<double> &xs);

/** Geometric mean of a vector of positive values. panic()s when empty. */
double geomeanOf(const std::vector<double> &xs);

/**
 * Percentile in [0, 100] with linear interpolation between order
 * statistics. Copies, then selects the two order statistics it
 * interpolates (no full sort); panic()s on empty input or an
 * out-of-range percentile.
 */
double percentileOf(std::vector<double> xs, double pct);

} // namespace lhr

#endif // LHR_STATS_SUMMARY_HH
