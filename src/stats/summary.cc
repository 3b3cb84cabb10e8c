#include "stats/summary.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/fp.hh"

namespace lhr
{

Summary::Summary()
    : n(0), meanAcc(0.0), m2Acc(0.0),
      minAcc(std::numeric_limits<double>::infinity()),
      maxAcc(-std::numeric_limits<double>::infinity())
{
}

void
Summary::add(double x)
{
    ++n;
    const double delta = x - meanAcc;
    meanAcc += delta / static_cast<double>(n);
    m2Acc += delta * (x - meanAcc);
    minAcc = std::min(minAcc, x);
    maxAcc = std::max(maxAcc, x);
}

double
Summary::mean() const
{
    if (n == 0)
        panic("Summary::mean on empty summary");
    return meanAcc;
}

double
Summary::variance() const
{
    if (n < 2)
        return 0.0;
    return m2Acc / static_cast<double>(n - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

double
Summary::min() const
{
    if (n == 0)
        panic("Summary::min on empty summary");
    return minAcc;
}

double
Summary::max() const
{
    if (n == 0)
        panic("Summary::max on empty summary");
    return maxAcc;
}

double
Summary::ci95() const
{
    if (n < 2)
        return 0.0;
    const double sem = stddev() / std::sqrt(static_cast<double>(n));
    return tCritical95(n - 1) * sem;
}

double
Summary::ci95Relative() const
{
    if (n == 0 || exactZero(meanAcc))
        return 0.0;
    return ci95() / std::fabs(meanAcc);
}

double
tCritical95(size_t df)
{
    // Two-sided 95% critical values of the t distribution.
    static const double table[] = {
        0.0,    // df = 0 (unused)
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        panic("tCritical95 with zero degrees of freedom");
    if (df < sizeof(table) / sizeof(table[0]))
        return table[df];
    if (df < 60)
        return 2.000;
    if (df < 120)
        return 1.980;
    return 1.960;
}

double
meanOf(const std::vector<double> &xs)
{
    if (xs.empty())
        panic("meanOf on empty vector");
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
geomeanOf(const std::vector<double> &xs)
{
    if (xs.empty())
        panic("geomeanOf on empty vector");
    double logSum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            panic("geomeanOf requires positive values");
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

double
percentileOf(std::vector<double> xs, double pct)
{
    if (xs.empty())
        panic("percentileOf on empty vector");
    if (pct < 0.0 || pct > 100.0)
        panic("percentileOf: percentile out of range");
    const double rank = pct / 100.0 * (xs.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const double frac = rank - lo;
    // The two order statistics a full sort would supply: select the
    // lo-th, then the next one up is the smallest element above it.
    const auto loIt = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(xs.begin(), loIt, xs.end());
    const double above =
        lo + 1 < xs.size() ? *std::min_element(loIt + 1, xs.end()) : *loIt;
    return *loIt * (1.0 - frac) + above * frac;
}

} // namespace lhr
