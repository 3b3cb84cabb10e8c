/**
 * @file
 * Named floating-point comparisons.
 *
 * A raw `==`/`!=` between doubles is ambiguous to a reader: is it a
 * tolerance bug, a sentinel check, or a deliberate bit-identity test?
 * The build compiles with -Werror=float-equal, so every exact compare
 * goes through one of these helpers and names its intent:
 *
 *   nearlyEqual(a, b)   — tolerance comparison, the default for
 *                         anything that went through arithmetic;
 *   exactZero(x)        — sentinel/degenerate-value check ("was this
 *                         knob left at its 0.0 default?", "is this
 *                         denominator exactly zero?") where an
 *                         epsilon would be wrong;
 *   exactlyEqual(a, b)  — the general exact sentinel comparison, and
 *                         the spelling golden bit-identity checks use
 *                         (two shards of the same seeded sweep agree
 *                         exactly or one of them is wrong).
 */

#ifndef LHR_UTIL_FP_HH
#define LHR_UTIL_FP_HH

#include <algorithm>
#include <cmath>

namespace lhr
{

/**
 * True when a and b agree to `relTol` of the larger magnitude, or
 * to `absTol` near zero (where relative tolerance degenerates).
 * NaN compares unequal to everything, like the builtin operator.
 */
[[nodiscard]] inline bool
nearlyEqual(double a, double b, double relTol = 1e-9,
            double absTol = 1e-12)
{
    const double diff = std::fabs(a - b);
    if (diff <= absTol)
        return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return diff <= relTol * scale;
}

// The two named exact compares are the one place -Wfloat-equal may
// not fire.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"

/** Exact sentinel comparison; see the file comment for when. */
[[nodiscard]] inline constexpr bool
exactlyEqual(double a, double b)
{
    return a == b;
}

/** x is exactly 0.0 (or -0.0) — the unset-knob / zero-denominator check. */
[[nodiscard]] inline constexpr bool
exactZero(double x)
{
    return x == 0.0;
}

#pragma GCC diagnostic pop

} // namespace lhr

#endif // LHR_UTIL_FP_HH
