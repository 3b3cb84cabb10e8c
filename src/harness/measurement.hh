/**
 * @file
 * Measurement results of the experimental harness.
 */

#ifndef LHR_HARNESS_MEASUREMENT_HH
#define LHR_HARNESS_MEASUREMENT_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "power/chip_power.hh"

namespace lhr
{

/**
 * The aggregated measurement of one benchmark on one configuration:
 * means and relative 95% confidence intervals over the prescribed
 * number of invocations.
 */
struct Measurement
{
    double timeSec = 0.0;      ///< mean measured execution time
    double timeCi95Rel = 0.0;  ///< 95% CI as a fraction of the mean
    double powerW = 0.0;       ///< mean measured average power
    double powerCi95Rel = 0.0; ///< 95% CI as a fraction of the mean
    int invocations = 0;       ///< repetitions aggregated

    // Measurement-quality accounting, populated only when a fault
    // plan routed sampling through the injector (all zero on the
    // clean path; see MeasurementPolicy for the recovery protocol).
    long samplesLost = 0;       ///< 50Hz slots the logger missed
    long samplesRailed = 0;     ///< saturated ADC codes rejected
    long samplesDuplicated = 0; ///< stale repeats rejected
    int retries = 0;            ///< sessions re-run after validation
    int extraInvocations = 0;   ///< CI-gate re-runs beyond prescribed
    int outlierInvocations = 0; ///< invocations the MAD screen dropped
    bool degraded = false;      ///< recovery hit a cap; suspect result

    /** Energy = power x time (paper section 1). */
    double energyJ() const { return timeSec * powerW; }
};

/**
 * Whether two measurements carry the same bits: every double equal
 * bit for bit (no tolerance), every count and flag equal. The lab
 * promises this across thread counts, shards, resumes, sensor
 * backends and empty fault plans; the checks of that promise all
 * compare with this one rule.
 */
inline bool
sameBits(const Measurement &a, const Measurement &b)
{
    const auto bits = [](double x, double y) {
        return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
    };
    return bits(a.timeSec, b.timeSec) &&
        bits(a.timeCi95Rel, b.timeCi95Rel) && bits(a.powerW, b.powerW) &&
        bits(a.powerCi95Rel, b.powerCi95Rel) &&
        a.invocations == b.invocations &&
        a.samplesLost == b.samplesLost &&
        a.samplesRailed == b.samplesRailed &&
        a.samplesDuplicated == b.samplesDuplicated &&
        a.retries == b.retries &&
        a.extraInvocations == b.extraInvocations &&
        a.outlierInvocations == b.outlierInvocations &&
        a.degraded == b.degraded;
}

/**
 * One deterministic (noise-free) execution: the ground truth the
 * sensor chain then measures. Exposed for model-level analyses and
 * tests that need to see behind the measurement error.
 */
struct ExecutionProfile
{
    double timeSec;                    ///< true execution time
    double grantedClockGhz;            ///< after the Turbo governor
    /**
     * The clock the pipeline actually ran at: grantedClockGhz minus
     * any AVX license reduction (ProcessorSpec::avxClockPenalty).
     * Equal to grantedClockGhz on the paper parts.
     */
    double effectiveClockGhz;
    std::vector<double> coreActivity;  ///< per enabled core (0 idle)
    double llcActivity;
    double dramGBs;
    int activeCores;                   ///< cores with nonzero activity
    PowerBreakdown power;              ///< true chip power
};

} // namespace lhr

#endif // LHR_HARNESS_MEASUREMENT_HH
