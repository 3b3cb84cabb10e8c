/**
 * @file
 * Vector-friendly Box-Muller transcendental kernel.
 *
 * The sampling hot loop (ExperimentRunner::runMeasurement) spends
 * most of its time in libm log/sin/cos inside Rng::gaussian. Those
 * three are the only operations in the whole measurement chain whose
 * SIMD versions would not be bitwise identical to the scalar ones
 * (IEEE +,-,*,/ and sqrt are correctly rounded everywhere; library
 * transcendentals are not). The batch sampler therefore computes
 * gaussian pairs with this *approximate* polynomial kernel — close
 * to libm to well under 1e-12 absolute — and the caller keeps the
 * result only where the downstream integer ADC count provably cannot
 * change within that error (see sampling.cc's certainty window);
 * everything else is recomputed through the exact scalar path. The
 * kernel's accuracy therefore affects only how often the fallback
 * runs, never the bits of a Measurement.
 *
 * Two translation units compile the same loop: a baseline build and
 * an AVX2+FMA build selected at runtime when the CPU supports it.
 * Their results may differ from each other — that is fine, for the
 * same reason.
 */

#ifndef LHR_SENSOR_GAUSS_KERNEL_HH
#define LHR_SENSOR_GAUSS_KERNEL_HH

#include <cstddef>
#include <cstdint>

namespace lhr
{

/**
 * Fill gcos/gsin with approximate Box-Muller gaussian pairs:
 *   r = sqrt(-2 log u1), theta = 2 pi u2,
 *   gcos[i] ~= r cos(theta), gsin[i] ~= r sin(theta).
 * u1 values must lie in (0, 1), u2 in [0, 1).
 */
using GaussKernelFn = void (*)(const double *u1, const double *u2,
                               double *gcos, double *gsin, size_t n);

/** The portable kernel, always available. */
void gaussPairsBase(const double *u1, const double *u2, double *gcos,
                    double *gsin, size_t n);

/**
 * The AVX2+FMA build of the same loop, or nullptr when this binary
 * was compiled without AVX2 support for that translation unit.
 */
GaussKernelFn gaussKernelAvx2OrNull();

/** Best kernel for the running CPU (resolved once, cheap to call). */
GaussKernelFn resolveGaussKernel();

/**
 * Upper bound on |kernel - libm| per gaussian, used to size the
 * certainty window. Deliberately loose: the measured worst case is
 * below 1e-13 (see test_sensor.cc).
 */
constexpr double gaussKernelMaxError = 1e-11;

/**
 * Per-session constants of the sample-quantize kernel: the channel's
 * device personality plus the certainty window sampling.cc derives
 * from it (see there for the window's soundness argument).
 */
struct SampleQuantizeParams
{
    double sens = 0.0;           ///< sensor volts per amp
    double gainFactor = 0.0;     ///< 1 + device gain error
    double offsetVolts = 0.0;    ///< device offset
    double noiseVolts = 0.0;     ///< sampling-noise sigma
    double ratedAmps = 0.0;      ///< over-range knee
    double window = 0.0;         ///< certainty window in ADC counts
    double zeroWattsGuard = 0.0; ///< near-0W lanes take the fallback
};

/**
 * Quantize a session's samples to ADC counts in batch:
 *   counts[s] = quantize(outputVolts(w[s] ripple-scaled by g1[s],
 *                        noise g2[s]))
 * for every lane whose integer count provably cannot differ from the
 * exact-libm computation given |g - g_exact| <= gaussKernelMaxError.
 * Lanes that cannot be proven (boundary-straddling or near-zero
 * power) are appended to `uncertain` (capacity n) and their counts
 * slot is left unwritten; returns how many were flagged. w[s] is the
 * sample's phase power pre-multiplied by the invocation scale.
 */
using SampleQuantizeFn = size_t (*)(const double *w, const double *g1,
                                    const double *g2, int n,
                                    const SampleQuantizeParams &p,
                                    int32_t *counts,
                                    int32_t *uncertain);

/** The portable quantize loop, always available. */
size_t sampleQuantizeBase(const double *w, const double *g1,
                          const double *g2, int n,
                          const SampleQuantizeParams &p,
                          int32_t *counts, int32_t *uncertain);

/** The AVX2+FMA build, or nullptr (same contract as the gaussian). */
SampleQuantizeFn sampleQuantizeAvx2OrNull();

/** Best quantize kernel for the running CPU. */
SampleQuantizeFn resolveSampleQuantize();

} // namespace lhr

#endif // LHR_SENSOR_GAUSS_KERNEL_HH
