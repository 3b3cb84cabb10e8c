#include "sensor/sampling.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sensor/gauss_kernel.hh"
#include "util/logging.hh"

namespace lhr
{

GaussianStream::GaussianStream(size_t count, Rng &rng,
                               size_t spare_doubles, size_t spare_ints)
{
    static const GaussKernelFn kernel = resolveGaussKernel();

    // Four rows of `rows` doubles (even, odd, u1, u2) and the
    // caller's spares. `rows` covers every layout below: without a
    // drained half the kernel fills ceil(count / 2) slots of each
    // row; with one, even takes one more slot than odd.
    const size_t rows = count / 2 + 1;
    thread_local std::vector<double> doubles;
    thread_local std::vector<int32_t> ints;
    if (doubles.size() < 4 * rows + spare_doubles)
        doubles.resize(4 * rows + spare_doubles);
    if (ints.size() < spare_ints)
        ints.resize(spare_ints);
    even = doubles.data();
    odd = even + rows;
    u1 = odd + rows;
    u2 = u1 + rows;
    spareDoubles = u2 + rows;
    spareInts = ints.data();

    // Rng caches at most one Box-Muller half, left pending by an
    // earlier draw on the stream; it is slot 0, already exact.
    if (count > 0 && rng.hasPendingGaussian()) {
        even[0] = rng.gaussian();
        drained = 1;
    }

    // Uniforms come from the real generator in the exact scalar
    // order (u1 positive-rejected, then u2), so the raw stream is
    // untouched; only log/sin/cos go through the batch kernel. Pair
    // j fills slots drained + 2j (cos) and drained + 2j + 1 (sin):
    // even/odd rows without a drained half, odd/even shifted by one
    // with it. A last half past `count` is discarded, not cached.
    const size_t pairs = (count - drained + 1) / 2;
    for (size_t j = 0; j < pairs; ++j) {
        u1[j] = rng.uniformPositive();
        u2[j] = rng.uniform();
    }
    if (drained == 0)
        kernel(u1, u2, even, odd, pairs);
    else
        kernel(u1, u2, odd, even + 1, pairs);
}

double
GaussianStream::exact(size_t i) const
{
    if (i < drained)
        return even[i]; // the drained half was computed by libm
    const size_t rel = i - drained;
    const size_t j = rel >> 1;
    const double r = std::sqrt(-2.0 * std::log(u1[j]));
    const double theta = 2.0 * M_PI * u2[j];
    return (rel & 1) ? r * std::sin(theta) : r * std::cos(theta);
}

double
sessionWaveform(const double *phase_power_w, int phases, double scale,
                int samples, double *w)
{
    // k = sessionPhase(s, phases, samples), tracked incrementally.
    int k = 0, rem = 0;
    for (int s = 0; s < samples; ++s) {
        w[s] = phase_power_w[k] * scale;
        rem += phases;
        while (rem >= samples) {
            rem -= samples;
            ++k;
        }
    }
    double maxAbsW = 0.0;
    for (int p = 0; p < phases; ++p)
        maxAbsW = std::max(maxAbsW, std::fabs(phase_power_w[p] * scale));
    return maxAbsW;
}

double
sampleSessionWatts(const PowerChannel &channel,
                   const Calibration &calibration,
                   const double *phase_power_w, int phases,
                   double invocation_power_scale, int samples,
                   Rng &inv_rng)
{
    static const SampleQuantizeFn quantize = resolveSampleQuantize();
    if (samples <= 0 || phases <= 0)
        panic("sampleSessionWatts: empty session");

    // ---- Gaussian stream ------------------------------------------
    // The scalar loop draws 2 gaussians per sample: supply ripple
    // (slot 2s), then sensor noise (slot 2s + 1), so the stream's
    // even row is the ripple row G1 and its odd row the noise row
    // G2, already deinterleaved for the batch quantizer. The spares
    // hold W (one double per sample) and the counts and uncertain
    // lanes (two int32s per sample).
    const size_t n = static_cast<size_t>(samples);
    const GaussianStream g(2 * n, inv_rng, n, 2 * n);

    // ---- Certainty window -----------------------------------------
    // |d(ADC value)/d(gaussian)| is bounded per session; the window
    // keeps a 1000x margin over the kernel's error bound through
    // that sensitivity, so an accepted integer count provably equals
    // the exact-libm one.
    double *W = g.spareDoubles;
    const double maxAbsW = sessionWaveform(
        phase_power_w, phases, invocation_power_scale, samples, W);
    SampleQuantizeParams p;
    p.sens = sensorSensitivity(channel.variant());
    p.gainFactor = 1.0 + channel.deviceGainError();
    p.offsetVolts = channel.deviceOffsetVolts();
    p.noiseVolts = channel.sampleNoiseVolts();
    p.ratedAmps = channel.ratedAmps();
    const double countsPerVolt =
        (PowerChannel::adcCounts - 1) / PowerChannel::adcVref;
    const double rippleSlope = countsPerVolt * p.sens *
        std::fabs(p.gainFactor) * maxAbsW * PowerChannel::supplyRipple /
        PowerChannel::railVolts;
    const double noiseSlope = countsPerVolt * p.noiseVolts;
    p.window = std::max(
        1e-6,
        1e3 * (rippleSlope + noiseSlope) * gaussKernelMaxError);
    // Same margin for the negative-power panic decision: a sample
    // this close to 0W goes through the exact path, where
    // countsFor() makes the check itself.
    p.zeroWattsGuard = std::max(
        1e-9,
        1e3 * maxAbsW * PowerChannel::supplyRipple * gaussKernelMaxError);

    // ---- Quantize the whole session in batch ----------------------
    int32_t *counts = g.spareInts;
    int32_t *uncertain = counts + n;
    const size_t flagged =
        quantize(W, g.even, g.odd, samples, p, counts, uncertain);

    // Boundary-straddling (or near-zero power) lanes: redo with
    // exact libm gaussians through the channel's own transfer.
    for (size_t u = 0; u < flagged; ++u) {
        const size_t s = static_cast<size_t>(uncertain[u]);
        const double trueW =
            W[s] * (1.0 + PowerChannel::supplyRipple * g.exact(2 * s));
        counts[s] = channel.countsFor(trueW, g.exact(2 * s + 1));
    }

    // ---- Integrate ------------------------------------------------
    // calibration.wattsFromCounts(counts) inlined through the fit;
    // the sum stays sequential in sample order — reassociating it
    // would change the bits.
    const LinearFit &fit = calibration.fit();
    double wattsSum = 0.0;
    for (int s = 0; s < samples; ++s)
        wattsSum += fit.at(counts[s]) * PowerChannel::railVolts;
    return wattsSum;
}

} // namespace lhr
