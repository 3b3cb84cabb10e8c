#include "sensor/sampling.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sensor/gauss_kernel.hh"
#include "util/logging.hh"

namespace lhr
{

double
sampleSessionWatts(const PowerChannel &channel,
                   const Calibration &calibration,
                   const double *phase_power_w, int phases,
                   double invocation_power_scale, int samples,
                   Rng &inv_rng)
{
    static const GaussKernelFn kernel = resolveGaussKernel();
    static const SampleQuantizeFn quantize = resolveSampleQuantize();
    if (samples <= 0 || phases <= 0)
        panic("sampleSessionWatts: empty session");

    // Scratch arrays are slices of two grow-only per-thread buffers,
    // so a warm thread allocates nothing per session: seven double
    // arrays of `samples` (G1, G2, W, and the four Box-Muller pair
    // arrays, pairs <= samples) and two int32 arrays.
    const size_t n = static_cast<size_t>(samples);
    thread_local std::vector<double> doubles;
    thread_local std::vector<int32_t> ints;
    if (doubles.size() < 7 * n)
        doubles.resize(7 * n);
    if (ints.size() < 2 * n)
        ints.resize(2 * n);

    // ---- Gaussian stream ------------------------------------------
    // The scalar loop draws 2 gaussians per sample: supply ripple
    // (G1), then sensor noise (G2). A Java preamble leaves the
    // second half of a Box-Muller pair cached in inv_rng; drain it
    // first (it is already exact), which shifts every following pair
    // by one slot. Gaussian stream slot i lands in (i odd ? G2 : G1)
    // [i / 2], so the two per-sample streams come out deinterleaved
    // for the batch quantizer.
    const size_t need = 2 * static_cast<size_t>(samples);
    double *G1 = doubles.data();
    double *G2 = G1 + n;
    // Select the row pointer first, then index it. GCC 12 with
    // -fsanitize=shift (or signed-integer-overflow, or either
    // divide-by-zero check) miscompiles `(i & 1 ? G2 : G1)[i >> 1]`
    // so that every even slot lands in G1[0].
    const auto slot = [&](size_t i) -> double & {
        double *const row = (i & 1) ? G2 : G1;
        return row[i >> 1];
    };
    size_t drained = 0;
    while (inv_rng.hasPendingGaussian() && drained < need) {
        slot(drained) = inv_rng.gaussian();
        ++drained;
    }

    // Uniforms come from the real generator in the exact scalar
    // order (u1 positive-rejected, then u2), so the raw stream is
    // untouched; only log/sin/cos go through the batch kernel.
    const size_t pairs = (need - drained + 1) / 2;
    double *u1 = G2 + n;
    double *u2 = u1 + n;
    for (size_t j = 0; j < pairs; ++j) {
        u1[j] = inv_rng.uniformPositive();
        u2[j] = inv_rng.uniform();
    }
    double *gc = u2 + n;
    double *gs = gc + n;
    kernel(u1, u2, gc, gs, pairs);
    for (size_t j = 0; j < pairs; ++j) {
        const size_t ci = drained + 2 * j;
        if (ci < need)
            slot(ci) = gc[j];
        if (ci + 1 < need)
            slot(ci + 1) = gs[j]; // last half may fall off: discarded
    }

    // Exact value of gaussian slot i, for fallback lanes.
    auto exactG = [&](size_t i) {
        if (i < drained)
            return slot(i); // drained halves were computed by libm
        const size_t rel = i - drained;
        const size_t j = rel >> 1;
        const double r = std::sqrt(-2.0 * std::log(u1[j]));
        const double theta = 2.0 * M_PI * u2[j];
        return (rel & 1) ? r * std::sin(theta) : r * std::cos(theta);
    };

    // ---- Certainty window -----------------------------------------
    // |d(ADC value)/d(gaussian)| is bounded per session; the window
    // keeps a 1000x margin over the kernel's error bound through
    // that sensitivity, so an accepted integer count provably equals
    // the exact-libm one.
    SampleQuantizeParams p;
    p.sens = sensorSensitivity(channel.variant());
    p.gainFactor = 1.0 + channel.deviceGainError();
    p.offsetVolts = channel.deviceOffsetVolts();
    p.noiseVolts = channel.sampleNoiseVolts();
    p.ratedAmps = channel.ratedAmps();
    const double countsPerVolt =
        (PowerChannel::adcCounts - 1) / PowerChannel::adcVref;

    double maxAbsW = 0.0;
    for (int k = 0; k < phases; ++k)
        maxAbsW = std::max(
            maxAbsW,
            std::fabs(phase_power_w[k] * invocation_power_scale));
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
    // W[s] = phase power x invocation scale, the sample's pre-ripple
    // watts; k = sessionPhase(s, phases, samples) tracked
    // incrementally.
    double *W = gs + n;
    {
        int k = 0, rem = 0;
        for (int s = 0; s < samples; ++s) {
            W[s] = phase_power_w[k] * invocation_power_scale;
            rem += phases;
            while (rem >= samples) {
                rem -= samples;
                ++k;
            }
        }
    }

    int32_t *counts = ints.data();
    int32_t *uncertain = counts + n;
    const size_t flagged =
        quantize(W, G1, G2, samples, p, counts, uncertain);

    // Boundary-straddling (or near-zero power) lanes: redo with
    // exact libm gaussians through the channel's own transfer.
    for (size_t u = 0; u < flagged; ++u) {
        const size_t s = static_cast<size_t>(uncertain[u]);
        const double trueW =
            W[s] * (1.0 + PowerChannel::supplyRipple * exactG(2 * s));
        counts[s] = channel.countsFor(trueW, exactG(2 * s + 1));
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
