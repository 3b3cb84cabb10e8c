/**
 * @file
 * AVX2+FMA build of the gaussian-pair kernel, written with explicit
 * 4-wide intrinsics: profiling showed the "branchless so the
 * auto-vectorizer can handle it" portable loop in gauss_kernel.inl
 * compiles to scalar code under -O2, and this kernel is the hottest
 * function of a full-grid sweep (DESIGN.md §8). The math is the same
 * as the portable loop — bit-exact log/sin/cos agreement between the
 * two builds is NOT required (and not promised by GaussKernelFn's
 * contract); both stay far inside gaussKernelMaxError and the
 * certainty-window fallback in sampling.cc makes the final ADC
 * counts independent of which build ran.
 *
 * The build system compiles only this file with -mavx2 -mfma (when
 * the toolchain targets x86-64); on other targets or toolchains the
 * guard below leaves the kernel out and the resolver falls back to
 * the base build. Runtime dispatch in resolveGaussKernel() checks
 * CPU support before this code ever executes.
 */

#include "sensor/gauss_kernel.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

// Scalar tails for the final n % 4 lanes.
#define LHR_GAUSS_KERNEL_FN lhrGaussPairsAvx2Tail
#include "sensor/gauss_kernel.inl"
#undef LHR_GAUSS_KERNEL_FN
#define LHR_SAMPLE_QUANTIZE_FN lhrSampleQuantizeAvx2Tail
#include "sensor/sample_quantize.inl"
#undef LHR_SAMPLE_QUANTIZE_FN

namespace
{

/** p = p * x + c, 4-wide. */
inline __m256d
step(__m256d p, __m256d x, double c)
{
    return _mm256_fmadd_pd(p, x, _mm256_set1_pd(c));
}

} // namespace

void
lhrGaussPairsAvx2Impl(const double *u1, const double *u2, double *gcos,
                      double *gsin, size_t n)
{
    // Same constant splits as gauss_kernel.inl.
    const __m256d LN2_HI = _mm256_set1_pd(6.93147180369123816490e-01);
    const __m256d LN2_LO = _mm256_set1_pd(1.90821492927058770002e-10);
    const __m256d SQRT2 = _mm256_set1_pd(1.41421356237309514547);
    const __m256d TWO_PI = _mm256_set1_pd(6.28318530717958647693);
    const __m256d TWO_OVER_PI =
        _mm256_set1_pd(6.36619772367581382433e-01);
    const __m256d PIO2_HI = _mm256_set1_pd(1.57079632673412561417e+00);
    const __m256d PIO2_LO = _mm256_set1_pd(6.07710050650619224932e-11);

    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d signBit = _mm256_set1_pd(-0.0);
    const __m256i mantissaMask =
        _mm256_set1_epi64x(0x000fffffffffffffll);
    const __m256i oneBits = _mm256_set1_epi64x(0x3ff0000000000000ll);
    // 2^52 + 1023: see the exponent extraction below.
    const __m256d expBias =
        _mm256_set1_pd(4503599627370496.0 + 1023.0);
    const __m256i expMagic = _mm256_set1_epi64x(0x4330000000000000ll);

    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // ---- log(u1): u1 in (0,1) is normal, never subnormal ------
        const __m256d u = _mm256_loadu_pd(u1 + i);
        const __m256i bits = _mm256_castpd_si256(u);
        // Exponent to double without cvtepi64: (bits >> 52) is in
        // [0, 2046]; OR-ing the bit pattern of 2^52 on top makes the
        // lane the double 2^52 + e_raw, so one subtract de-biases.
        const __m256d eRaw = _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_srli_epi64(bits, 52), expMagic));
        __m256d e = _mm256_sub_pd(eRaw, expBias);
        __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(bits, mantissaMask), oneBits)); // [1, 2)
        const __m256d shrink =
            _mm256_cmp_pd(m, SQRT2, _CMP_GT_OQ);
        m = _mm256_blendv_pd(m, _mm256_mul_pd(m, half), shrink);
        e = _mm256_add_pd(e, _mm256_and_pd(shrink, one));

        const __m256d t = _mm256_div_pd(_mm256_sub_pd(m, one),
                                        _mm256_add_pd(m, one));
        const __m256d t2 = _mm256_mul_pd(t, t);
        // 2*atanh(t) = log(m); coefficients 2/(2k+1).
        __m256d p = _mm256_set1_pd(2.0 / 19.0);
        p = step(p, t2, 2.0 / 17.0);
        p = step(p, t2, 2.0 / 15.0);
        p = step(p, t2, 2.0 / 13.0);
        p = step(p, t2, 2.0 / 11.0);
        p = step(p, t2, 2.0 / 9.0);
        p = step(p, t2, 2.0 / 7.0);
        p = step(p, t2, 2.0 / 5.0);
        p = step(p, t2, 2.0 / 3.0);
        p = step(p, t2, 2.0);
        const __m256d logm = _mm256_mul_pd(t, p);
        const __m256d logu = _mm256_fmadd_pd(
            e, LN2_HI, _mm256_fmadd_pd(e, LN2_LO, logm));

        const __m256d r = _mm256_sqrt_pd(
            _mm256_mul_pd(_mm256_set1_pd(-2.0), logu));

        // ---- sin/cos(2 pi u2): quadrant-reduce to |x| <= pi/4 -----
        const __m256d theta =
            _mm256_mul_pd(TWO_PI, _mm256_loadu_pd(u2 + i));
        const __m256d qd = _mm256_round_pd(
            _mm256_mul_pd(theta, TWO_OVER_PI),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC); // 0..4
        const __m256d x = _mm256_fnmadd_pd(
            qd, PIO2_LO, _mm256_fnmadd_pd(qd, PIO2_HI, theta));

        const __m256d x2 = _mm256_mul_pd(x, x);
        __m256d sp = _mm256_set1_pd(-1.0 / 1307674368000.0); // -1/15!
        sp = step(sp, x2, 1.0 / 6227020800.0);               //  1/13!
        sp = step(sp, x2, -1.0 / 39916800.0);                // -1/11!
        sp = step(sp, x2, 1.0 / 362880.0);                   //  1/9!
        sp = step(sp, x2, -1.0 / 5040.0);                    // -1/7!
        sp = step(sp, x2, 1.0 / 120.0);                      //  1/5!
        sp = step(sp, x2, -1.0 / 6.0);                       // -1/3!
        const __m256d sinx = _mm256_fmadd_pd(
            _mm256_mul_pd(x, x2), sp, x);

        __m256d cp = _mm256_set1_pd(1.0 / 20922789888000.0); //  1/16!
        cp = step(cp, x2, -1.0 / 87178291200.0);             // -1/14!
        cp = step(cp, x2, 1.0 / 479001600.0);                //  1/12!
        cp = step(cp, x2, -1.0 / 3628800.0);                 // -1/10!
        cp = step(cp, x2, 1.0 / 40320.0);                    //  1/8!
        cp = step(cp, x2, -1.0 / 720.0);                     // -1/6!
        cp = step(cp, x2, 1.0 / 24.0);                       //  1/4!
        cp = step(cp, x2, -0.5);                             // -1/2!
        const __m256d cosx = _mm256_fmadd_pd(x2, cp, one);

        // cos(x + q pi/2), sin(x + q pi/2) by swap and sign. q is a
        // small non-negative integer-valued double: adding 2^52
        // parks it in the low mantissa bits, where integer tests
        // are cheap.
        const __m256i q = _mm256_and_si256(
            _mm256_castpd_si256(_mm256_add_pd(
                qd, _mm256_set1_pd(4503599627370496.0))),
            _mm256_set1_epi64x(0xf));
        const __m256i oneQ = _mm256_set1_epi64x(1);
        const __m256i twoQ = _mm256_set1_epi64x(2);
        const __m256d odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(q, oneQ), oneQ));
        const __m256d sinNeg = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(q, twoQ), twoQ));
        const __m256d cosNeg = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_add_epi64(q, oneQ), twoQ), twoQ));

        const __m256d cosMag = _mm256_blendv_pd(cosx, sinx, odd);
        const __m256d sinMag = _mm256_blendv_pd(sinx, cosx, odd);
        const __m256d cosVal =
            _mm256_xor_pd(cosMag, _mm256_and_pd(cosNeg, signBit));
        const __m256d sinVal =
            _mm256_xor_pd(sinMag, _mm256_and_pd(sinNeg, signBit));

        _mm256_storeu_pd(gcos + i, _mm256_mul_pd(r, cosVal));
        _mm256_storeu_pd(gsin + i, _mm256_mul_pd(r, sinVal));
    }

    if (i < n)
        lhrGaussPairsAvx2Tail(u1 + i, u2 + i, gcos + i, gsin + i,
                              n - i);
}

namespace
{

size_t
lhrSampleQuantizeAvx2Impl(const double *w, const double *g1,
                          const double *g2, int n,
                          const lhr::SampleQuantizeParams &p,
                          int32_t *counts, int32_t *uncertain)
{
    using lhr::PowerChannel;

    const __m256d rippleGain = _mm256_set1_pd(PowerChannel::supplyRipple);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d rail = _mm256_set1_pd(PowerChannel::railVolts);
    const __m256d rated = _mm256_set1_pd(p.ratedAmps);
    const __m256d ratedNeg = _mm256_set1_pd(-p.ratedAmps);
    const __m256d overGain = _mm256_set1_pd(PowerChannel::overRangeGain);
    const __m256d zeroV = _mm256_set1_pd(PowerChannel::zeroCurrentVolts);
    const __m256d sens = _mm256_set1_pd(p.sens);
    const __m256d gain = _mm256_set1_pd(p.gainFactor);
    const __m256d offset = _mm256_set1_pd(p.offsetVolts);
    const __m256d noise = _mm256_set1_pd(p.noiseVolts);
    const __m256d vref = _mm256_set1_pd(PowerChannel::adcVref);
    const __m256d countSpan =
        _mm256_set1_pd(PowerChannel::adcCounts - 1);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d window = _mm256_set1_pd(p.window);
    const __m256d guard = _mm256_set1_pd(p.zeroWattsGuard);
    const __m256d absMask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
    const __m128i countMax =
        _mm_set1_epi32(PowerChannel::adcCounts - 1);
    const __m128i countMin = _mm_setzero_si128();

    size_t flagged = 0;
    int s = 0;
    for (; s + 4 <= n; s += 4) {
        // Same operation order as the scalar loop (no FMA here): the
        // fast path must track PowerChannel::outputVolts closely
        // enough that the certainty window's soundness argument
        // applies unchanged; plain mul/add keeps the two within an
        // ulp or two, far inside the window's 1000x margin.
        const __m256d trueW = _mm256_mul_pd(
            _mm256_loadu_pd(w + s),
            _mm256_add_pd(one,
                          _mm256_mul_pd(rippleGain,
                                        _mm256_loadu_pd(g1 + s))));
        const __m256d amps = _mm256_div_pd(trueW, rail);
        const __m256d high = _mm256_add_pd(
            rated,
            _mm256_mul_pd(_mm256_sub_pd(amps, rated), overGain));
        const __m256d low = _mm256_add_pd(
            ratedNeg,
            _mm256_mul_pd(_mm256_sub_pd(amps, ratedNeg), overGain));
        __m256d effective = _mm256_blendv_pd(
            amps, high, _mm256_cmp_pd(amps, rated, _CMP_GT_OQ));
        effective = _mm256_blendv_pd(
            effective, low,
            _mm256_cmp_pd(amps, ratedNeg, _CMP_LT_OQ));
        const __m256d volts = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(
                    zeroV,
                    _mm256_mul_pd(_mm256_mul_pd(sens, effective),
                                  gain)),
                offset),
            _mm256_mul_pd(noise, _mm256_loadu_pd(g2 + s)));
        const __m256d clamped =
            _mm256_min_pd(_mm256_max_pd(volts, zero), vref);
        const __m256d y = _mm256_mul_pd(_mm256_div_pd(clamped, vref),
                                        countSpan);

        const __m256d frac = _mm256_sub_pd(y, _mm256_floor_pd(y));
        const __m256d certain = _mm256_and_pd(
            _mm256_cmp_pd(trueW, guard, _CMP_GT_OQ),
            _mm256_cmp_pd(
                _mm256_and_pd(_mm256_sub_pd(frac, half), absMask),
                window, _CMP_GT_OQ));

        // (int)(y + 0.5): cvtt truncates toward zero like the cast.
        __m128i c = _mm256_cvttpd_epi32(_mm256_add_pd(y, half));
        c = _mm_min_epi32(_mm_max_epi32(c, countMin), countMax);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(counts + s), c);

        const int mask = _mm256_movemask_pd(certain);
        if (mask != 0xf) {
            for (int lane = 0; lane < 4; ++lane)
                if ((mask & (1 << lane)) == 0)
                    uncertain[flagged++] = s + lane;
        }
    }

    if (s < n) {
        // Tail indices come back relative to its base; rebase to s.
        const size_t tailFlagged = lhrSampleQuantizeAvx2Tail(
            w + s, g1 + s, g2 + s, n - s, p, counts + s,
            uncertain + flagged);
        for (size_t t = 0; t < tailFlagged; ++t)
            uncertain[flagged + t] += s;
        flagged += tailFlagged;
    }

    return flagged;
}

} // namespace

namespace lhr
{

GaussKernelFn
gaussKernelAvx2OrNull()
{
    return &lhrGaussPairsAvx2Impl;
}

SampleQuantizeFn
sampleQuantizeAvx2OrNull()
{
    return &lhrSampleQuantizeAvx2Impl;
}

} // namespace lhr

#else

namespace lhr
{

GaussKernelFn
gaussKernelAvx2OrNull()
{
    return nullptr;
}

SampleQuantizeFn
sampleQuantizeAvx2OrNull()
{
    return nullptr;
}

} // namespace lhr

#endif
