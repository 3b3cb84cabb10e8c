/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in lhrlab (sensor noise, JIT/GC
 * nondeterminism, phase jitter) flows through Rng so that every
 * experiment is exactly reproducible from its seed. The generator is
 * xoshiro256**, seeded via SplitMix64 so that nearby seeds yield
 * uncorrelated streams.
 */

#ifndef LHR_UTIL_RNG_HH
#define LHR_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>

namespace lhr
{

/**
 * A small, fast, deterministic random number generator
 * (xoshiro256** with SplitMix64 seeding).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. Equal seeds yield equal streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /**
     * Next raw 64-bit value. Defined inline (as are the uniform
     * draws below) so hot simulation loops pay a handful of
     * register ops per draw instead of a call.
     */
    uint64_t next()
    {
        const uint64_t result = rotl(s[1] * 5, 7) * 9;
        const uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /**
     * Uniform double in (0, 1): rejects exact zeros so the result
     * is safe to pass to log() or raise to a negative power. Draws
     * from the same stream as uniform(), one value per non-zero.
     */
    double uniformPositive()
    {
        double u = 0.0;
        do {
            u = uniform();
        } while (u <= 0.0);
        return u;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Standard normal deviate (Box-Muller, cached pair). */
    double gaussian();

    /**
     * Whether the next gaussian() will return the cached second half
     * of a Box-Muller pair (and so consume no uniforms). The batch
     * sampler uses this to align its pair stream with the scalar one.
     */
    bool hasPendingGaussian() const { return hasCachedGaussian; }

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Uniform integer in [0, n). n must be > 0. */
    uint64_t below(uint64_t n)
    {
        if (n == 0)
            panicBelowZero();
        // Rejection sampling to avoid modulo bias. With a
        // compile-time-constant n the compiler folds both remainders
        // into masks or multiplications.
        const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
        uint64_t v = 0;
        do {
            v = next();
        } while (v >= limit);
        return v % n;
    }

    /**
     * Fill out[0, count) with what `count` successive below(n) calls
     * return, drawn from the same stream: same rejection limit, same
     * remainder. The limit and a reciprocal of n are computed once
     * per call, so a draw costs multiplications instead of a 64-bit
     * divide. n must be > 0.
     */
    void fillBelow(uint64_t n, uint64_t *out, size_t count);

    /**
     * Derive an independent child generator. Streams of a parent and
     * its children do not overlap in practice; used to give every
     * (benchmark, invocation) pair its own stream.
     */
    Rng fork();

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Out-of-line panic keeps below() small enough to inline. */
    [[noreturn]] static void panicBelowZero();

    uint64_t s[4];
    double cachedGaussian;
    bool hasCachedGaussian;
};

} // namespace lhr

#endif // LHR_UTIL_RNG_HH
