#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace lhr
{

namespace
{

/** SplitMix64 step, used for seeding. */
uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
    : cachedGaussian(0.0), hasCachedGaussian(false)
{
    uint64_t x = seed;
    for (auto &word : s)
        word = splitMix64(x);
}

double
Rng::gaussian()
{
    if (hasCachedGaussian) {
        hasCachedGaussian = false;
        return cachedGaussian;
    }
    const double u1 = uniformPositive();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian = r * std::sin(theta);
    hasCachedGaussian = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

void
Rng::fillBelow(uint64_t n, uint64_t *out, size_t count)
{
    if (n == 0)
        panicBelowZero();
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    // Direct remainder (Lemire, Kaser and Kurz): with
    // c = ceil(2^128 / n), v % n is the high 64 bits of
    // ((c * v) mod 2^128) * n, exact for every 64-bit v and n. At
    // n = 1, c wraps to 0 and every remainder is 0, as it must be.
    using u128 = unsigned __int128;
    const u128 c = ~u128{0} / n + 1;
    for (size_t k = 0; k < count; ++k) {
        uint64_t v = 0;
        do {
            v = next();
        } while (v >= limit);
        const u128 frac = c * v;
        const u128 lowHalf = u128{static_cast<uint64_t>(frac)} * n >> 64;
        const u128 highHalf = (frac >> 64) * n;
        out[k] = static_cast<uint64_t>((lowHalf + highHalf) >> 64);
    }
}

void
Rng::panicBelowZero()
{
    panic("Rng::below called with n == 0");
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

} // namespace lhr
