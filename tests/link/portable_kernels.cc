/**
 * A caller of both kernel resolvers, compiled and linked with the two
 * kernel files and no AVX flags (the ctest portable_kernels_link).
 * Without -mavx2 -mfma, gauss_kernel_avx2.cc builds only its null
 * fallbacks; the link fails if one of them is missing.
 */

#include "sensor/gauss_kernel.hh"

int
main()
{
    return lhr::resolveGaussKernel() != nullptr &&
                   lhr::resolveSampleQuantize() != nullptr
               ? 0
               : 1;
}
