/**
 * @file
 * Batched, bit-exact 50Hz sampling sessions for both sensor backends.
 *
 * One sampling session converts a benchmark invocation's phase power
 * waveform into the sum of decoded readings. The scalar definition,
 * for either backend (sensor/sensor.hh), is
 *
 *   session = sensor.beginSession(rng)            // RAPL: one next()
 *   for s in [0, samples):
 *     k      = sessionPhase(s, phases, samples)
 *     trueW  = phasePowerW[k] * scale *
 *              (1 + PowerChannel::supplyRipple * rng.gaussian())
 *     wattsSum += session.read(trueW, rng, noFault).watts
 *
 * where a Hall read draws one more gaussian (sensor noise) and
 * quantizes to a 10-bit ADC count, and a RAPL read draws nothing
 * and rounds to whole energy units per firmware update. This is the
 * hot loop of the whole laboratory, and nearly all of its scalar
 * cost is libm transcendentals inside Rng::gaussian. Both backends'
 * sessionWatts() compute the same sum, bit for bit, several times
 * faster:
 *
 *  - Every reading is an *integer* (ADC counts or energy units), a
 *    step function of the gaussians, constant between rounding
 *    boundaries.
 *  - GaussianStream stages a session's whole gaussian stream at
 *    once: the pending Box-Muller half first, uniforms drawn from
 *    the real Rng in the exact scalar order, and log/sin/cos through
 *    an approximate vectorizable kernel (gauss_kernel.hh).
 *  - Each sample's integer is accepted only when its pre-rounding
 *    value lies further from the rounding boundary than a certainty
 *    window three orders of magnitude wider than the kernel's
 *    worst-case error; the rare boundary-straddling sample is
 *    recomputed through exact libm gaussians and the backend's own
 *    scalar arithmetic.
 *  - The accepted integers then flow through the identical decode
 *    arithmetic, accumulated in sample order.
 *
 * The result is therefore the same double as the scalar loop, on
 * every input, on every CPU; tests/test_sensor_backend.cc holds that
 * loop as the reference and pins the equivalence.
 */

#ifndef LHR_SENSOR_SAMPLING_HH
#define LHR_SENSOR_SAMPLING_HH

#include <cstddef>
#include <cstdint>

#include "sensor/calibration.hh"
#include "sensor/channel.hh"
#include "util/rng.hh"

namespace lhr
{

/**
 * A session's gaussian stream, staged in batch: the value the i-th
 * rng.gaussian() call of the scalar loop returns is stream slot i,
 * stored in even[i / 2] for even i and odd[i / 2] for odd i. Slots
 * come from the approximate kernel (error <= gaussKernelMaxError)
 * except a drained pending half, which is exact; exact(i) recomputes
 * any slot through libm, bit-equal to Rng::gaussian().
 *
 * The rows and the caller's spare arrays are slices of one pair of
 * grow-only per-thread buffers, so a warm thread allocates nothing
 * per session; one stream per thread is live at a time (the next
 * stream on the thread reuses the buffers).
 */
class GaussianStream
{
  public:
    /**
     * Stage the next `count` gaussians of rng, leaving its raw
     * stream where the scalar loop leaves it (the last pair's unused
     * half, if any, is not cached back). Also hands out
     * `spare_doubles` doubles and `spare_ints` int32s of scratch.
     */
    GaussianStream(size_t count, Rng &rng, size_t spare_doubles,
                   size_t spare_ints);

    GaussianStream(const GaussianStream &) = delete;
    GaussianStream &operator=(const GaussianStream &) = delete;

    /** Slot i as staged. */
    double operator[](size_t i) const
    {
        // Select the row, then index it: GCC 12 with
        // -fsanitize=shift (or signed-integer-overflow, or either
        // divide-by-zero check) miscompiles `(i & 1 ? odd :
        // even)[i >> 1]` so that every even slot lands in even[0].
        const double *const row = (i & 1) ? odd : even;
        return row[i >> 1];
    }

    /** Slot i through exact libm, for fallback lanes. */
    double exact(size_t i) const;

    double *even = nullptr;          ///< slots 0, 2, 4, ...
    double *odd = nullptr;           ///< slots 1, 3, 5, ...
    double *spareDoubles = nullptr;  ///< the caller's scratch
    int32_t *spareInts = nullptr;    ///< the caller's scratch

  private:
    size_t drained = 0;    ///< leading slots taken from rng's cache
    double *u1 = nullptr;  ///< per-pair uniforms, scalar order
    double *u2 = nullptr;
};

/**
 * The pre-ripple watts of every sample, w[s] = phase_power_w[k] *
 * scale with k = sessionPhase(s, phases, samples), written to
 * w[0, samples); returns the largest |phase_power_w[k] * scale| over
 * all phases, the session's bound for its certainty windows.
 */
double sessionWaveform(const double *phase_power_w, int phases,
                       double scale, int samples, double *w);

/**
 * Run one Hall-chain sampling session and return the sum of
 * calibrated watts readings, bitwise equal to the scalar loop
 * documented above.
 *
 * @param phase_power_w the per-phase true power waveform
 * @param phases number of entries in phase_power_w
 * @param invocation_power_scale this invocation's power scale factor
 * @param samples number of 50Hz samples (sample s reads phase
 *        (s * phases) / samples)
 * @param inv_rng the invocation stream, positioned exactly where the
 *        scalar loop would start drawing (a pending Box-Muller half
 *        from the preamble is honoured)
 */
double sampleSessionWatts(const PowerChannel &channel,
                          const Calibration &calibration,
                          const double *phase_power_w, int phases,
                          double invocation_power_scale, int samples,
                          Rng &inv_rng);

} // namespace lhr

#endif // LHR_SENSOR_SAMPLING_HH
