/**
 * @file
 * Batched, bit-exact 50Hz sampling sessions.
 *
 * One sampling session converts a benchmark invocation's phase power
 * waveform into the sum of calibrated Hall-sensor readings:
 *
 *   for s in [0, samples):
 *     k      = sessionPhase(s, phases, samples)   // sensor/sensor.hh
 *     trueW  = phasePowerW[k] * scale *
 *              (1 + PowerChannel::supplyRipple * gaussian)
 *     counts = channel.sampleCounts(trueW, rng)   // 10-bit ADC
 *     wattsSum += calibration.wattsFromCounts(counts)
 *
 * This is the hot loop of the whole laboratory (~85% of a full-grid
 * sweep), and nearly all of it is libm transcendentals inside
 * Rng::gaussian. sampleSessionWatts() computes the same sum, bit for
 * bit, several times faster:
 *
 *  - The per-sample gaussians feed only an *integer* ADC count; the
 *    count is a step function of the pair, constant between
 *    quantization boundaries.
 *  - All Box-Muller pairs of a session are generated at once with an
 *    approximate vectorizable kernel (gauss_kernel.hh), uniforms
 *    drawn from the real Rng in the exact scalar order.
 *  - Each sample's ADC value is accepted only when it lies further
 *    from every quantization boundary than a certainty window three
 *    orders of magnitude wider than the kernel's worst-case error;
 *    the rare boundary-straddling sample (~1e-6 of them) is
 *    recomputed through exact libm calls.
 *  - The accepted integer counts then flow through the identical
 *    calibration arithmetic, accumulated in sample order.
 *
 * The result is therefore the same double runMeasurement's legacy
 * loop produced, on every input, on every CPU — the golden-output
 * and batch-equivalence tests pin this down.
 */

#ifndef LHR_SENSOR_SAMPLING_HH
#define LHR_SENSOR_SAMPLING_HH

#include "sensor/calibration.hh"
#include "sensor/channel.hh"
#include "util/rng.hh"

namespace lhr
{

/**
 * Run one sampling session and return the sum of calibrated watts
 * readings, bitwise equal to the scalar loop documented above.
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
