#include "sensor/rapl.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sensor/channel.hh"
#include "sensor/gauss_kernel.hh"
#include "sensor/sampling.hh"
#include "util/logging.hh"

namespace lhr
{

RaplSensor::RaplSensor(uint64_t device_seed)
{
    // RAPL reports a power *model*'s output, not a measurement; its
    // systematic error is a fixed property of the part's fusing.
    Rng deviceRng(device_seed);
    gain = 1.0 + 0.02 * deviceRng.gaussian();
}

std::unique_ptr<SensorSession>
RaplSensor::beginSession(Rng &rng) const
{
    return std::make_unique<RaplSession>(*this, rng);
}

RaplSession::RaplSession(const RaplSensor &sensor, Rng &rng)
    : rapl(sensor), counter(static_cast<uint32_t>(rng.next()))
{
    // The reader primes itself with one read before the session, so
    // the first slot's delta is genuine.
    lastRead = counter;
}

SensorReading
RaplSession::read(double true_watts, Rng &, const SampleFault &fault)
{
    // Firmware updates between two reader visits: at 1000Hz there
    // are 20 updates per 50Hz slot, each adding a whole number of
    // energy units. Power is constant within a slot, so each update
    // adds the same quantized increment.
    const long units =
        rapl.unitsPerUpdate(true_watts * fault.powerScale,
                            fault.countsGain);
    counter += RaplSensor::slotAdvance(units);

    // The reader differences in uint32 arithmetic, so a natural
    // counter wrap inside the slot is absorbed here. A stale read
    // returns the previous visible value: delta 0 now, and the next
    // good read catches up with the accumulated energy.
    const uint32_t returned = fault.stale ? lastRead : counter;
    const uint32_t delta = returned - lastRead;
    lastRead = returned;

    int code = RaplSensor::slotCode(delta);
    if (fault.wrapGlitch) {
        // The reader's wrap handling misfires and produces a
        // nonsense delta; the recorded slot pegs at the glitch code.
        code = RaplSensor::wrapGlitchCode;
    }
    return {code, RaplSensor::slotWatts(code)};
}

double
RaplSensor::sessionWatts(const double *phase_power_w, int phases,
                         double scale, int samples, Rng &inv_rng) const
{
    if (samples <= 0 || phases <= 0)
        panic("RaplSensor::sessionWatts: empty session");

    // The session's counter start, drawn exactly as beginSession()
    // draws it. A clean reader's delta is the slot's advance
    // whatever the start, so only the draw itself matters here.
    (void)inv_rng.next();

    // One gaussian per sample (supply ripple; a RAPL read draws
    // nothing), stream slot s for sample s. The spare doubles hold W.
    const size_t n = static_cast<size_t>(samples);
    const GaussianStream g(n, inv_rng, n, 0);
    double *W = g.spareDoubles;
    const double maxAbsW =
        sessionWaveform(phase_power_w, phases, scale, samples, W);

    // x = W (1 + ripple g) K is read()'s per-update energy in units
    // before lround, with the chain's gain, / updateHz and
    // / energyUnitJ premultiplied into K: a few ulps away from the
    // chain's value, and |dx/dg| <= maxAbsW * ripple * |K| per
    // session. The certainty window keeps a 1000x margin over the
    // kernel's error through that slope; its floor (and the window
    // itself, ~3e-11 of x at the session's largest x) covers the
    // ulps. A sample whose x lies further than the window from the
    // .5 rounding boundary therefore rounds to read()'s units; the
    // rest, and every x <= 1 (0 W phases, and the sign of a negative
    // power left to lround), take read()'s exact arithmetic on an
    // exact libm gaussian.
    const double K = gain / updateHz / energyUnitJ;
    const double window = std::max(
        1e-6, 1e3 * maxAbsW * PowerChannel::supplyRipple * std::fabs(K) *
                  gaussKernelMaxError);

    // Sequential in sample order, like the scalar loop's sum.
    double wattsSum = 0.0;
    for (size_t s = 0; s < n; ++s) {
        const double x =
            W[s] * (1.0 + PowerChannel::supplyRipple * g[s]) * K;
        long units = 0;
        bool certain = false;
        if (x > 1.0 && x < 0x1p52) { // the cast below is exact
            const long whole = static_cast<long>(x);
            const double frac = x - static_cast<double>(whole);
            certain = std::fabs(frac - 0.5) > window;
            units = whole + (frac > 0.5 ? 1 : 0);
        }
        if (!certain) {
            units = unitsPerUpdate(
                W[s] * (1.0 + PowerChannel::supplyRipple * g.exact(s)),
                1.0);
        }
        // A clean slot's delta is the slot's counter advance.
        wattsSum += slotWatts(slotCode(slotAdvance(units)));
    }
    return wattsSum;
}

} // namespace lhr
