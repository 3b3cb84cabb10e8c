#include "sensor/sensor.hh"

#include <cstdint>

#include "machine/processor.hh"
#include "sensor/channel.hh"
#include "sensor/hall.hh"
#include "sensor/rapl.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace lhr
{

const char *
sensorBackendName(SensorBackend backend)
{
    switch (backend) {
      case SensorBackend::HallEffect: return "hall";
      case SensorBackend::Rapl:       return "rapl";
    }
    panic("sensorBackendName: unknown backend");
}

std::optional<SensorBackend>
parseSensorBackend(std::string_view text)
{
    if (text == "hall")
        return SensorBackend::HallEffect;
    if (text == "rapl")
        return SensorBackend::Rapl;
    return std::nullopt;
}

std::unique_ptr<PowerSensor>
makeSensor(SensorBackend backend, const ProcessorSpec &spec,
           uint64_t base_seed)
{
    switch (backend) {
      case SensorBackend::HallEffect: {
        // Parts whose peak rail current exceeds 5A carry the 30A
        // sensor (the paper names the i7 explicitly). Seeds and
        // construction order are the pre-abstraction rig's, so the
        // Hall chain stays byte-identical.
        const bool big = spec.tdpW > 70.0;
        const auto variant =
            big ? SensorVariant::A30 : SensorVariant::A5;
        return std::make_unique<HallEffectSensor>(
            variant, base_seed ^ fnv1a(spec.id),
            base_seed ^ fnv1a(spec.id + "/cal"));
      }
      case SensorBackend::Rapl:
        return std::make_unique<RaplSensor>(
            base_seed ^ fnv1a(spec.id + "/rapl"));
    }
    panic("makeSensor: unknown backend");
}

SensorBackend
defaultSensorBackend(const ProcessorSpec &spec)
{
    // Paper-era rigs carry the Hall chain (the golden-output
    // contract); server-era parts expose energy MSRs.
    return spec.era >= Era::SandyBridge ? SensorBackend::Rapl
                                        : SensorBackend::HallEffect;
}

} // namespace lhr
