#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "machine/processor.hh"

namespace perfbench
{

uint64_t
SplitMix::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
SplitMix::below(uint64_t n)
{
    if (n == 0)
        throw std::invalid_argument("SplitMix::below(0)");
    // Rejection keeps the draw exactly uniform.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    for (;;) {
        const uint64_t x = next();
        if (x < limit)
            return x % n;
    }
}

uint64_t
deriveSeed(uint64_t seed, const std::string &purpose, uint64_t index)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV-1a over the purpose
    for (const char c : purpose) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    SplitMix mix(seed ^ h ^ (index * 0xd1b54a32d192ed03ull));
    return mix.next();
}

std::string
ServeKey::identity() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "|%d|%d|%d", cores.value_or(-1),
                  smt ? (*smt ? 1 : 0) : -1, clockMilliGhz.value_or(-1));
    return proc + "|" + bench + buf;
}

lhr::ServeRequest
ServeKey::request(long id) const
{
    lhr::ServeRequest req;
    req.op = lhr::ServeOp::Measure;
    req.id = id;
    req.proc = proc;
    req.bench = bench;
    req.cores = cores;
    req.smt = smt;
    if (clockMilliGhz)
        req.clockGhz = *clockMilliGhz / 1000.0;
    return req;
}

KeyStream
makeKeyStream(uint64_t seed, int clients, size_t requests_per_client)
{
    if (clients < 1)
        throw std::invalid_argument("makeKeyStream: no clients");

    KeyStream stream;
    for (const char *bench : serveMixBenches) {
        for (const char *proc : serveMixProcs) {
            ServeKey key;
            key.proc = proc;
            key.bench = bench;
            stream.hot.push_back(std::move(key));
        }
    }

    // Interleaving: every client has its own stream of hot picks and
    // cold slots; cold slots are numbered globally so no cold key is
    // ever sent twice in a run.
    int32_t coldSlots = 0;
    stream.clients.resize(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        SplitMix rng(deriveSeed(seed, "serve-client",
                                static_cast<uint64_t>(c)));
        auto &seq = stream.clients[static_cast<size_t>(c)];
        seq.reserve(requests_per_client);
        for (size_t i = 0; i < requests_per_client; ++i) {
            if (rng.below(serveColdOneIn) == 0)
                seq.push_back(-1 - coldSlots++);
            else
                seq.push_back(static_cast<int32_t>(
                    rng.below(stream.hot.size())));
        }
    }

    // Cold set: custom configurations of the mix's processors strictly
    // below the stock clock (so never equal to a hot key), distinct by
    // identity.
    SplitMix coldRng(deriveSeed(seed, "serve-cold"));
    std::set<std::string> coldSeen;
    stream.cold.reserve(static_cast<size_t>(coldSlots));
    while (stream.cold.size() < static_cast<size_t>(coldSlots)) {
        const lhr::ProcessorSpec *spec = &lhr::processorById(
            serveMixProcs[coldRng.below(std::size(serveMixProcs))]);
        const int lo = static_cast<int>(std::ceil(spec->fMinGhz * 1000.0));
        const int hi =
            static_cast<int>(std::floor(spec->stockClockGhz * 1000.0)) - 1;
        if (hi < lo)
            continue;
        ServeKey key;
        key.proc = spec->id;
        key.bench = serveMixBenches[coldRng.below(std::size(serveMixBenches))];
        key.cores = 1 + static_cast<int>(coldRng.below(
                            static_cast<uint64_t>(spec->cores)));
        if (spec->smtWays >= 2)
            key.smt = coldRng.below(2) == 1;
        key.clockMilliGhz =
            lo + static_cast<int>(coldRng.below(
                     static_cast<uint64_t>(hi - lo + 1)));
        if (coldSeen.insert(key.identity()).second)
            stream.cold.push_back(std::move(key));
    }
    return stream;
}

lhr::FaultPlan
makeFaultPlan(uint64_t seed)
{
    using lhr::FaultClass;
    lhr::FaultPlan plan;
    plan.seed = deriveSeed(seed, "fault-plan");
    plan.with(FaultClass::DroppedSample, 0.05)
        .with(FaultClass::DuplicatedSample, 0.05)
        .with(FaultClass::SensorSaturation, 0.01)
        .with(FaultClass::CalibrationDrift, 0.20)
        .with(FaultClass::LoggerDisconnect, 0.10)
        .with(FaultClass::ThermalThrottle, 0.15)
        .with(FaultClass::CorunInterference, 0.15);
    return plan;
}

} // namespace perfbench
