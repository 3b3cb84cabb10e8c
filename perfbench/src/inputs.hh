/**
 * @file
 * Seeded inputs. The benchmark's one --seed argument derives every
 * input it generates: the serve key stream (hot set, non-repeating
 * cold set, interleaving), the grid's per-round runner seeds, and the
 * fault plan's seed. lhrlab and the daemon receive only the generated
 * flags and requests.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "serve/protocol.hh"

namespace perfbench
{

/** SplitMix64: small, seedable, and the same on every platform. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state(seed) {}

    uint64_t next();

    /** Uniform integer in [0, n); n must be positive. */
    uint64_t below(uint64_t n);

  private:
    uint64_t state;
};

/** An independent seed for (seed, purpose, index). */
uint64_t deriveSeed(uint64_t seed, const std::string &purpose,
                    uint64_t index = 0);

/** One measure query of the serve workload. */
struct ServeKey
{
    std::string proc;
    std::string bench;
    std::optional<int> cores;
    std::optional<bool> smt;
    std::optional<int> clockMilliGhz; ///< exact: sent as "%.3f" GHz

    /** Canonical identity: equal strings <=> the same experiment. */
    std::string identity() const;

    /** The wire request for this key. */
    lhr::ServeRequest request(long id) const;
};

/**
 * The serve hot set: `lhrlab loadgen`'s fixed query mix
 * (src/serve/loadgen.cc), 4 paper processors x 8 SPEC benchmarks at
 * stock configuration, warmed before timing.
 */
inline constexpr const char *serveMixProcs[] = {"i7 (45)", "i5 (32)",
                                                "C2D (45)", "Pentium4 (130)"};
inline constexpr const char *serveMixBenches[] = {
    "mcf",        "gcc",       "bzip2", "hmmer",
    "libquantum", "perlbench", "sjeng", "astar"};
inline constexpr size_t serveHotKeys =
    std::size(serveMixProcs) * std::size(serveMixBenches);

/**
 * About one serve request in this many is a cold key, so cold keys
 * take a minority, about 15%, of the time clients wait on replies
 * (serve.cold_time_pct) and the hit path stays most of it;
 * perfbench/README.md derives the share from the measured warm and
 * cold round trips.
 */
inline constexpr int serveColdOneIn = 16;

/**
 * The serve workload's requests. The hot set is the fixed mix above;
 * the cold set holds distinct custom clock/cores/SMT configurations
 * of the same processors and benchmarks, each used exactly once in
 * the whole stream, so every cold request misses the daemon's memo
 * cache.
 */
struct KeyStream
{
    std::vector<ServeKey> hot;
    std::vector<ServeKey> cold;

    /** Per client, in send order: i >= 0 is hot[i], else cold[-1-i]. */
    std::vector<std::vector<int32_t>> clients;

    const ServeKey &key(int32_t slot) const
    {
        return slot >= 0 ? hot[static_cast<size_t>(slot)]
                         : cold[static_cast<size_t>(-1 - slot)];
    }
};

/** Build the stream for a seed; a pure function of its arguments. */
KeyStream makeKeyStream(uint64_t seed, int clients,
                        size_t requests_per_client);

/**
 * The grid workload's fault plan: nonzero per-sample and per-session
 * rates on the Hall chain's fault classes, seeded from the benchmark
 * seed. Rates are moderate so the hardened pipeline recovers.
 */
lhr::FaultPlan makeFaultPlan(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
