/**
 * @file
 * `lhrlab loadgen`: a closed-loop load generator for the serve
 * daemon, in the style of the classic OLTP bench workers — N client
 * threads, a spin barrier so everyone starts in the same instant,
 * per-worker operation/latency/outcome counters, and a merged
 * throughput + percentile report.
 *
 * Each worker opens its own connection and issues measure requests
 * round-robin over a fixed (processor, benchmark) mix; the mix size
 * (`keys`) controls how much cache reuse and coalescing the run
 * exercises. Every reply outcome is counted — ok, overloaded,
 * deadline-shed, refused, and `degraded` as a tripwire the daemon
 * should never trip — so an overload run reports the daemon's
 * shedding behaviour, not just its throughput.
 */

#ifndef LHR_SERVE_LOADGEN_HH
#define LHR_SERVE_LOADGEN_HH

#include <cstdint>
#include <string>

#include "util/status.hh"

namespace lhr
{

/** One load-generation run. */
struct LoadgenOptions
{
    std::string socketPath;
    int clients = 8;            ///< concurrent worker connections
    int requestsPerClient = 50; ///< closed-loop ops per worker
    int keys = 8;               ///< distinct experiment keys in the mix
    double deadlineMs = 0.0;    ///< per-request deadline (0 = none)
    double stallMs = 0.0;       ///< server-side stall per request
};

/** Merged outcome of one run. */
struct LoadgenReport
{
    int clients = 0;
    uint64_t ops = 0;        ///< requests sent (replies received)
    uint64_t okCount = 0;    ///< computed answers
    uint64_t degradedCount = 0;
    uint64_t overloadedCount = 0;
    uint64_t shedCount = 0;  ///< deadline-exceeded replies
    uint64_t refusedCount = 0; ///< shutting-down replies
    uint64_t errorCount = 0; ///< transport/parse/internal failures
    double wallSec = 0.0;
    double requestsPerSec = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;

    /** Replies the daemon answered without crashing or hanging. */
    uint64_t answered() const
    {
        return okCount + degradedCount + overloadedCount + shedCount +
            refusedCount;
    }
};

/**
 * Run one closed-loop load generation against a listening daemon.
 * Fails with IoError when the socket cannot be reached at all;
 * per-request failures are counted in the report instead.
 */
[[nodiscard]] Expected<LoadgenReport>
runLoadgen(const LoadgenOptions &options);

} // namespace lhr

#endif // LHR_SERVE_LOADGEN_HH
