/**
 * @file
 * Wire protocol of `lhrlab serve`: request parsing, query
 * resolution, and reply formatting.
 *
 * Every frame body is one JSON object. Requests:
 *
 *   {"id": 7, "op": "measure", "proc": "i7 (45)", "bench": "mcf",
 *    "cores": 2, "smt": false, "clock": 2.0, "turbo": false,
 *    "stat": "all", "deadline_ms": 250}
 *
 * ops: "measure" (the data plane — admission-controlled),
 * "ping" / "stats" / "shutdown" (the control plane — answered
 * inline so clients can observe an overloaded daemon without
 * queueing behind the overload). "stall_ms" on a measure request is
 * a load-testing aid: the worker holds the request that long before
 * computing, standing in for expensive queries so soak tests can
 * jam a small queue deterministically.
 *
 * Replies always carry the request's id (responses may interleave
 * across a pipelined connection) and a typed "status":
 *
 *   ok | overloaded | deadline-exceeded | shutting-down |
 *   parse-error | invalid-argument | internal
 *
 * The non-ok statuses are the robustness surface: `overloaded` is
 * the admission queue's backpressure, `deadline-exceeded` is shed
 * work (never computed), `shutting-down` is the drain refusing new
 * work while flushing admitted work. An ok reply to a measure
 * carries the measurement fields plus a "degraded" flag. The daemon
 * always sends it false (warm keys are answered inline with the same
 * bytes a worker sends); clients still count a true value as a
 * tripwire.
 */

#ifndef LHR_SERVE_PROTOCOL_HH
#define LHR_SERVE_PROTOCOL_HH

#include <optional>
#include <string>

#include "harness/measurement.hh"
#include "machine/processor.hh"
#include "util/status.hh"
#include "workload/benchmark.hh"

namespace lhr
{

/**
 * Cap on a request's `deadline_ms` (and on the CLI's `--deadline`):
 * one hour. Larger values would overflow the daemon's steady-clock
 * arithmetic, so they are refused as out of contract, not clamped.
 */
inline constexpr double maxDeadlineMs = 3600.0 * 1000.0;

/**
 * Request kinds. Measure is admission-controlled (a warm key is
 * answered inline, other work queues); the rest always answer inline.
 */
enum class ServeOp
{
    Measure,
    Ping,
    Stats,
    Shutdown,
};

/** Typed reply statuses (stable wire names via serveStatusName). */
enum class ServeStatus
{
    Ok,
    Overloaded,       ///< admission queue full
    DeadlineExceeded, ///< deadline expired before compute; shed
    ShuttingDown,     ///< drain in progress; request refused
    ParseError,       ///< malformed frame body
    InvalidArgument,  ///< well-formed but out of contract
    Internal,         ///< unexpected failure while computing
};

/** Stable lower-case wire name, e.g. "deadline-exceeded". */
[[nodiscard]] const char *serveStatusName(ServeStatus status);

/** One parsed request. */
struct ServeRequest
{
    ServeOp op = ServeOp::Measure;
    long id = 0;       ///< echoed in the reply
    std::string proc;  ///< processor id, e.g. "i7 (45)"
    std::string bench; ///< benchmark name, e.g. "mcf"
    std::optional<int> cores;
    std::optional<bool> smt;
    std::optional<double> clockGhz;
    std::optional<bool> turbo;
    double deadlineMs = 0.0; ///< 0 = no deadline
    double stallMs = 0.0;    ///< worker hold time (load testing)
};

/**
 * Parse one request frame. Malformed JSON, a non-object document,
 * an unknown op, or a wrongly-typed field come back as typed
 * ParseError/InvalidArgument — the server turns these into
 * `parse-error` / `invalid-argument` replies without dropping the
 * connection (the frame boundary survives; see util/net.hh).
 */
[[nodiscard]] Expected<ServeRequest>
parseServeRequest(const std::string &body);

/** Serialize a request (the loadgen/client side of parseServeRequest). */
[[nodiscard]] std::string formatServeRequest(const ServeRequest &req);

/** A measure request resolved against the machine/workload tables. */
struct ResolvedQuery
{
    MachineConfig config;
    const Benchmark *benchmark = nullptr;
};

/**
 * Resolve a request's processor and BIOS knobs to a MachineConfig:
 * an unknown processor, out-of-range cores/clock, or SMT/Turbo on a
 * part without them are InvalidArgument. `lhrlab measure` uses it too.
 */
[[nodiscard]] Expected<MachineConfig>
resolveConfig(const ServeRequest &req);

/** resolveConfig() plus the benchmark lookup (unknown: InvalidArgument). */
[[nodiscard]] Expected<ResolvedQuery>
resolveQuery(const ServeRequest &req);

/** An error reply: {"id": N, "status": "...", "message": "..."}. */
[[nodiscard]] std::string errorReplyJson(long id, ServeStatus status,
                                         const std::string &message);

/**
 * An ok measure reply carrying the measurement fields and the wire's
 * `degraded` flag (the daemon always passes false).
 */
[[nodiscard]] std::string measurementReplyJson(long id,
                                               const Measurement &m,
                                               bool degraded);

} // namespace lhr

#endif // LHR_SERVE_PROTOCOL_HH
