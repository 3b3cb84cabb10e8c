/**
 * @file
 * The `lhrlab serve` daemon: answers measurement queries over a
 * local socket from a shared warm ExperimentRunner.
 *
 * Robustness model (DESIGN.md section 11):
 *
 *  - Admission control. A measure request whose key is already
 *    published (and that asks for no load-test stall) is answered
 *    inline on its connection thread from the warm memo cache —
 *    the same bytes a worker would send. Everything else (cold
 *    keys, keys still being computed, stalled requests) goes onto
 *    the worker ThreadPool through its bounded, non-blocking
 *    trySubmit. A full queue NEVER blocks the client: the daemon
 *    sheds with a typed `overloaded` reply. Backpressure is
 *    explicit and observable, not an unbounded buffer.
 *
 *  - Deadlines. A queued request may carry a deadline. Expired work
 *    is shed at dequeue — a worker never spends compute on an
 *    answer nobody is waiting for.
 *
 *  - Coalescing. Concurrent requests for the same experiment key
 *    share one computation through the runner's per-key call_once
 *    memo.
 *
 *  - Control plane. ping/stats/shutdown are answered inline on the
 *    connection thread, so an overloaded daemon remains observable
 *    and drainable — the control plane never queues behind the
 *    data plane.
 *
 *  - Drain. On shutdown (signal or request) the daemon stops
 *    accepting, refuses new measures with `shutting-down`, finishes
 *    every admitted job, flushes every reply, and exits cleanly.
 *    No truncated frames, no lost admitted work.
 */

#ifndef LHR_SERVE_SERVER_HH
#define LHR_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "harness/runner.hh"
#include "util/status.hh"

namespace lhr
{

/** Tunables of one daemon instance. */
struct ServeOptions
{
    std::string socketPath;    ///< Unix-domain socket to listen on
    int workers = 2;           ///< measurement worker threads
    size_t queueDepth = 32;    ///< jobs that may wait for a worker
    size_t maxFrameBytes = 1 << 20; ///< request-frame cap
    /**
     * External drain request (the CLI's signal handlers set it).
     * Polled by the accept loop; nullptr = only the shutdown op
     * drains.
     */
    const std::atomic<bool> *stopFlag = nullptr;
};

/** Counters the stats op reports (all monotonic since start). */
struct ServeStatsSnapshot
{
    uint64_t connections = 0;    ///< clients accepted
    uint64_t admitted = 0;       ///< measures answered inline or queued
    uint64_t answeredInline = 0; ///< warm measures answered without a worker
    uint64_t served = 0;         ///< `ok` measure replies
    uint64_t overloaded = 0;     ///< queue-full sheds
    uint64_t deadlineShed = 0;   ///< admitted but expired before compute
    uint64_t parseErrors = 0;    ///< malformed frames answered with an error
    uint64_t invalidArguments = 0; ///< well-formed but out-of-contract
    uint64_t refusedDraining = 0;  ///< measures refused during drain
    uint64_t internalErrors = 0;   ///< compute failures answered `internal`
};

/**
 * One daemon instance. Construct, then serve() until drained; serve()
 * owns every thread it spawns and joins them before returning.
 */
class LabServer
{
  public:
    LabServer(ExperimentRunner &runner, ServeOptions options);
    ~LabServer();

    LabServer(const LabServer &) = delete;
    LabServer &operator=(const LabServer &) = delete;

    /**
     * Listen, serve, drain, return. Blocks until a drain is
     * requested (stopFlag, shutdown op) and every admitted job has
     * been answered. IoError when the socket cannot be bound.
     */
    [[nodiscard]] Status serve();

    /** Point-in-time copy of the counters (also available via stats op). */
    [[nodiscard]] ServeStatsSnapshot statsSnapshot() const;

  private:
    struct Impl;
    Impl *impl;
};

} // namespace lhr

#endif // LHR_SERVE_SERVER_HH
