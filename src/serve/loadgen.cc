#include "serve/loadgen.hh"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.hh"
#include "stats/summary.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/net.hh"

namespace lhr
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Reply frames are small; a generous cap catches desync early. */
constexpr size_t replyFrameCap = 1 << 16;

/**
 * The fixed query mix: processors crossed with benchmarks, walked
 * round-robin over its first loadgenMixKeys keys. Paper parts only,
 * so the mix is stable across era extensions.
 */
const char *const mixProcs[] = {"i7 (45)", "i5 (32)", "C2D (45)",
                                "Pentium4 (130)"};
const char *const mixBenches[] = {"mcf", "gcc", "bzip2", "hmmer",
                                  "libquantum", "perlbench", "sjeng",
                                  "astar"};

constexpr int mixProcCount =
    static_cast<int>(sizeof(mixProcs) / sizeof(mixProcs[0]));
constexpr int mixBenchCount =
    static_cast<int>(sizeof(mixBenches) / sizeof(mixBenches[0]));
static_assert(loadgenMixKeys <= mixProcCount * mixBenchCount);

/** The i-th key of the mix (wraps at loadgenMixKeys). */
void
mixKey(int i, std::string &proc, std::string &bench)
{
    const int slot = i % loadgenMixKeys;
    proc = mixProcs[slot % mixProcCount];
    bench = mixBenches[slot / mixProcCount];
}

/** Per-worker tallies, merged after the join. */
struct WorkerTally
{
    uint64_t ops = 0;
    uint64_t okCount = 0;
    uint64_t overloadedCount = 0;
    uint64_t shedCount = 0;
    uint64_t refusedCount = 0;
    uint64_t errorCount = 0;
    std::vector<double> latenciesMs;
    Status firstError; ///< first transport failure, for diagnostics
};

void
workerLoop(const LoadgenOptions &options, int worker_index,
           std::atomic<int> &start_barrier, WorkerTally &tally)
{
    Expected<Socket> sock = connectUnix(options.socketPath);
    if (!sock.ok()) {
        tally.firstError = sock.status();
        tally.errorCount =
            static_cast<uint64_t>(options.requestsPerClient);
        start_barrier.fetch_sub(1);
        return;
    }

    // Spin barrier: every worker connects first, then all fire at
    // once, so the daemon sees the full client count from request 1.
    start_barrier.fetch_sub(1);
    while (start_barrier.load() > 0)
        std::this_thread::yield();

    tally.latenciesMs.reserve(
        static_cast<size_t>(options.requestsPerClient));
    for (int i = 0; i < options.requestsPerClient; ++i) {
        ServeRequest req;
        req.op = ServeOp::Measure;
        req.id = static_cast<long>(worker_index) * 1000000 + i;
        // Offset by the worker index so concurrent workers collide
        // on keys (exercising coalescing) while walking the mix.
        mixKey(worker_index + i, req.proc, req.bench);
        req.deadlineMs = options.deadlineMs;
        req.stallMs = options.stallMs;

        const Clock::time_point before = Clock::now();
        const Status sent =
            writeFrame(sock.value(), formatServeRequest(req));
        if (!sent.ok()) {
            if (tally.firstError.ok())
                tally.firstError = sent;
            ++tally.errorCount;
            break; // connection is gone; the rest would also fail
        }
        Expected<std::string> reply =
            readFrame(sock.value(), replyFrameCap);
        if (!reply.ok()) {
            if (tally.firstError.ok())
                tally.firstError = reply.status();
            ++tally.errorCount;
            break;
        }
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      before)
                .count();
        ++tally.ops;
        tally.latenciesMs.push_back(elapsed_ms);

        Expected<JsonValue> parsed = parseJson(reply.value());
        const std::string status =
            parsed.ok() ? parsed.value().stringOr("status", "")
                        : std::string();
        if (status == "ok") {
            ++tally.okCount;
        } else if (status == "overloaded") {
            ++tally.overloadedCount;
        } else if (status == "deadline-exceeded") {
            ++tally.shedCount;
        } else if (status == "shutting-down") {
            ++tally.refusedCount;
        } else {
            ++tally.errorCount;
        }
    }
}

} // namespace

Expected<LoadgenReport>
runLoadgen(const LoadgenOptions &options)
{
    if (options.clients < 1 || options.requestsPerClient < 1) {
        return Status::error(StatusCode::InvalidArgument,
                             "loadgen needs >= 1 client and request");
    }

    // Probe once before spawning anything, so "no daemon" is one
    // typed error instead of N workers' worth of connect failures.
    {
        Expected<Socket> probe = connectUnix(options.socketPath);
        if (!probe.ok())
            return probe.status();
    }

    std::vector<WorkerTally> tallies(
        static_cast<size_t>(options.clients));
    std::atomic<int> startBarrier{options.clients};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(options.clients));

    const Clock::time_point begin = Clock::now();
    for (int w = 0; w < options.clients; ++w) {
        threads.emplace_back([&options, w, &startBarrier, &tallies] {
            workerLoop(options, w, startBarrier,
                       tallies[static_cast<size_t>(w)]);
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double wall_sec =
        std::chrono::duration<double>(Clock::now() - begin).count();

    LoadgenReport report;
    report.clients = options.clients;
    report.wallSec = wall_sec;
    std::vector<double> latencies;
    for (const WorkerTally &tally : tallies) {
        report.ops += tally.ops;
        report.okCount += tally.okCount;
        report.overloadedCount += tally.overloadedCount;
        report.shedCount += tally.shedCount;
        report.refusedCount += tally.refusedCount;
        report.errorCount += tally.errorCount;
        latencies.insert(latencies.end(), tally.latenciesMs.begin(),
                         tally.latenciesMs.end());
        if (!tally.firstError.ok()) {
            warn("loadgen: worker error: " +
                 tally.firstError.message());
        }
    }
    if (!latencies.empty()) {
        report.p50Ms = percentileOf(latencies, 50.0);
        report.p95Ms = percentileOf(latencies, 95.0);
        report.p99Ms = percentileOf(std::move(latencies), 99.0);
    }
    report.requestsPerSec =
        wall_sec > 0.0 ? static_cast<double>(report.ops) / wall_sec
                       : 0.0;
    return report;
}

} // namespace lhr
