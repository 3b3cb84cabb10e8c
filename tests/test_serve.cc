/**
 * @file
 * Tests for the lab-as-a-service layer: the worker pool's bounded
 * admission, the framed local-socket transport, the wire protocol, and
 * the daemon's overload behaviour — warm keys answered inline,
 * backpressure without blocking, deadline shedding, request
 * coalescing, typed errors for malformed frames, and a clean drain
 * that never truncates a reply.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "harness/runner.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "util/net.hh"
#include "util/thread_pool.hh"

namespace lhr
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** A per-process, per-object unique socket path under /tmp. */
std::string
tempSocketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/lhr_serve_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A connected AF_UNIX pair, for transport tests without a daemon. */
void
socketPair(Socket &a, Socket &b)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
}

/**
 * A daemon running on a background thread, drained and joined on
 * destruction. Tests drive it through real client sockets.
 */
class TestDaemon
{
  public:
    explicit TestDaemon(ServeOptions options,
                        uint64_t seed = 0xC0FFEE)
        : runner(seed)
    {
        options.socketPath = path;
        options.stopFlag = &stop;
        server = std::make_unique<LabServer>(runner, options);
        thread = std::thread([this] { result = server->serve(); });
        // The listener needs a moment to bind; connect-retry until
        // it answers so tests are not racy on startup.
        for (int i = 0; i < 200; ++i) {
            Expected<Socket> probe = connectUnix(path);
            if (probe.ok())
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        ADD_FAILURE() << "daemon never started listening";
    }

    ~TestDaemon()
    {
        drain();
        std::remove(path.c_str());
    }

    void drain()
    {
        stop.store(true);
        if (thread.joinable())
            thread.join();
    }

    [[nodiscard]] Socket connect()
    {
        Expected<Socket> sock = connectUnix(path);
        EXPECT_TRUE(sock.ok()) << sock.status().toString();
        return sock.ok() ? std::move(sock).value() : Socket();
    }

    ExperimentRunner runner;
    const std::string path = tempSocketPath();
    std::unique_ptr<LabServer> server;
    std::thread thread;
    std::atomic<bool> stop{false};
    Status result;
};

/** Send one request frame and read one reply frame, unparsed. */
std::string
roundTripRaw(const Socket &sock, const std::string &body)
{
    const Status sent = writeFrame(sock, body);
    EXPECT_TRUE(sent.ok()) << sent.toString();
    Expected<std::string> reply = readFrame(sock, 1 << 20);
    EXPECT_TRUE(reply.ok()) << reply.status().toString();
    return reply.ok() ? reply.value() : std::string();
}

/** Send one request frame and read one reply frame. */
JsonValue
roundTrip(const Socket &sock, const std::string &body)
{
    Expected<JsonValue> parsed = parseJson(roundTripRaw(sock, body));
    EXPECT_TRUE(parsed.ok()) << parsed.status().toString();
    return parsed.ok() ? parsed.value() : JsonValue();
}

ServeRequest
measureRequest(long id, const std::string &proc,
               const std::string &bench, double stall_ms = 0.0,
               double deadline_ms = 0.0)
{
    ServeRequest req;
    req.op = ServeOp::Measure;
    req.id = id;
    req.proc = proc;
    req.bench = bench;
    req.stallMs = stall_ms;
    req.deadlineMs = deadline_ms;
    return req;
}

} // namespace

// ---------------------------------------------------------------
// ThreadPool admission (trySubmit)

TEST(ThreadPool, TrySubmitRefusesAtTheLimitWithoutBlocking)
{
    ThreadPool pool(1);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    pool.submit([&] {
        started.store(true);
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    // Only tasks still waiting for a worker count against the limit.
    while (!started.load())
        std::this_thread::yield();

    EXPECT_TRUE(pool.trySubmit([] {}, 2));
    EXPECT_TRUE(pool.trySubmit([] {}, 2));
    const Clock::time_point before = Clock::now();
    EXPECT_FALSE(pool.trySubmit([] {}, 2));
    // Backpressure must be immediate: a full queue answers "no" in
    // microseconds, it never waits for the busy worker.
    EXPECT_LT(msSince(before), 100.0);
    EXPECT_EQ(pool.queued(), 2u);

    release.store(true);
    pool.wait();
    EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPool, AdmittedTasksAllRunBeforeWaitReturns)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    int admitted = 0;
    for (int i = 0; i < 64; ++i) {
        if (pool.trySubmit(
                [&ran] {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                    ran.fetch_add(1);
                },
                8))
            ++admitted;
    }
    pool.wait();
    EXPECT_GE(admitted, 8);
    EXPECT_EQ(ran.load(), admitted);
}

// ---------------------------------------------------------------
// Framed transport

TEST(Net, FrameRoundTripPreservesTheBody)
{
    Socket a, b;
    socketPair(a, b);
    const std::string body = "{\"op\":\"ping\"}";
    ASSERT_TRUE(writeFrame(a, body).ok());
    Expected<std::string> read = readFrame(b, 1 << 16);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    EXPECT_EQ(read.value(), body);
}

TEST(Net, EmptyAndBinaryBodiesSurvive)
{
    Socket a, b;
    socketPair(a, b);
    ASSERT_TRUE(writeFrame(a, "").ok());
    const std::string binary("\x00\xff\n\x01", 4);
    ASSERT_TRUE(writeFrame(a, binary).ok());
    EXPECT_EQ(readFrame(b, 16).value(), "");
    EXPECT_EQ(readFrame(b, 16).value(), binary);
}

TEST(Net, OversizedPrefixIsATypedRefusalNotAnAllocation)
{
    Socket a, b;
    socketPair(a, b);
    // A hostile 256 MiB length prefix against a 4 KiB cap.
    const char prefix[4] = {0x10, 0x00, 0x00, 0x00};
    ASSERT_EQ(::write(a.fd(), prefix, 4), 4);
    Expected<std::string> read = readFrame(b, 4096);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::InvalidArgument);
}

TEST(Net, EofAtFrameBoundaryIsDistinctFromMidFrame)
{
    {
        Socket a, b;
        socketPair(a, b);
        a.close(); // clean close before any frame
        Expected<std::string> read = readFrame(b, 16);
        ASSERT_FALSE(read.ok());
        EXPECT_EQ(read.status().code(), StatusCode::IoError);
        EXPECT_EQ(read.status().message(), "connection closed");
    }
    {
        Socket a, b;
        socketPair(a, b);
        const char partial[6] = {0, 0, 0, 16, 'h', 'i'};
        ASSERT_EQ(::write(a.fd(), partial, 6), 6);
        a.close(); // died mid-frame
        Expected<std::string> read = readFrame(b, 64);
        ASSERT_FALSE(read.ok());
        EXPECT_NE(read.status().message().find("mid-frame"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------
// Protocol

TEST(Protocol, ParsesAFullMeasureRequest)
{
    Expected<ServeRequest> parsed = parseServeRequest(
        "{\"id\": 7, \"op\": \"measure\", \"proc\": \"i7 (45)\","
        " \"bench\": \"mcf\", \"cores\": 2, \"smt\": false,"
        " \"clock\": 2.0, \"turbo\": false, \"deadline_ms\": 250,"
        " \"stall_ms\": 5}");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const ServeRequest &req = parsed.value();
    EXPECT_EQ(req.op, ServeOp::Measure);
    EXPECT_EQ(req.id, 7);
    EXPECT_EQ(req.proc, "i7 (45)");
    EXPECT_EQ(req.bench, "mcf");
    ASSERT_TRUE(req.cores.has_value());
    EXPECT_EQ(*req.cores, 2);
    ASSERT_TRUE(req.smt.has_value());
    EXPECT_FALSE(*req.smt);
    EXPECT_DOUBLE_EQ(req.deadlineMs, 250.0);
    EXPECT_DOUBLE_EQ(req.stallMs, 5.0);
}

TEST(Protocol, FormatParsesBackIdentically)
{
    const ServeRequest req =
        measureRequest(42, "i5 (32)", "gcc", 3.0, 100.0);
    Expected<ServeRequest> back =
        parseServeRequest(formatServeRequest(req));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().id, 42);
    EXPECT_EQ(back.value().proc, "i5 (32)");
    EXPECT_EQ(back.value().bench, "gcc");
    EXPECT_DOUBLE_EQ(back.value().stallMs, 3.0);
    EXPECT_DOUBLE_EQ(back.value().deadlineMs, 100.0);
}

TEST(Protocol, TypedErrorsForBadRequests)
{
    // Malformed JSON: a parse error.
    EXPECT_EQ(parseServeRequest("{nope").status().code(),
              StatusCode::ParseError);
    // Valid JSON, wrong shape: also a parse error.
    EXPECT_EQ(parseServeRequest("[1,2]").status().code(),
              StatusCode::ParseError);
    // Unknown op.
    EXPECT_EQ(parseServeRequest("{\"op\": \"teleport\"}")
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    // Wrongly typed field.
    EXPECT_EQ(parseServeRequest("{\"op\": \"measure\","
                                " \"proc\": \"i7 (45)\","
                                " \"bench\": \"mcf\","
                                " \"cores\": \"two\"}")
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    // A fractional or unrepresentable core count is refused, not
    // truncated to an int.
    for (const char *cores : {"2.5", "1e300"}) {
        Expected<ServeRequest> parsed = parseServeRequest(
            std::string("{\"op\": \"measure\", \"proc\": \"i7 (45)\","
                        " \"bench\": \"mcf\", \"cores\": ") +
            cores + "}");
        ASSERT_FALSE(parsed.ok()) << "cores " << cores;
        EXPECT_EQ(parsed.status().code(), StatusCode::InvalidArgument);
    }
    // Missing proc/bench on a measure.
    EXPECT_EQ(parseServeRequest("{\"op\": \"measure\"}")
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    // stall_ms outside the abuse cap.
    EXPECT_EQ(parseServeRequest("{\"op\": \"measure\","
                                " \"proc\": \"i7 (45)\","
                                " \"bench\": \"mcf\","
                                " \"stall_ms\": 1e9}")
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    // An id a long cannot hold has no faithful echo: refused, not
    // cast (the cast is undefined behaviour).
    for (const char *id : {"1e300", "-1e300", "9223372036854775808",
                           "1.5", "\"seven\""}) {
        EXPECT_EQ(parseServeRequest(std::string("{\"op\": \"ping\","
                                                " \"id\": ") +
                                    id + "}")
                      .status()
                      .code(),
                  StatusCode::InvalidArgument)
            << "id " << id;
    }
    // Both ends of long's range still echo exactly.
    Expected<ServeRequest> lowest = parseServeRequest(
        "{\"op\": \"ping\", \"id\": -9223372036854775808}");
    ASSERT_TRUE(lowest.ok()) << lowest.status().toString();
    EXPECT_EQ(lowest.value().id, std::numeric_limits<long>::min());
    Expected<ServeRequest> large = parseServeRequest(
        "{\"op\": \"ping\", \"id\": 9007199254740992}");
    ASSERT_TRUE(large.ok()) << large.status().toString();
    EXPECT_EQ(large.value().id, 9007199254740992L);
}

TEST(Protocol, DeadlinesBeyondTheCapAreRefusedNotShed)
{
    // A deadline past the clock's range used to overflow the
    // daemon's deadline arithmetic, so a cold request came back
    // deadline-exceeded at once without running.
    for (const char *ms : {"1e13", "1e300", "3600000.5"}) {
        Expected<ServeRequest> parsed = parseServeRequest(
            std::string("{\"op\": \"measure\", \"proc\": \"i7 (45)\","
                        " \"bench\": \"mcf\", \"deadline_ms\": ") +
            ms + "}");
        ASSERT_FALSE(parsed.ok()) << "deadline_ms " << ms;
        EXPECT_EQ(parsed.status().code(), StatusCode::InvalidArgument);
    }
    Expected<ServeRequest> atCap = parseServeRequest(
        "{\"op\": \"measure\", \"proc\": \"i7 (45)\","
        " \"bench\": \"mcf\", \"deadline_ms\": 3600000}");
    ASSERT_TRUE(atCap.ok()) << atCap.status().toString();
    EXPECT_DOUBLE_EQ(atCap.value().deadlineMs, maxDeadlineMs);
}

TEST(Protocol, ResolveEnforcesTheMeasureContract)
{
    EXPECT_TRUE(
        resolveQuery(measureRequest(1, "i7 (45)", "mcf")).ok());

    EXPECT_FALSE(
        resolveQuery(measureRequest(1, "z80 (3000)", "mcf")).ok());
    EXPECT_FALSE(
        resolveQuery(measureRequest(1, "i7 (45)", "doom")).ok());

    ServeRequest req = measureRequest(1, "i7 (45)", "mcf");
    req.cores = 99;
    EXPECT_FALSE(resolveQuery(req).ok());

    req = measureRequest(1, "i7 (45)", "mcf");
    req.clockGhz = 9.9;
    EXPECT_FALSE(resolveQuery(req).ok());

    // Core 2 has neither SMT nor Turbo: asking for them is a typed
    // refusal, exactly like the CLI's.
    req = measureRequest(1, "C2D (45)", "mcf");
    req.smt = true;
    EXPECT_FALSE(resolveQuery(req).ok());
    req = measureRequest(1, "C2D (45)", "mcf");
    req.turbo = true;
    EXPECT_FALSE(resolveQuery(req).ok());
}

// ---------------------------------------------------------------
// Daemon behaviour

TEST(Serve, AnswersMeasurePingAndStats)
{
    ServeOptions options;
    options.workers = 2;
    options.queueDepth = 8;
    TestDaemon daemon(options);
    const Socket sock = daemon.connect();

    const JsonValue pong = roundTrip(sock, "{\"op\":\"ping\",\"id\":1}");
    EXPECT_EQ(pong.stringOr("status", ""), "ok");
    EXPECT_EQ(pong.numberOr("id", -1), 1.0);

    const JsonValue reply = roundTrip(
        sock, formatServeRequest(measureRequest(2, "i7 (45)", "mcf")));
    EXPECT_EQ(reply.stringOr("status", ""), "ok");
    EXPECT_EQ(reply.numberOr("id", -1), 2.0);
    EXPECT_GT(reply.numberOr("time_sec", 0.0), 0.0);
    EXPECT_GT(reply.numberOr("power_w", 0.0), 0.0);
    ASSERT_NE(reply.find("degraded"), nullptr);
    EXPECT_FALSE(reply.find("degraded")->asBoolean());

    // The served answer and a direct runner measurement must be the
    // same bits — the daemon is a cache front end, not a re-run.
    ExperimentRunner reference(0xC0FFEE);
    const Measurement &m = reference.measure(
        stockConfig(processorById("i7 (45)")), benchmarkByName("mcf"));
    EXPECT_NEAR(reply.numberOr("time_sec", 0.0), m.timeSec, 1e-6);

    // Two more asks for the now-warm key are answered inline, with
    // the same measurement.
    for (long id = 3; id <= 4; ++id) {
        const JsonValue warm = roundTrip(
            sock,
            formatServeRequest(measureRequest(id, "i7 (45)", "mcf")));
        EXPECT_EQ(warm.stringOr("status", ""), "ok");
        EXPECT_EQ(warm.numberOr("time_sec", -1.0),
                  reply.numberOr("time_sec", -2.0));
    }

    const JsonValue stats =
        roundTrip(sock, "{\"op\":\"stats\",\"id\":5}");
    EXPECT_EQ(stats.stringOr("status", ""), "ok");
    const JsonValue *counters = stats.find("stats");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("admitted", -1), 3.0);
    EXPECT_EQ(counters->numberOr("answered_inline", -1), 2.0);
    EXPECT_EQ(counters->numberOr("served", -1), 3.0);
}

TEST(Serve, QueueFullRepliesOverloadedImmediately)
{
    // One worker, a one-slot queue, and stalled jobs in front: the
    // daemon must answer `overloaded` for a cold key while the
    // worker is busy — without blocking the connection.
    ServeOptions options;
    options.workers = 1;
    options.queueDepth = 1;
    TestDaemon daemon(options);
    const Socket jammer = daemon.connect();

    // Occupy the worker, then the queue slot (cold keys, stalled).
    ASSERT_TRUE(writeFrame(jammer, formatServeRequest(measureRequest(
                                       1, "i7 (45)", "mcf", 300.0)))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(writeFrame(jammer, formatServeRequest(measureRequest(
                                       2, "i7 (45)", "gcc", 300.0)))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const Socket client = daemon.connect();
    const Clock::time_point before = Clock::now();
    const JsonValue reply = roundTrip(
        client,
        formatServeRequest(measureRequest(3, "i7 (45)", "bzip2")));
    const double elapsed_ms = msSince(before);
    EXPECT_EQ(reply.stringOr("status", ""), "overloaded");
    EXPECT_EQ(reply.numberOr("id", -1), 3.0);
    // The jammed work stalls ~600ms; a backpressure reply that fast
    // proves the daemon shed instead of waiting for a free slot.
    EXPECT_LT(elapsed_ms, 200.0);

    // Both jammed requests still complete (admitted work is never
    // lost to backpressure on later arrivals).
    EXPECT_EQ(readFrame(jammer, 1 << 16).ok(), true);
    EXPECT_EQ(readFrame(jammer, 1 << 16).ok(), true);
}

TEST(Serve, WarmKeyAnswersInlineWhileTheWorkerIsStalled)
{
    ServeOptions options;
    options.workers = 1;
    options.queueDepth = 1;
    TestDaemon daemon(options);
    const Socket sock = daemon.connect();

    // Warm the cache with one computed answer.
    const std::string request =
        formatServeRequest(measureRequest(1, "i7 (45)", "mcf"));
    const std::string first = roundTripRaw(sock, request);
    ASSERT_EQ(parseJson(first).value().stringOr("status", ""), "ok");

    // Jam the worker and the queue with stalled cold keys.
    const Socket jammer = daemon.connect();
    ASSERT_TRUE(writeFrame(jammer, formatServeRequest(measureRequest(
                                       2, "i7 (45)", "gcc", 300.0)))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(writeFrame(jammer, formatServeRequest(measureRequest(
                                       3, "i7 (45)", "hmmer", 300.0)))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // The warm key never reaches the jammed queue: it is answered on
    // the connection thread, an ordinary ok reply, byte-equal to the
    // worker's first answer.
    const Clock::time_point before = Clock::now();
    const std::string again = roundTripRaw(sock, request);
    const double elapsed_ms = msSince(before);
    EXPECT_EQ(again, first);
    const JsonValue reply = parseJson(again).value();
    EXPECT_EQ(reply.stringOr("status", ""), "ok");
    ASSERT_NE(reply.find("degraded"), nullptr);
    EXPECT_FALSE(reply.find("degraded")->asBoolean());
    EXPECT_LT(elapsed_ms, 50.0);

    EXPECT_TRUE(readFrame(jammer, 1 << 16).ok());
    EXPECT_TRUE(readFrame(jammer, 1 << 16).ok());
    const ServeStatsSnapshot stats = daemon.server->statsSnapshot();
    EXPECT_EQ(stats.answeredInline, 1u);
    EXPECT_EQ(stats.admitted, 4u);
    EXPECT_EQ(stats.overloaded, 0u);
}

TEST(Serve, ExpiredDeadlinesAreShedWithoutComputing)
{
    ServeOptions options;
    options.workers = 1;
    options.queueDepth = 4;
    TestDaemon daemon(options);
    const Socket sock = daemon.connect();

    // A stalled job occupies the single worker...
    ASSERT_TRUE(writeFrame(sock, formatServeRequest(measureRequest(
                                     1, "i7 (45)", "mcf", 200.0)))
                    .ok());
    // ...so this one expires in the queue (10ms deadline, 200ms of
    // stall ahead of it) and must be shed at dequeue, unrun.
    ASSERT_TRUE(writeFrame(sock,
                           formatServeRequest(measureRequest(
                               2, "i7 (45)", "gcc", 0.0, 10.0)))
                    .ok());

    Expected<std::string> first = readFrame(sock, 1 << 16);
    Expected<std::string> second = readFrame(sock, 1 << 16);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    const JsonValue shed = parseJson(second.value()).value();
    EXPECT_EQ(shed.stringOr("status", ""), "deadline-exceeded");
    EXPECT_EQ(shed.numberOr("id", -1), 2.0);

    // Shed means never computed: the runner holds only the stalled
    // request's key, and the daemon counted the shed.
    EXPECT_EQ(daemon.runner.cachedMeasurements(), 1u);
    EXPECT_EQ(daemon.server->statsSnapshot().deadlineShed, 1u);
}

TEST(Serve, ConcurrentIdenticalKeysComputeOnce)
{
    ServeOptions options;
    options.workers = 4;
    options.queueDepth = 16;
    TestDaemon daemon(options);

    // Eight concurrent clients ask for the same experiment with a
    // stall, so several workers hold the key at once.
    constexpr int clients = 8;
    std::vector<std::thread> threads;
    std::atomic<int> okCount{0};
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&daemon, &okCount, c] {
            const Socket sock = daemon.connect();
            const JsonValue reply = roundTrip(
                sock, formatServeRequest(measureRequest(
                          c, "i5 (32)", "mcf", 20.0)));
            if (reply.stringOr("status", "") == "ok")
                okCount.fetch_add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Every client got a computed answer, from exactly ONE cache
    // miss: the memo's call_once coalesced the concurrent lookups.
    EXPECT_EQ(okCount.load(), clients);
    EXPECT_EQ(daemon.runner.cacheStats().misses, 1u);
    EXPECT_EQ(daemon.runner.cachedMeasurements(), 1u);
}

TEST(Serve, MalformedFramesGetTypedErrorsWithoutKillingTheDaemon)
{
    ServeOptions options;
    TestDaemon daemon(options);
    const Socket sock = daemon.connect();

    // Garbage JSON: typed parse-error reply, connection survives.
    const JsonValue garbage = roundTrip(sock, "this is not json");
    EXPECT_EQ(garbage.stringOr("status", ""), "parse-error");

    // Out-of-contract request: typed invalid-argument, still alive.
    const JsonValue bad = roundTrip(
        sock,
        formatServeRequest(measureRequest(5, "z80 (3000)", "mcf")));
    EXPECT_EQ(bad.stringOr("status", ""), "invalid-argument");

    // The same connection still serves real work.
    const JsonValue pong = roundTrip(sock, "{\"op\":\"ping\",\"id\":6}");
    EXPECT_EQ(pong.stringOr("status", ""), "ok");
}

TEST(Serve, OversizedFrameDropsTheConnectionButNotTheDaemon)
{
    ServeOptions options;
    TestDaemon daemon(options);

    const Socket attacker = daemon.connect();
    // A 256 MiB length prefix: the daemon must refuse to allocate,
    // answer with a typed error, and drop only this connection.
    const char prefix[4] = {0x10, 0x00, 0x00, 0x00};
    ASSERT_EQ(::write(attacker.fd(), prefix, 4), 4);
    Expected<std::string> reply = readFrame(attacker, 1 << 16);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(parseJson(reply.value()).value().stringOr("status", ""),
              "parse-error");
    // The connection is then closed (unframeable stream)...
    EXPECT_FALSE(readFrame(attacker, 1 << 16).ok());

    // ...while the daemon keeps serving everyone else.
    const Socket client = daemon.connect();
    const JsonValue pong = roundTrip(client, "{\"op\":\"ping\"}");
    EXPECT_EQ(pong.stringOr("status", ""), "ok");
}

namespace
{

/** This process's mapped address space in KiB; -1 where unknown. */
long
vmSizeKb()
{
    std::ifstream status("/proc/self/status");
    std::string field;
    while (status >> field) {
        if (field == "VmSize:") {
            long kb = -1;
            status >> kb;
            return kb;
        }
    }
    return -1;
}

} // namespace

TEST(Serve, ClosedConnectionsReleaseTheirThreads)
{
    // Every connection gets a reader thread and its stack (8 MiB
    // mapped by default). The daemon must join a finished one while
    // it keeps accepting, not only at drain, or a long-running
    // daemon's address space grows with every client it ever served.
    ServeOptions options;
    TestDaemon daemon(options);
    auto ping = [](const Socket &sock, long id) {
        const JsonValue pong = roundTrip(
            sock, "{\"op\":\"ping\",\"id\":" + std::to_string(id) + "}");
        EXPECT_EQ(pong.stringOr("status", ""), "ok");
    };
    // Eight connections at once first: the allocator reserves a
    // malloc arena (64 MiB of address space) per concurrently live
    // thread and reuses it after the thread exits, so the sequential
    // connections below find theirs already reserved.
    {
        std::vector<Socket> open;
        for (long id = 1; id <= 8; ++id) {
            open.push_back(daemon.connect());
            ping(open.back(), id);
        }
    }
    const long before = vmSizeKb();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/status VmSize on this system";
    for (long id = 1; id <= 64; ++id)
        ping(daemon.connect(), id);
    const long grownKb = vmSizeKb() - before;
    EXPECT_LT(grownKb, 64 * 1024)
        << "64 closed connections grew VmSize by " << grownKb << " KiB";
}

TEST(Serve, DrainFlushesAdmittedWorkWithoutTruncation)
{
    ServeOptions options;
    options.workers = 1;
    options.queueDepth = 8;
    TestDaemon daemon(options);
    const Socket sock = daemon.connect();

    // Pipeline four stalled requests; all four fit the queue.
    for (long id = 1; id <= 4; ++id) {
        ASSERT_TRUE(
            writeFrame(sock, formatServeRequest(measureRequest(
                                 id, "i7 (45)", "mcf", 30.0)))
                .ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(60));

    // Drain while they are in flight. Every admitted request must
    // still receive a complete, parseable reply.
    daemon.drain();
    EXPECT_TRUE(daemon.result.ok()) << daemon.result.toString();
    for (long id = 1; id <= 4; ++id) {
        Expected<std::string> reply = readFrame(sock, 1 << 16);
        ASSERT_TRUE(reply.ok())
            << "reply " << id << ": " << reply.status().toString();
        Expected<JsonValue> parsed = parseJson(reply.value());
        ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
        EXPECT_EQ(parsed.value().stringOr("status", ""), "ok");
        EXPECT_EQ(parsed.value().numberOr("id", -1),
                  static_cast<double>(id));
    }
    // After the flushed replies: a clean EOF, not a truncated frame.
    Expected<std::string> eof = readFrame(sock, 1 << 16);
    ASSERT_FALSE(eof.ok());
    EXPECT_EQ(eof.status().message(), "connection closed");
}

TEST(Serve, ShutdownOpDrainsTheDaemon)
{
    ServeOptions options;
    TestDaemon daemon(options);
    const Socket sock = daemon.connect();
    const JsonValue ack = roundTrip(sock, "{\"op\":\"shutdown\",\"id\":9}");
    EXPECT_EQ(ack.stringOr("status", ""), "ok");
    if (daemon.thread.joinable())
        daemon.thread.join();
    EXPECT_TRUE(daemon.result.ok()) << daemon.result.toString();
}

TEST(Serve, LoadgenReportsAnsweredRequestsAndPercentiles)
{
    ServeOptions options;
    options.workers = 2;
    options.queueDepth = 16;
    TestDaemon daemon(options);

    LoadgenOptions load;
    load.socketPath = daemon.path;
    load.clients = 4;
    load.requestsPerClient = 10;
    Expected<LoadgenReport> report = runLoadgen(load);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().ops, 40u);
    EXPECT_EQ(report.value().answered(), 40u);
    EXPECT_EQ(report.value().errorCount, 0u);
    EXPECT_GT(report.value().requestsPerSec, 0.0);
    EXPECT_LE(report.value().p50Ms, report.value().p95Ms);
    EXPECT_LE(report.value().p95Ms, report.value().p99Ms);
}

TEST(Serve, LoadgenAgainstNoDaemonIsOneTypedError)
{
    LoadgenOptions load;
    load.socketPath = tempSocketPath(); // nothing listens here
    load.clients = 2;
    load.requestsPerClient = 2;
    Expected<LoadgenReport> report = runLoadgen(load);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::IoError);
}

} // namespace lhr
