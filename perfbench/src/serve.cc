/**
 * @file
 * The `serve` workload: `lhrlab serve` with default options and 4
 * closed-loop clients (each waits for its reply before sending
 * again), so the daemon's 32-slot queue never fills and any
 * `degraded`, `overloaded` or `deadline-exceeded` reply is a failure.
 *
 * It covers what neither other workload touches: the memo cache's
 * read path (hits and keyOf) and the serve and util/net stack. Every
 * measure request, warm or cold, is queued, admitted and run by a
 * worker through runner.measure. Most go to the hot set, loadgen's
 * fixed 4 x 8 stock-config mix, warmed before timing, so they are
 * memo hits. About one in 16 is a cold key, a custom clock/cores/SMT
 * configuration never repeated in the run: a miss that the worker
 * computes and inserts while the other clients' hits go on. The share
 * sets how much of the clients' waiting is cold harness work, about
 * 15% (serve.cold_time_pct).
 *
 * The run is a fixed, seeded request stream sized from --seconds, so
 * the daemon's memory holds the same cold measurements on every run
 * and peak RSS does not move with throughput.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "harness/runner.hh"
#include "inputs.hh"
#include "proc.hh"
#include "serve/protocol.hh"
#include "stats.hh"
#include "stats/summary.hh"
#include "trace.hh"
#include "util/json.hh"
#include "util/net.hh"

namespace fs = std::filesystem;

namespace perfbench
{

namespace
{

/** Requests each client sends per second of --seconds. */
constexpr double requestsPerClientSecond = 15000.0;

/** Client requests per phase of the traced run. */
constexpr size_t tracedPhaseRequests = 10000;

/**
 * The untraced load runs in this many epochs. Before each, a probe
 * daemon is started and stopped; its start is one sample of setup_s.
 */
constexpr int loadEpochs = 8;

constexpr size_t replyFrameCap = 1 << 16;

/** One client connection speaking the length-prefixed frames. */
class Connection
{
  public:
    static Connection
    open(const std::string &path)
    {
        lhr::Expected<lhr::Socket> sock = lhr::connectUnix(path);
        if (!sock.ok())
            throw std::runtime_error("connect: " + sock.status().toString());
        return Connection(std::move(sock).value());
    }

    /** Send one frame and wait for its reply. */
    std::string
    call(const std::string &body)
    {
        const lhr::Status sent = lhr::writeFrame(sock, body);
        if (!sent.ok())
            throw std::runtime_error("send: " + sent.toString());
        lhr::Expected<std::string> reply = lhr::readFrame(sock, replyFrameCap);
        if (!reply.ok())
            throw std::runtime_error("receive: " + reply.status().toString());
        return std::move(reply).value();
    }

    explicit Connection(lhr::Socket s) : sock(std::move(s)) {}

  private:
    lhr::Socket sock;
};

std::string
controlRequest(lhr::ServeOp op, long id)
{
    lhr::ServeRequest req;
    req.op = op;
    req.id = id;
    return lhr::formatServeRequest(req);
}

/** An `ok` reply that was computed, not served degraded from cache. */
bool
servedOk(const std::string &reply)
{
    // The daemon's own formatting first; the parser decides anything
    // else, so a change of spacing costs time, not correctness.
    if (reply.find("\"status\": \"ok\"") != std::string::npos &&
        reply.find("\"degraded\": false") != std::string::npos)
        return true;
    const lhr::Expected<lhr::JsonValue> parsed = lhr::parseJson(reply);
    if (!parsed.ok() || parsed.value().stringOr("status", "") != "ok")
        return false;
    const lhr::JsonValue *degraded = parsed.value().find("degraded");
    return degraded == nullptr ||
           (degraded->isBoolean() && !degraded->asBoolean());
}

struct Daemon
{
    Child child;
    double setupSec = 0.0; ///< spawn until the first ping reply
};

Daemon
startDaemon(const Options &opt, const std::string &socket)
{
    fs::remove(socket);
    Daemon daemon;
    const Clock::time_point start = Clock::now();
    daemon.child = Child::spawn({opt.lhrlab, "--seed", std::to_string(opt.seed),
                                 "serve", "--socket", socket},
                                opt.work + "/serve.log");
    for (;;) {
        if (lhr::Expected<lhr::Socket> sock = lhr::connectUnix(socket);
            sock.ok()) {
            Connection conn(std::move(sock).value());
            const std::string pong =
                conn.call(controlRequest(lhr::ServeOp::Ping, 1));
            daemon.setupSec = secondsSince(start);
            if (pong.find("pong") == std::string::npos)
                throw std::runtime_error("serve: bad ping reply " + pong);
            return daemon;
        }
        if (secondsSince(start) > 30.0)
            throw std::runtime_error("serve: daemon did not come up");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

/** Ask the daemon to drain and reap it. */
ExitInfo
stopDaemon(Daemon &daemon, const std::string &socket)
{
    Connection::open(socket).call(
        controlRequest(lhr::ServeOp::Shutdown, 2));
    if (auto info = daemon.child.waitFor(30.0))
        return *info;
    return daemon.child.terminate();
}

/** A reply kept for the bit-equality check. */
struct Sample
{
    int32_t slot;
    long id;
    std::string reply;
};

struct ClientResult
{
    explicit ClientResult(Tracer spans) : tracer(std::move(spans)) {}

    std::vector<double> warmMs, coldMs;
    uint64_t sent = 0;
    uint64_t bad = 0;
    std::vector<Sample> samples;
    std::string error;
    Tracer tracer;
};

void
clientLoop(const std::string &socket, const KeyStream &stream, int client,
           size_t from, size_t to, std::atomic<int> &barrier,
           ClientResult &out)
{
    std::optional<Connection> conn;
    try {
        conn = Connection::open(socket);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    // Every client connects first, then all send at once.
    barrier.fetch_sub(1);
    while (barrier.load() > 0)
        std::this_thread::yield();
    if (!conn)
        return;

    const auto &seq = stream.clients[static_cast<size_t>(client)];
    try {
        for (size_t i = from; i < to; ++i) {
            const int32_t slot = seq[i];
            const long id = static_cast<long>(client) * 100000000L +
                            static_cast<long>(i);
            const std::string body =
                lhr::formatServeRequest(stream.key(slot).request(id));
            const Clock::time_point sent = Clock::now();
            const int span =
                out.tracer.open(slot >= 0 ? "serve.warm" : "serve.cold", client);
            std::string reply = conn->call(body);
            out.tracer.close(span);
            (slot >= 0 ? out.warmMs : out.coldMs)
                .push_back(1e3 * secondsSince(sent));
            ++out.sent;
            if (!servedOk(reply)) {
                ++out.bad;
                if (out.error.empty())
                    out.error = "reply: " + reply;
            }
            if (i % 499 == 0)
                out.samples.push_back({slot, id, std::move(reply)});
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    }
}

struct Phase
{
    double wallSec = 0.0;
    std::vector<ClientResult> clients;

    uint64_t sent() const
    {
        uint64_t n = 0;
        for (const auto &c : clients)
            n += c.sent;
        return n;
    }

    std::vector<double> latenciesMs() const
    {
        std::vector<double> all;
        for (const auto &c : clients) {
            all.insert(all.end(), c.warmMs.begin(), c.warmMs.end());
            all.insert(all.end(), c.coldMs.begin(), c.coldMs.end());
        }
        return all;
    }
};

Phase
runPhase(const std::string &socket, const KeyStream &stream, size_t from,
         size_t to, const Tracer &tracer, Report &report)
{
    Phase phase;
    for (size_t c = 0; c < stream.clients.size(); ++c)
        phase.clients.emplace_back(Tracer(tracer.enabled(), tracer.epoch()));
    std::atomic<int> barrier{static_cast<int>(stream.clients.size())};
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (size_t c = 0; c < stream.clients.size(); ++c) {
        threads.emplace_back(clientLoop, std::cref(socket), std::cref(stream),
                             static_cast<int>(c), from, to, std::ref(barrier),
                             std::ref(phase.clients[c]));
    }
    for (std::thread &t : threads)
        t.join();
    phase.wallSec = secondsSince(start);

    const uint64_t planned = (to - from) * stream.clients.size();
    report.attempted += planned;
    report.failed += planned - phase.sent();
    for (const auto &c : phase.clients) {
        report.failed += c.bad;
        if (!c.error.empty())
            report.note("client error: " + c.error);
    }
    return phase;
}

/** Sampled replies must equal an in-process measure at the same seed. */
void
checkReplies(const Options &opt, const KeyStream &stream,
             const std::vector<const Phase *> &phases, Report &report)
{
    lhr::ExperimentRunner runner(opt.seed);
    size_t checked = 0, differ = 0;
    for (const Phase *phase : phases) {
        for (const ClientResult &client : phase->clients) {
            for (const Sample &sample : client.samples) {
                const auto resolved =
                    lhr::resolveQuery(stream.key(sample.slot).request(sample.id));
                if (!resolved.ok()) {
                    ++differ;
                    continue;
                }
                const lhr::Measurement &m = runner.measure(
                    resolved.value().config, *resolved.value().benchmark);
                ++checked;
                if (lhr::measurementReplyJson(sample.id, m, false) != sample.reply)
                    ++differ;
            }
        }
    }
    if (differ > 0 || checked == 0)
        report.problem("serve: " + std::to_string(differ) + " of " +
                       std::to_string(checked + differ) +
                       " sampled replies differ from in-process measure");
}

/** The daemon's counters, from its `stats` op. */
lhr::JsonValue
daemonStats(const std::string &socket)
{
    const std::string reply =
        Connection::open(socket).call(controlRequest(lhr::ServeOp::Stats, 3));
    lhr::Expected<lhr::JsonValue> parsed = lhr::parseJson(reply);
    if (!parsed.ok() || parsed.value().find("stats") == nullptr)
        throw std::runtime_error("serve: bad stats reply " + reply);
    return *parsed.value().find("stats");
}

/**
 * In-process spans around the functions every request passes
 * through: request parsing and resolution, the memo hit, keyOf, and
 * the reply formatting; plus the control-plane ping round trip.
 */
void
traceLayers(const Options &opt, const KeyStream &stream,
            const std::string &socket, Tracer &tracer, Report &report)
{
    Connection conn = Connection::open(socket);
    for (int i = 0; i < 2000; ++i) {
        tracer.span("net.ping", [&] {
            return conn.call(controlRequest(lhr::ServeOp::Ping, 10 + i));
        });
    }
    report.set("net.ping_rtt_us",
               1e6 * lhr::percentileOf(tracer.durations("net.ping"), 50.0));

    std::vector<lhr::ResolvedQuery> hot;
    lhr::ExperimentRunner runner(opt.seed);
    for (const ServeKey &key : stream.hot) {
        hot.push_back(lhr::resolveQuery(key.request(0)).value());
        (void)runner.measure(hot.back().config, *hot.back().benchmark);
    }

    const auto &seq = stream.clients.front();
    const size_t calls = std::min<size_t>(seq.size(), 20000);
    size_t resolved = 0;
    for (size_t i = 0; i < calls; ++i) {
        const std::string body =
            lhr::formatServeRequest(stream.key(seq[i]).request(long(i)));
        tracer.span("serve.parse", [&] {
            const auto req = lhr::parseServeRequest(body);
            if (req.ok() && lhr::resolveQuery(req.value()).ok())
                ++resolved;
        });
    }
    report.set("serve.parse_us", 1e6 * tracer.total("serve.parse") / calls);
    if (resolved != calls)
        report.problem("serve: generated requests do not parse and resolve");

    size_t bytes = 0;
    for (size_t i = 0; i < calls; ++i) {
        const auto &q = hot[i % hot.size()];
        const lhr::Measurement &m = runner.measure(q.config, *q.benchmark);
        tracer.span("serve.reply", [&] {
            bytes += lhr::measurementReplyJson(long(i), m, false).size();
        });
    }
    report.set("serve.reply_us", 1e6 * tracer.total("serve.reply") / calls);

    // Hits and keys cost well under a microsecond: one span per block
    // of calls keeps the clock's own cost out of the number.
    const size_t block = 256, blocks = 200;
    double power = 0.0;
    for (size_t b = 0; b < blocks; ++b) {
        tracer.span("harness.measure_hit", [&] {
            for (size_t i = 0; i < block; ++i) {
                const auto &q = hot[(b * block + i) % hot.size()];
                power += runner.measure(q.config, *q.benchmark).powerW;
            }
        });
        tracer.span("harness.keyof", [&] {
            for (size_t i = 0; i < block; ++i) {
                const auto &q = hot[(b * block + i) % hot.size()];
                bytes += lhr::ExperimentRunner::keyOf(q.config, *q.benchmark)
                             .size();
            }
        });
    }
    const double n = static_cast<double>(block * blocks);
    report.set("harness.measure_hit_us",
               1e6 * tracer.total("harness.measure_hit") / n);
    report.set("harness.keyof_ns", 1e9 * tracer.total("harness.keyof") / n);
    if (bytes == 0 || !(power > 0.0))
        report.problem("serve: in-process replay produced nothing");
}

void
describeTail(const std::vector<double> &latencies, Report &report)
{
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    char line[200];
    const auto tail = highestTail(latencies);
    std::snprintf(line, sizeof(line),
                  "%zu requests: p50 %.4f ms, p99 %.4f ms, p%g %.4f ms "
                  "(%zu samples beyond)",
                  sorted.size(), percentileSorted(sorted, 50.0),
                  percentileSorted(sorted, 99.0),
                  tail ? tail->percentile : 0.0, tail ? tail->value : 0.0,
                  tail ? tail->beyond : 0);
    report.note(line);
}

} // namespace

Report
runServe(const Options &opt)
{
    Report report;
    Tracer tracer(opt.trace);
    const std::string socket = opt.work + "/serve.sock";

    const size_t requestsPerClient =
        opt.trace ? 2 * tracedPhaseRequests
                  : static_cast<size_t>(opt.seconds * requestsPerClientSecond);
    const KeyStream stream =
        makeKeyStream(opt.seed, loadThreads, requestsPerClient);

    // One daemon serves the whole load; its start and those of probe
    // daemons between the load's epochs give setup_s. The probes
    // spread over the run like the load: the host's speed moves on a
    // scale of seconds, and starts taken in one burst read whichever
    // speed it had at that moment.
    const std::string probeSocket = opt.work + "/probe.sock";
    std::vector<double> setups;
    Daemon daemon = startDaemon(opt, socket);
    setups.push_back(daemon.setupSec);

    {
        Connection warm = Connection::open(socket);
        for (size_t i = 0; i < stream.hot.size(); ++i) {
            ++report.attempted;
            if (!servedOk(warm.call(lhr::formatServeRequest(
                    stream.hot[i].request(static_cast<long>(i))))))
                ++report.failed;
        }
    }
    uint64_t measuresSent = stream.hot.size();

    std::vector<const Phase *> phases;
    std::vector<Phase> plain(loadEpochs);
    Phase traced;
    const size_t plainRequests =
        opt.trace ? tracedPhaseRequests : requestsPerClient;
    double clientCpu = 0.0, plainSec = 0.0;
    uint64_t plainSent = 0;
    std::vector<double> latencies;
    for (int epoch = 0; epoch < loadEpochs; ++epoch) {
        Daemon probe = startDaemon(opt, probeSocket);
        setups.push_back(probe.setupSec);
        if (!stopDaemon(probe, probeSocket).ok())
            report.problem("serve: probe daemon did not drain cleanly");
        const double cpuBefore = selfCpuSec();
        Phase &phase = plain[static_cast<size_t>(epoch)];
        phase = runPhase(socket, stream, plainRequests * epoch / loadEpochs,
                         plainRequests * (epoch + 1) / loadEpochs,
                         Tracer(false), report);
        clientCpu += selfCpuSec() - cpuBefore;
        plainSec += phase.wallSec;
        plainSent += phase.sent();
        const std::vector<double> ms = phase.latenciesMs();
        latencies.insert(latencies.end(), ms.begin(), ms.end());
        phases.push_back(&phase);
    }
    measuresSent += plainSent;
    if (opt.trace) {
        traced = runPhase(socket, stream, tracedPhaseRequests,
                          2 * tracedPhaseRequests, tracer, report);
        measuresSent += traced.sent();
        phases.push_back(&traced);
        for (const ClientResult &client : traced.clients)
            tracer.absorb(client.tracer);
        traceLayers(opt, stream, socket, tracer, report);
    }

    const lhr::JsonValue stats = daemonStats(socket);
    const double admitted = stats.numberOr("admitted", -1.0);
    if (admitted != static_cast<double>(measuresSent))
        report.problem("serve: daemon admitted " + std::to_string(admitted) +
                       " measures, " + std::to_string(measuresSent) + " sent");
    const ExitInfo exit = stopDaemon(daemon, socket);
    if (!exit.ok())
        report.problem("serve: daemon did not drain cleanly");
    checkReplies(opt, stream, phases, report);

    if (latencies.empty())
        throw std::runtime_error("serve: no request got a reply");
    describeTail(latencies, report);
    if (!opt.trace) {
        report.set("setup_s", lhr::percentileOf(setups, 50.0));
        report.set("peak_rss_mb", exit.maxRssMb);
        report.set("ops_per_s", static_cast<double>(plainSent) / plainSec);
        report.set("unit_p50_ms", lhr::percentileOf(latencies, 50.0));
        return report;
    }

    const double plainPerReq = plainSec / static_cast<double>(plainSent);
    const double tracedPerReq =
        traced.wallSec / static_cast<double>(traced.sent());
    report.set("bench.trace_overhead_pct",
               100.0 * (tracedPerReq - plainPerReq) / plainPerReq);
    report.set("serve.warm_rtt_us",
               1e6 * lhr::percentileOf(tracer.durations("serve.warm"), 50.0));
    report.set("serve.cold_rtt_us",
               1e6 * lhr::percentileOf(tracer.durations("serve.cold"), 50.0));
    const double coldSec = tracer.total("serve.cold");
    report.set("serve.cold_time_pct",
               100.0 * coldSec / (coldSec + tracer.total("serve.warm")));
    report.set("serve.client_cpu_s", clientCpu);
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    report.set("serve.p99_ms", percentileSorted(sorted, 99.0));
    report.set("serve.samples", static_cast<double>(sorted.size()));
    if (const auto tail = highestTail(latencies)) {
        report.set("serve.tail_pct", tail->percentile);
        report.set("serve.tail_ms", tail->value);
    }
    report.set("serve.admitted", admitted);
    report.set("serve.coalesced", stats.numberOr("coalesced", 0.0));
    report.set("serve.degraded", stats.numberOr("degraded", 0.0));
    report.set("serve.overloaded", stats.numberOr("overloaded", 0.0));
    report.set("serve.deadline_shed", stats.numberOr("deadline_shed", 0.0));

    if (!tracer.writeJson(opt.work + "/trace-serve.json"))
        report.problem("serve: cannot write the span file");
    return report;
}

} // namespace perfbench
