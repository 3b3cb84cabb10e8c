#include "serve/server.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/fault.hh"
#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/thread_pool.hh"

namespace lhr
{

namespace
{

using Clock = std::chrono::steady_clock;

/** How long the accept loop waits before re-checking drain flags. */
constexpr int acceptPollMs = 100;

/**
 * Request-frame cap. A longer length prefix is answered with a
 * parse error and drops the connection, so no client can make the
 * daemon allocate a huge frame buffer.
 */
constexpr size_t maxFrameBytes = 1 << 20;

/**
 * One connected client. Pool tasks and the connection's reader thread
 * both write replies, so every frame goes out under the write lock —
 * frames interleave, bytes within a frame never do.
 */
struct ClientConn
{
    explicit ClientConn(Socket s) : sock(std::move(s)) {}

    [[nodiscard]] Status send(const std::string &body)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        return writeFrame(sock, body);
    }

    Socket sock;
    std::mutex writeMutex;
};

/** One admitted measure request, queued on the pool. */
struct Job
{
    ServeRequest req;
    ResolvedQuery query;
    std::shared_ptr<ClientConn> conn;
    bool hasDeadline = false;
    Clock::time_point deadline;
};

/** Monotonic counters; snapshotted for the stats op. */
struct Counters
{
    std::atomic<uint64_t> connections{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> answeredInline{0};
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> overloaded{0};
    std::atomic<uint64_t> deadlineShed{0};
    std::atomic<uint64_t> parseErrors{0};
    std::atomic<uint64_t> invalidArguments{0};
    std::atomic<uint64_t> refusedDraining{0};
    std::atomic<uint64_t> internalErrors{0};
};

/**
 * A reply send can only fail because the client left; that is load,
 * not an error, so the failed send is dropped.
 */
void
sendBestEffort(ClientConn &conn, const std::string &body)
{
    (void)conn.send(body);
}

} // namespace

struct LabServer::Impl
{
    Impl(ExperimentRunner &r, ServeOptions o)
        : runner(r), options(std::move(o))
    {
    }

    ExperimentRunner &runner;
    const ServeOptions options;
    Counters counters;

    std::atomic<bool> draining{false};

    /** Runs admitted jobs; last, so it drains before the rest die. */
    ThreadPool pool{options.workers};

    void serveMeasure(const ServeRequest &req,
                      const std::shared_ptr<ClientConn> &conn);
    void serveStats(const ServeRequest &req, ClientConn &conn);
    void handleFrame(const std::string &body,
                     const std::shared_ptr<ClientConn> &conn);
    void connectionLoop(const std::shared_ptr<ClientConn> &conn);
    void runJob(const Job &job);
    void requestDrain();
    [[nodiscard]] ServeStatsSnapshot snapshot() const;
};

ServeStatsSnapshot
LabServer::Impl::snapshot() const
{
    ServeStatsSnapshot s;
    s.connections = counters.connections.load();
    s.admitted = counters.admitted.load();
    s.answeredInline = counters.answeredInline.load();
    s.served = counters.served.load();
    s.overloaded = counters.overloaded.load();
    s.deadlineShed = counters.deadlineShed.load();
    s.parseErrors = counters.parseErrors.load();
    s.invalidArguments = counters.invalidArguments.load();
    s.refusedDraining = counters.refusedDraining.load();
    s.internalErrors = counters.internalErrors.load();
    return s;
}

void
LabServer::Impl::serveStats(const ServeRequest &req, ClientConn &conn)
{
    const ServeStatsSnapshot s = snapshot();
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("id").value(req.id);
    json.key("status").value(serveStatusName(ServeStatus::Ok));
    json.key("stats").beginObject();
    json.key("connections").value(s.connections);
    json.key("admitted").value(s.admitted);
    json.key("answered_inline").value(s.answeredInline);
    json.key("served").value(s.served);
    json.key("overloaded").value(s.overloaded);
    json.key("deadline_shed").value(s.deadlineShed);
    json.key("parse_errors").value(s.parseErrors);
    json.key("invalid_arguments").value(s.invalidArguments);
    json.key("refused_draining").value(s.refusedDraining);
    json.key("internal_errors").value(s.internalErrors);
    json.key("queue_depth").value(static_cast<uint64_t>(pool.queued()));
    json.key("queue_capacity")
        .value(static_cast<uint64_t>(options.queueDepth));
    json.key("cached_measurements")
        .value(static_cast<uint64_t>(runner.cachedMeasurements()));
    json.endObject();
    json.endObject();
    sendBestEffort(conn, out.str());
}

void
LabServer::Impl::serveMeasure(const ServeRequest &req,
                              const std::shared_ptr<ClientConn> &conn)
{
    Expected<ResolvedQuery> resolved = resolveQuery(req);
    if (!resolved.ok()) {
        counters.invalidArguments.fetch_add(1);
        sendBestEffort(*conn, errorReplyJson(
                                  req.id, ServeStatus::InvalidArgument,
                                  resolved.status().message()));
        return;
    }

    if (draining.load()) {
        counters.refusedDraining.fetch_add(1);
        sendBestEffort(*conn,
                       errorReplyJson(req.id, ServeStatus::ShuttingDown,
                                      "daemon is draining"));
        return;
    }

    // A published key is answered here, on the connection thread,
    // with the same bytes a pool task would send: a memo hit costs
    // far less than the hand-off to a worker and back. peekCache
    // never blocks, so a key still being computed falls through to
    // the queue and coalesces there. A stalled request is load-test
    // work standing in for an expensive query, so it always queues.
    if (req.stallMs <= 0.0) {
        if (const Measurement *cached = runner.peekCache(
                resolved.value().config, *resolved.value().benchmark)) {
            counters.admitted.fetch_add(1);
            counters.answeredInline.fetch_add(1);
            counters.served.fetch_add(1);
            sendBestEffort(*conn,
                           measurementReplyJson(req.id, *cached, false));
            return;
        }
    }

    Job job;
    job.req = req;
    job.query = resolved.value();
    job.conn = conn;
    if (req.deadlineMs > 0.0) {
        job.hasDeadline = true;
        job.deadline =
            Clock::now() + std::chrono::microseconds(static_cast<long>(
                               req.deadlineMs * 1000.0));
    }

    if (pool.trySubmit([this, job = std::move(job)] { runJob(job); },
                       options.queueDepth)) {
        counters.admitted.fetch_add(1);
        return;
    }

    // Queue full. Only cold or stalled work gets this far: refuse
    // it, typed.
    counters.overloaded.fetch_add(1);
    sendBestEffort(
        *conn,
        errorReplyJson(req.id, ServeStatus::Overloaded,
                       msgOf("admission queue full (depth ",
                             options.queueDepth,
                             "); retry with backoff")));
}

void
LabServer::Impl::handleFrame(const std::string &body,
                             const std::shared_ptr<ClientConn> &conn)
{
    Expected<ServeRequest> parsed = parseServeRequest(body);
    if (!parsed.ok()) {
        const bool malformed =
            parsed.status().code() == StatusCode::ParseError;
        if (malformed)
            counters.parseErrors.fetch_add(1);
        else
            counters.invalidArguments.fetch_add(1);
        sendBestEffort(*conn,
                       errorReplyJson(0,
                                      malformed
                                          ? ServeStatus::ParseError
                                          : ServeStatus::InvalidArgument,
                                      parsed.status().message()));
        return;
    }

    const ServeRequest &req = parsed.value();
    switch (req.op) {
    case ServeOp::Ping:
        sendBestEffort(*conn, errorReplyJson(req.id, ServeStatus::Ok,
                                             "pong"));
        return;
    case ServeOp::Stats:
        serveStats(req, *conn);
        return;
    case ServeOp::Shutdown:
        sendBestEffort(*conn, errorReplyJson(req.id, ServeStatus::Ok,
                                             "draining"));
        requestDrain();
        return;
    case ServeOp::Measure:
        serveMeasure(req, conn);
        return;
    }
}

void
LabServer::Impl::connectionLoop(const std::shared_ptr<ClientConn> &conn)
{
    for (;;) {
        Expected<std::string> frame = readFrame(conn->sock, maxFrameBytes);
        if (!frame.ok()) {
            // An oversized prefix is the one protocol error the
            // stream cannot recover from: answer it, then drop the
            // connection (the next bytes are unframeable).
            if (frame.status().code() == StatusCode::InvalidArgument) {
                counters.parseErrors.fetch_add(1);
                sendBestEffort(
                    *conn,
                    errorReplyJson(0, ServeStatus::ParseError,
                                   frame.status().message()));
            }
            break; // EOF (clean or mid-frame) ends the connection
        }
        handleFrame(frame.value(), conn);
    }
}

void
LabServer::Impl::runJob(const Job &job)
{
    // The deadline gate: shed work that expired while queued, and
    // again after a stall, which may have consumed the deadline.
    const auto shedIfExpired = [&] {
        if (!job.hasDeadline || Clock::now() <= job.deadline)
            return false;
        counters.deadlineShed.fetch_add(1);
        sendBestEffort(*job.conn,
                       errorReplyJson(job.req.id,
                                      ServeStatus::DeadlineExceeded,
                                      "deadline expired in queue; shed"));
        return true;
    };
    if (shedIfExpired())
        return;

    // Load-test stall: stand in for an expensive query.
    if (job.req.stallMs > 0.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<long>(job.req.stallMs * 1000.0)));
        if (shedIfExpired())
            return;
    }

    try {
        const Measurement &m =
            runner.measure(job.query.config, *job.query.benchmark);
        counters.served.fetch_add(1);
        sendBestEffort(*job.conn,
                       measurementReplyJson(job.req.id, m, false));
    } catch (const FaultError &err) {
        counters.internalErrors.fetch_add(1);
        sendBestEffort(*job.conn,
                       errorReplyJson(job.req.id, ServeStatus::Internal,
                                      err.what()));
    }
}

void
LabServer::Impl::requestDrain()
{
    draining.store(true);
}

LabServer::LabServer(ExperimentRunner &runner, ServeOptions options)
    : impl(new Impl(runner, std::move(options)))
{
}

LabServer::~LabServer() { delete impl; }

ServeStatsSnapshot
LabServer::statsSnapshot() const
{
    return impl->snapshot();
}

Status
LabServer::serve()
{
    Expected<Socket> listener = listenUnix(impl->options.socketPath);
    if (!listener.ok())
        return listener.status();

    // The live connections: one reader thread each. A finished one
    // is joined on the loop's next pass, so a closed connection does
    // not keep its stack mapped until drain. The list only watches
    // the connection: the reader thread and admitted jobs own it,
    // and when the last of them lets go the socket closes and the
    // client sees a clean EOF.
    struct ConnThread
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
        std::weak_ptr<ClientConn> conn;
    };
    std::vector<ConnThread> connThreads;
    while (!impl->draining.load()) {
        for (auto it = connThreads.begin(); it != connThreads.end();) {
            if (it->done->load()) {
                it->thread.join();
                it = connThreads.erase(it);
            } else {
                ++it;
            }
        }
        if (impl->options.stopFlag != nullptr &&
            impl->options.stopFlag->load()) {
            impl->requestDrain();
            break;
        }
        Expected<Socket> client =
            acceptClient(listener.value(), acceptPollMs);
        if (!client.ok()) {
            if (client.status().code() == StatusCode::Timeout)
                continue; // lapse or signal: re-check the flags
            warn("serve: accept failed: " + client.status().message());
            continue;
        }
        auto conn =
            std::make_shared<ClientConn>(std::move(client.value()));
        impl->counters.connections.fetch_add(1);
        auto done = std::make_shared<std::atomic<bool>>(false);
        connThreads.push_back({std::thread([this, conn, done] {
                                   impl->connectionLoop(conn);
                                   done->store(true);
                               }),
                               done, conn});
    }

    // Drain, in order: stop accepting (done — the loop exited), wake
    // blocked readers so connection threads wind down and join them
    // (they are the only producers, so nothing is admitted after
    // this), finish every admitted job, and only then let the sockets
    // close. The jobs keep their connections alive via shared_ptr, so
    // replies to admitted work always reach a writable socket.
    listener.value().close();
    for (const ConnThread &c : connThreads) {
        if (const std::shared_ptr<ClientConn> conn = c.conn.lock())
            conn->sock.shutdownRead();
    }
    for (ConnThread &c : connThreads)
        c.thread.join();
    impl->pool.wait();
    return Status();
}

} // namespace lhr
