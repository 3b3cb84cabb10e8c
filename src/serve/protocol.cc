#include "serve/protocol.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/fp.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace lhr
{

namespace
{

/**
 * Bound on the load-testing stall: a hostile or buggy client must
 * not be able to park a worker thread for minutes with one frame.
 */
constexpr double maxStallMs = 2000.0;

/** Typed lookup of an optional finite number member. */
Status
readNumber(const JsonValue &doc, const char *key, bool &present,
           double &out)
{
    const JsonValue *member = doc.find(key);
    present = member != nullptr;
    if (!present)
        return Status();
    if (!member->isNumber()) {
        return Status::error(StatusCode::InvalidArgument,
                             msgOf("\"", key, "\" must be a number"));
    }
    out = member->asNumber();
    return Status();
}

/** Typed lookup of an optional boolean member. */
Status
readBoolean(const JsonValue &doc, const char *key, bool &present,
            bool &out)
{
    const JsonValue *member = doc.find(key);
    present = member != nullptr;
    if (!present)
        return Status();
    if (!member->isBoolean()) {
        return Status::error(StatusCode::InvalidArgument,
                             msgOf("\"", key, "\" must be a boolean"));
    }
    out = member->asBoolean();
    return Status();
}

} // namespace

const char *
serveStatusName(ServeStatus status)
{
    switch (status) {
    case ServeStatus::Ok:
        return "ok";
    case ServeStatus::Overloaded:
        return "overloaded";
    case ServeStatus::DeadlineExceeded:
        return "deadline-exceeded";
    case ServeStatus::ShuttingDown:
        return "shutting-down";
    case ServeStatus::ParseError:
        return "parse-error";
    case ServeStatus::InvalidArgument:
        return "invalid-argument";
    case ServeStatus::Internal:
        return "internal";
    }
    panic("unhandled ServeStatus");
}

Expected<ServeRequest>
parseServeRequest(const std::string &body)
{
    Expected<JsonValue> parsed = parseJson(body);
    if (!parsed.ok())
        return parsed.status();
    const JsonValue &doc = parsed.value();
    if (!doc.isObject()) {
        return Status::error(StatusCode::ParseError,
                             "request must be a JSON object");
    }

    ServeRequest req;
    const std::string op = doc.stringOr("op", "");
    if (op == "measure") {
        req.op = ServeOp::Measure;
    } else if (op == "ping") {
        req.op = ServeOp::Ping;
    } else if (op == "stats") {
        req.op = ServeOp::Stats;
    } else if (op == "shutdown") {
        req.op = ServeOp::Shutdown;
    } else {
        return Status::error(
            StatusCode::InvalidArgument,
            msgOf("\"op\" must be measure|ping|stats|shutdown, got \"",
                  op, "\""));
    }

    bool present = false;
    double number = 0.0;
    Status status = readNumber(doc, "id", present, number);
    if (!status.ok())
        return status;
    if (present) {
        // [LONG_MIN, -LONG_MIN) is exactly the doubles a long holds
        // (both bounds are powers of two); anything else, such as a
        // fraction or 1e300, has no faithful echo.
        constexpr double idLimit =
            -static_cast<double>(std::numeric_limits<long>::min());
        if (!(number >= -idLimit && number < idLimit) ||
            !exactlyEqual(number, std::trunc(number))) {
            return Status::error(StatusCode::InvalidArgument,
                                 "\"id\" must be an integer in the "
                                 "range of a long");
        }
        req.id = static_cast<long>(number);
    }

    status = readNumber(doc, "deadline_ms", present, number);
    if (!status.ok())
        return status;
    if (present) {
        if (number < 0.0 || number > maxDeadlineMs) {
            return Status::error(
                StatusCode::InvalidArgument,
                msgOf("\"deadline_ms\" must be 0..",
                      static_cast<long>(maxDeadlineMs), " (one hour)"));
        }
        req.deadlineMs = number;
    }

    if (req.op != ServeOp::Measure)
        return req;

    req.proc = doc.stringOr("proc", "");
    req.bench = doc.stringOr("bench", "");
    if (req.proc.empty() || req.bench.empty()) {
        return Status::error(
            StatusCode::InvalidArgument,
            "measure needs \"proc\" and \"bench\" strings");
    }

    status = readNumber(doc, "cores", present, number);
    if (!status.ok())
        return status;
    if (present) {
        // Refused, not cast: 2.5 would truncate to 2 and 1e300 has
        // no int (the cast is undefined behaviour). resolveConfig
        // checks the processor's own range.
        if (!(number >= std::numeric_limits<int>::min() &&
              number <= std::numeric_limits<int>::max()) ||
            !exactlyEqual(number, std::trunc(number))) {
            return Status::error(StatusCode::InvalidArgument,
                                 "\"cores\" must be an integer");
        }
        req.cores = static_cast<int>(number);
    }

    bool flag = false;
    status = readBoolean(doc, "smt", present, flag);
    if (!status.ok())
        return status;
    if (present)
        req.smt = flag;

    status = readNumber(doc, "clock", present, number);
    if (!status.ok())
        return status;
    if (present)
        req.clockGhz = number;

    status = readBoolean(doc, "turbo", present, flag);
    if (!status.ok())
        return status;
    if (present)
        req.turbo = flag;

    status = readNumber(doc, "stall_ms", present, number);
    if (!status.ok())
        return status;
    if (present) {
        if (number < 0.0 || number > maxStallMs) {
            return Status::error(
                StatusCode::InvalidArgument,
                msgOf("\"stall_ms\" must be 0..", maxStallMs));
        }
        req.stallMs = number;
    }

    return req;
}

std::string
formatServeRequest(const ServeRequest &req)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("id").value(req.id);
    switch (req.op) {
    case ServeOp::Measure:
        json.key("op").value("measure");
        break;
    case ServeOp::Ping:
        json.key("op").value("ping");
        break;
    case ServeOp::Stats:
        json.key("op").value("stats");
        break;
    case ServeOp::Shutdown:
        json.key("op").value("shutdown");
        break;
    }
    if (req.op == ServeOp::Measure) {
        json.key("proc").value(req.proc);
        json.key("bench").value(req.bench);
        if (req.cores)
            json.key("cores").value(static_cast<long>(*req.cores));
        if (req.smt)
            json.key("smt").value(*req.smt);
        if (req.clockGhz)
            json.key("clock").value(*req.clockGhz, 3);
        if (req.turbo)
            json.key("turbo").value(*req.turbo);
        if (req.stallMs > 0.0)
            json.key("stall_ms").value(req.stallMs, 3);
    }
    if (req.deadlineMs > 0.0)
        json.key("deadline_ms").value(req.deadlineMs, 3);
    json.endObject();
    return out.str();
}

Expected<MachineConfig>
resolveConfig(const ServeRequest &req)
{
    const ProcessorSpec *spec = findProcessor(req.proc);
    if (spec == nullptr) {
        return Status::error(StatusCode::InvalidArgument,
                             msgOf("unknown processor \"", req.proc,
                                   "\""));
    }

    MachineConfig cfg = stockConfig(*spec);
    if (req.cores) {
        if (*req.cores < 1 || *req.cores > spec->cores) {
            return Status::error(StatusCode::InvalidArgument,
                                 msgOf("cores must be 1..",
                                       spec->cores, " for ",
                                       spec->id));
        }
        cfg = withCores(cfg, *req.cores);
    }
    if (req.smt) {
        if (*req.smt && spec->smtWays < 2) {
            return Status::error(StatusCode::InvalidArgument,
                                 spec->id + " has no SMT");
        }
        cfg = withSmt(cfg, *req.smt);
    }
    if (req.clockGhz) {
        if (*req.clockGhz < spec->fMinGhz ||
            *req.clockGhz > spec->stockClockGhz) {
            return Status::error(
                StatusCode::InvalidArgument,
                msgOf("clock must be within ", spec->fMinGhz, "..",
                      spec->stockClockGhz, " GHz for ", spec->id));
        }
        cfg = withClock(cfg, *req.clockGhz);
    }
    if (req.turbo) {
        if (*req.turbo && !spec->hasTurbo) {
            return Status::error(StatusCode::InvalidArgument,
                                 spec->id + " has no Turbo Boost");
        }
        cfg = withTurbo(cfg, *req.turbo);
    }
    return cfg;
}

Expected<ResolvedQuery>
resolveQuery(const ServeRequest &req)
{
    const Expected<MachineConfig> cfg = resolveConfig(req);
    if (!cfg.ok())
        return cfg.status();
    const Benchmark *bench = findBenchmark(req.bench);
    if (bench == nullptr) {
        return Status::error(StatusCode::InvalidArgument,
                             msgOf("unknown benchmark \"", req.bench,
                                   "\""));
    }
    return ResolvedQuery{cfg.value(), bench};
}

std::string
errorReplyJson(long id, ServeStatus status, const std::string &message)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("id").value(id);
    json.key("status").value(serveStatusName(status));
    json.key("message").value(message);
    json.endObject();
    return out.str();
}

std::string
measurementReplyJson(long id, const Measurement &m, bool degraded)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("id").value(id);
    json.key("status").value(serveStatusName(ServeStatus::Ok));
    json.key("degraded").value(degraded);
    json.key("time_sec").value(m.timeSec, 6);
    json.key("time_ci95_rel").value(m.timeCi95Rel, 6);
    json.key("power_w").value(m.powerW, 6);
    json.key("power_ci95_rel").value(m.powerCi95Rel, 6);
    json.key("energy_j").value(m.energyJ(), 6);
    json.key("invocations").value(static_cast<long>(m.invocations));
    json.endObject();
    return out.str();
}

} // namespace lhr
