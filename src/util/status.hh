/**
 * @file
 * Typed, recoverable errors for the measurement pipeline.
 *
 * panic()/fatal() (util/logging) end the process; they are the right
 * tool for invariant violations and unusable command lines, but a
 * production sweep cannot afford them for per-row trouble: one
 * malformed CSV line or one faulted rig must degrade to a flagged
 * result, not abort a 45-configuration run. Status and Expected<T>
 * carry that class of error to the caller instead:
 *
 *   Status     — an error code plus a human-readable message;
 *   Expected<T> — a T or the Status explaining its absence;
 *   FaultError — the throwable form, for paths (worker tasks, the
 *                memo cache's call_once) where a return value cannot
 *                flow; SweepEngine catches it per cell.
 */

#ifndef LHR_UTIL_STATUS_HH
#define LHR_UTIL_STATUS_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace lhr
{

/** Coarse classification of a recoverable error. */
enum class StatusCode
{
    Ok,
    InvalidArgument,  ///< caller-supplied value out of contract
    ParseError,       ///< malformed input text (CSV, numbers, flags)
    IoError,          ///< filesystem or stream failure
    FaultDetected,    ///< the rig fault model fired and won
    Timeout,          ///< a blocking wait (e.g. accept) ran out
    Cancelled,        ///< a sweep was stopped before this cell ran
    Conflict,         ///< two stores disagree about the same key
    Internal,         ///< unexpected exception from lower layers
};

/** Stable lower-case name of a code, e.g. "parse-error". */
[[nodiscard]] const char *statusCodeName(StatusCode code);

/** An error code with its explanation; default-constructed is Ok. */
class [[nodiscard]] Status
{
  public:
    Status() = default;

    /** Build a non-Ok status; panics if called with StatusCode::Ok. */
    [[nodiscard]] static Status error(StatusCode code, std::string message);

    [[nodiscard]] bool ok() const { return statusCode == StatusCode::Ok; }

    [[nodiscard]] StatusCode code() const { return statusCode; }

    /** Empty for Ok statuses. */
    [[nodiscard]] const std::string &message() const { return text; }

    /** "parse-error: line 3 has 4 fields, expected 6" (or "ok"). */
    [[nodiscard]] std::string toString() const;

  private:
    Status(StatusCode code, std::string message)
        : statusCode(code), text(std::move(message))
    {
    }

    StatusCode statusCode = StatusCode::Ok;
    std::string text;
};

/**
 * A value or the Status explaining why there is none. value() on an
 * error (and status() on a value) panic: check ok() first.
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : held(std::move(value)) {}

    /** Implicit from a non-Ok Status (panics on an Ok one). */
    Expected(Status error) : errorStatus(std::move(error))
    {
        if (errorStatus.ok())
            throw std::logic_error(
                "Expected: constructed from an Ok status");
    }

    [[nodiscard]] bool ok() const { return held.has_value(); }
    explicit operator bool() const { return ok(); }

    [[nodiscard]] const T &value() const &
    {
        requireValue();
        return *held;
    }

    [[nodiscard]] T &value() &
    {
        requireValue();
        return *held;
    }

    [[nodiscard]] T &&value() &&
    {
        requireValue();
        return std::move(*held);
    }

    /** The error; panics when this Expected holds a value. */
    [[nodiscard]] const Status &status() const
    {
        if (ok())
            throw std::logic_error(
                "Expected: status() on a value");
        return errorStatus;
    }

  private:
    void requireValue() const
    {
        if (!ok())
            throw std::logic_error("Expected: value() on error: " +
                                   errorStatus.toString());
    }

    std::optional<T> held;
    Status errorStatus;
};

/**
 * Throwable Status, for call sites (thread-pool tasks, call_once
 * bodies) where errors cannot flow through a return value.
 */
class FaultError : public std::runtime_error
{
  public:
    explicit FaultError(Status status)
        : std::runtime_error(status.toString()),
          errorStatus(std::move(status))
    {
    }

    const Status &status() const { return errorStatus; }

  private:
    Status errorStatus;
};

} // namespace lhr

#endif // LHR_UTIL_STATUS_HH
