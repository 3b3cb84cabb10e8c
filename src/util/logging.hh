/**
 * @file
 * Error-reporting helpers in the gem5 spirit. Each writes one
 * prefixed line to stderr; there is no verbosity setting.
 *
 * panic() — an internal invariant was violated: a bug in lhrlab itself.
 * fatal() — the simulation cannot continue because of a user error
 *           (bad configuration, invalid arguments).
 * warn()  — something is approximated or suspicious but survivable.
 */

#ifndef LHR_UTIL_LOGGING_HH
#define LHR_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace lhr
{

/**
 * Report an internal invariant violation and abort().
 * Use only for conditions that indicate a bug in lhrlab.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Report an unrecoverable user error and exit(1).
 */
[[noreturn]] void fatal(const std::string &msg);

/** Report a survivable anomaly and continue. */
void warn(const std::string &msg);

/**
 * Build a message from stream-formattable pieces.
 * Example: panic(msgOf("bad index ", i, " of ", n));
 */
template <typename... Args>
std::string
msgOf(Args &&...args)
{
    std::ostringstream os;
    if constexpr (sizeof...(Args) > 0)
        (os << ... << args);
    return os.str();
}

} // namespace lhr

#endif // LHR_UTIL_LOGGING_HH
