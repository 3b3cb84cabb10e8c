/**
 * @file
 * Command-line inputs of the laboratory: the built-in seed and the
 * strict parsers front ends use for --seed and numeric flags.
 *
 * A Lab or ExperimentRunner takes its seed as a constructor
 * argument; nothing reads it from the environment. Constructed
 * without one, it uses builtinSeed, the historical 0xC0FFEE default
 * the paper reproduction has always used.
 */

#ifndef LHR_UTIL_ENV_HH
#define LHR_UTIL_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

#include "util/status.hh"

namespace lhr
{

/** The seed used when none is given explicitly: 0xC0FFEE. */
inline constexpr uint64_t builtinSeed = 0xC0FFEEull;

/**
 * Parse a seed string: decimal or 0x-prefixed hexadecimal.
 * Returns nullopt on malformed input.
 */
[[nodiscard]] std::optional<uint64_t> parseSeed(const std::string &text);

/**
 * Parse a command-line integer strictly: the whole string must be a
 * decimal integer inside [min, max]. Unlike atoi, "banana" and "4x"
 * are ParseErrors instead of silently becoming 0 and 4.
 */
[[nodiscard]] Expected<long> parseInt(const std::string &text, long min, long max);

/**
 * Parse a command-line real strictly: the whole string must be a
 * finite number. Unlike atof, trailing junk is a ParseError.
 */
[[nodiscard]] Expected<double> parseReal(const std::string &text);

} // namespace lhr

#endif // LHR_UTIL_ENV_HH
