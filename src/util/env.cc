#include "util/env.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/logging.hh"

namespace lhr
{

std::optional<uint64_t>
parseSeed(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    const bool hex =
        text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X');
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str() + (hex ? 2 : 0), &end, hex ? 16 : 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return std::nullopt;
    return static_cast<uint64_t>(value);
}

Expected<long>
parseInt(const std::string &text, long min, long max)
{
    errno = 0;
    char *end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || end == text.c_str() || *end != '\0' ||
        errno == ERANGE) {
        return Status::error(StatusCode::ParseError,
                             "'" + text + "' is not an integer");
    }
    if (value < min || value > max) {
        return Status::error(
            StatusCode::InvalidArgument,
            msgOf("'", text, "' is outside ", min, "..", max));
    }
    return value;
}

Expected<double>
parseReal(const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end == text.c_str() || *end != '\0') {
        return Status::error(StatusCode::ParseError,
                             "'" + text + "' is not a number");
    }
    if (!std::isfinite(value)) {
        return Status::error(StatusCode::InvalidArgument,
                             "'" + text + "' is not finite");
    }
    return value;
}

} // namespace lhr
