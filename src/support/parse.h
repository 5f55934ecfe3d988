// Achilles reproduction -- support library.
//
// Strict parsing of numeric command-line values, shared by achilles_cli
// and the bench binaries. A malformed, negative, suffixed or out-of-range
// value is rejected, never read as 0 (atoi) or wrapped to a huge count
// (a "-1" worker count becoming SIZE_MAX threads). The *OrExit helpers
// print a diagnostic naming the flag and exit with status 2, so a bad
// value stops a program before it starts any work or any thread.

#ifndef ACHILLES_SUPPORT_PARSE_H_
#define ACHILLES_SUPPORT_PARSE_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace achilles {

/** Each worker is an OS thread with its own expression context and
 *  solver, so the count is capped well below what would exhaust
 *  threads or memory. */
constexpr size_t kMaxWorkers = 256;
/** Longest heartbeat period a --progress flag accepts (one day). */
constexpr double kMaxProgressSecs = 86400.0;

/** Parses a decimal count: digits only, no sign, space or suffix. */
inline bool
ParseCount(const char *text, size_t *out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0' || value > SIZE_MAX)
        return false;
    *out = static_cast<size_t>(value);
    return true;
}

/** Parses a finite, unsigned decimal number of seconds. */
inline bool
ParseSeconds(const char *text, double *out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])) &&
        text[0] != '.')
        return false;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (errno == ERANGE || *end != '\0' || !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

/**
 * The value of count flag `flag`, which must be a whole number in
 * [lo, hi]; anything else prints a diagnostic and exits with status 2.
 */
inline size_t
CountFlagOrExit(const char *argv0, const char *flag, const char *text,
                size_t lo, size_t hi = SIZE_MAX)
{
    size_t value = 0;
    if (ParseCount(text, &value) && value >= lo && value <= hi)
        return value;
    if (hi == SIZE_MAX) {
        std::fprintf(stderr,
                     "%s: %s must be a whole number of at least %zu, got "
                     "'%s'\n",
                     argv0, flag, lo, text);
    } else {
        std::fprintf(stderr,
                     "%s: %s must be a whole number from %zu to %zu, got "
                     "'%s'\n",
                     argv0, flag, lo, hi, text);
    }
    std::exit(2);
}

/**
 * The value of a --progress period: seconds above 0 and at most
 * kMaxProgressSecs; anything else prints a diagnostic and exits with
 * status 2.
 */
inline double
ProgressSecsOrExit(const char *argv0, const char *flag, const char *text)
{
    double value = 0;
    if (ParseSeconds(text, &value) && value > 0 &&
        value <= kMaxProgressSecs)
        return value;
    std::fprintf(stderr,
                 "%s: %s must be a number of seconds above 0 and at most "
                 "%g, got '%s'\n",
                 argv0, flag, kMaxProgressSecs, text);
    std::exit(2);
}

}  // namespace achilles

#endif  // ACHILLES_SUPPORT_PARSE_H_
