/**
 * @file
 * Minimal printf-style string formatting (GCC 12 on this toolchain lacks
 * <format>). Also houses the human-readable quantity formatters used by
 * reports and bench tables.
 */

#ifndef MADMAX_UTIL_STRFMT_HH
#define MADMAX_UTIL_STRFMT_HH

#include <cstdarg>
#include <string>

namespace madmax
{

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return The formatted string.
 */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Format a byte count with a binary prefix, e.g. "12.5 GiB". */
std::string formatBytes(double bytes);

/** Format a duration with an adaptive unit, e.g. "65.3 ms". */
std::string formatTime(double seconds);

/** Format a plain count with K/M/B/T suffix, e.g. "793B". */
std::string formatCount(double count);

/** Format a ratio as a percentage, e.g. "75.5%". */
std::string formatPercent(double fraction);

} // namespace madmax

#endif // MADMAX_UTIL_STRFMT_HH
