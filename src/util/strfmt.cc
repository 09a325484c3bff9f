#include "util/strfmt.hh"

#include <cmath>
#include <cstdio>
#include <vector>

namespace madmax
{

std::string
strfmt(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return {};
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

namespace
{

/** Scale a value down by @p base, returning the chosen suffix index. */
int
scaleBy(double &value, double base, int max_index)
{
    int idx = 0;
    while (std::abs(value) >= base && idx < max_index) {
        value /= base;
        ++idx;
    }
    return idx;
}

} // namespace

std::string
formatBytes(double bytes)
{
    static const char *suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
    double v = bytes;
    int idx = scaleBy(v, 1024.0, 5);
    return strfmt("%.2f %s", v, suffixes[idx]);
}

std::string
formatTime(double seconds)
{
    double abs_s = std::abs(seconds);
    if (abs_s >= 86400.0)
        return strfmt("%.2f days", seconds / 86400.0);
    if (abs_s >= 3600.0)
        return strfmt("%.2f hr", seconds / 3600.0);
    if (abs_s >= 60.0)
        return strfmt("%.2f min", seconds / 60.0);
    if (abs_s >= 1.0)
        return strfmt("%.3f s", seconds);
    if (abs_s >= 1e-3)
        return strfmt("%.3f ms", seconds * 1e3);
    if (abs_s >= 1e-6)
        return strfmt("%.3f us", seconds * 1e6);
    return strfmt("%.3f ns", seconds * 1e9);
}

std::string
formatCount(double count)
{
    static const char *suffixes[] = {"", "K", "M", "B", "T", "Q"};
    double v = count;
    int idx = scaleBy(v, 1000.0, 5);
    if (idx == 0)
        return strfmt("%.0f", v);
    return strfmt("%.2f%s", v, suffixes[idx]);
}

std::string
formatPercent(double fraction)
{
    return strfmt("%.2f%%", fraction * 100.0);
}

} // namespace madmax
