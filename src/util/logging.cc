#include "util/logging.hh"

#include <atomic>
#include <cstdio>

namespace madmax
{

namespace
{
std::atomic<bool> quiet{false};
} // namespace

void
fatal(const std::string &msg)
{
    throw ConfigError(msg);
}

void
panic(const std::string &msg)
{
    throw InternalError(msg);
}

void
warn(const std::string &msg)
{
    if (!quiet.load(std::memory_order_relaxed))
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
setQuiet(bool q)
{
    quiet.store(q, std::memory_order_relaxed);
}

} // namespace madmax
