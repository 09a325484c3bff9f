#include "util/logging.hh"

#include <cstdio>

namespace madmax
{

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
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace madmax
