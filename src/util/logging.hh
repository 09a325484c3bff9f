/**
 * @file
 * Error-reporting conventions, following the gem5 fatal/panic split:
 *
 *  - fatal():  the *user's* fault (bad configuration, invalid argument).
 *              Throws ConfigError so library embedders can recover.
 *  - panic():  a MAD-Max bug (violated internal invariant). Throws
 *              InternalError; should never fire on any valid input.
 *  - warn():   non-fatal status messages on stderr.
 */

#ifndef MADMAX_UTIL_LOGGING_HH
#define MADMAX_UTIL_LOGGING_HH

#include <stdexcept>
#include <string>

namespace madmax
{

/** Raised by fatal(): the simulation cannot continue due to user input. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Raised by panic(): an internal MAD-Max invariant was violated. */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Report an unrecoverable user error. @throws ConfigError always. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal bug. @throws InternalError always. */
[[noreturn]] void panic(const std::string &msg);

/** Print a warning to stderr (functionality may be degraded). */
void warn(const std::string &msg);

} // namespace madmax

#endif // MADMAX_UTIL_LOGGING_HH
