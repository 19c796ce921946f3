/**
 * @file
 * Error-reporting and logging primitives for the GCD2 reproduction.
 *
 * Follows the gem5 convention: fatal() for user errors that make it
 * impossible to continue (bad shapes, unsupported configuration) and
 * panic() for internal invariant violations (compiler bugs).
 */
#ifndef GCD2_COMMON_LOGGING_H
#define GCD2_COMMON_LOGGING_H

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gcd2 {

/** Exception thrown for unrecoverable user-facing errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception thrown for internal invariant violations (bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail {

std::string formatMessage(const char *kind, const char *file, int line,
                          const std::string &msg);

} // namespace detail

/** Report a user error: the requested operation cannot continue. */
[[noreturn]] inline void
fatalAt(const char *file, int line, const std::string &msg)
{
    throw FatalError(detail::formatMessage("fatal", file, line, msg));
}

/** Report an internal bug: an invariant that must always hold was broken. */
[[noreturn]] inline void
panicAt(const char *file, int line, const std::string &msg)
{
    throw PanicError(detail::formatMessage("panic", file, line, msg));
}

/** Emit a non-fatal warning on stderr. */
void warnAt(const char *file, int line, const std::string &msg);

} // namespace gcd2

#define GCD2_FATAL(msg)                                                      \
    do {                                                                     \
        std::ostringstream gcd2_oss_;                                        \
        gcd2_oss_ << msg;                                                    \
        ::gcd2::fatalAt(__FILE__, __LINE__, gcd2_oss_.str());                \
    } while (0)

#define GCD2_PANIC(msg)                                                      \
    do {                                                                     \
        std::ostringstream gcd2_oss_;                                        \
        gcd2_oss_ << msg;                                                    \
        ::gcd2::panicAt(__FILE__, __LINE__, gcd2_oss_.str());                \
    } while (0)

#define GCD2_WARN(msg)                                                       \
    do {                                                                     \
        std::ostringstream gcd2_oss_;                                        \
        gcd2_oss_ << msg;                                                    \
        ::gcd2::warnAt(__FILE__, __LINE__, gcd2_oss_.str());                 \
    } while (0)

/** Check an invariant; violations are internal bugs (panic). */
#define GCD2_ASSERT(cond, msg)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            GCD2_PANIC("assertion failed: " #cond ": " << msg);              \
        }                                                                    \
    } while (0)

/** Validate a user-supplied condition; violations are fatal errors. */
#define GCD2_REQUIRE(cond, msg)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            GCD2_FATAL("requirement failed: " #cond ": " << msg);            \
        }                                                                    \
    } while (0)

#endif // GCD2_COMMON_LOGGING_H
