/**
 * @file
 * gem5-style status/error reporting: panic() for simulator bugs,
 * fatal() for user errors, warn()/inform() for status messages.
 */

#ifndef NEUMMU_COMMON_LOGGING_HH
#define NEUMMU_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace neummu {

/** Verbosity levels for inform(). */
enum class LogLevel { Quiet = 0, Normal = 1, Verbose = 2 };

/** Global log verbosity (default Normal). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/**
 * What a panic or fatal throws instead of ending the process while an
 * InvariantTrap is alive on its thread. what() is the line it would
 * have printed: "panic: <message> (<file>:<line>)".
 */
class InvariantError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * While alive, NEUMMU_PANIC, NEUMMU_FATAL and a failed NEUMMU_ASSERT
 * on the constructing thread throw InvariantError instead of aborting
 * or exiting, so one sweep job's broken invariant fails that job
 * alone. Other threads are unaffected; traps nest.
 */
class InvariantTrap
{
  public:
    InvariantTrap();
    ~InvariantTrap();
    InvariantTrap(const InvariantTrap &) = delete;
    InvariantTrap &operator=(const InvariantTrap &) = delete;

  private:
    bool _outer;
};

namespace detail {
/** Print and abort (or exit(1)); throw InvariantError under a trap. */
[[noreturn]] void exitWithMessage(const char *prefix, const std::string &msg,
                                  const char *file, int line, bool do_abort);
void message(const char *prefix, const std::string &msg);
} // namespace detail

/**
 * Report an internal simulator invariant violation and abort.
 * Use only for conditions that indicate a bug in the simulator itself.
 */
#define NEUMMU_PANIC(msg)                                                     \
    ::neummu::detail::exitWithMessage("panic", (msg), __FILE__, __LINE__,     \
                                      true)

/**
 * Report an unrecoverable user/configuration error and exit(1).
 */
#define NEUMMU_FATAL(msg)                                                     \
    ::neummu::detail::exitWithMessage("fatal", (msg), __FILE__, __LINE__,     \
                                      false)

/** Runtime-checked invariant (enabled in all build types). */
#define NEUMMU_ASSERT(cond, msg)                                              \
    do {                                                                      \
        if (!(cond)) {                                                        \
            NEUMMU_PANIC(std::string("assertion failed: ") + #cond + ": " +   \
                         (msg));                                              \
        }                                                                     \
    } while (0)

/** Non-fatal warning. */
void warn(const std::string &msg);

/** Informational status message, gated on the global log level. */
void inform(const std::string &msg);

} // namespace neummu

#endif // NEUMMU_COMMON_LOGGING_HH
