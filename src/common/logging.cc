#include "common/logging.hh"

namespace neummu {

namespace {
LogLevel globalLevel = LogLevel::Normal;
/** An InvariantTrap is alive on this thread. */
thread_local bool trapping = false;
} // namespace

LogLevel
logLevel()
{
    return globalLevel;
}

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

InvariantTrap::InvariantTrap() : _outer(trapping) { trapping = true; }

InvariantTrap::~InvariantTrap() { trapping = _outer; }

namespace detail {

void
exitWithMessage(const char *prefix, const std::string &msg,
                const char *file, int line, bool do_abort)
{
    const std::string text = std::string(prefix) + ": " + msg + " (" +
                             file + ":" + std::to_string(line) + ")";
    if (trapping)
        throw InvariantError(text);
    std::fprintf(stderr, "%s\n", text.c_str());
    if (do_abort)
        std::abort();
    std::exit(1);
}

void
message(const char *prefix, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

} // namespace detail

void
warn(const std::string &msg)
{
    if (logLevel() != LogLevel::Quiet)
        detail::message("warn", msg);
}

void
inform(const std::string &msg)
{
    if (logLevel() != LogLevel::Quiet)
        detail::message("info", msg);
}

} // namespace neummu
