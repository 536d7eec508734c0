/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic() is for simulator bugs (aborts); fatal() is for user/configuration
 * errors (clean exit); warn()/inform() report conditions without stopping.
 *
 * Output below panic/fatal is gated by a process-wide log level:
 * `quiet` silences warn() and inform(), `warn` keeps warnings only, and
 * `info` (the default) prints everything. The benches default to
 * `warn`; their BF_LOG knob (quiet|warn|info, bench/common.hh) sets the
 * level, so e.g.\ BF_JOBS-parallel bench runs can be silenced — or
 * un-silenced — without a rebuild.
 */

#ifndef BF_COMMON_LOGGING_HH
#define BF_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace bf
{

/** How much non-fatal output reaches the terminal. */
enum class LogLevel : int
{
    Quiet = 0, //!< Nothing below fatal.
    Warn = 1,  //!< warn() only.
    Info = 2,  //!< warn() and inform() (default).
};

namespace detail
{

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

/** Print "panic: ..." and abort(). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Print "fatal: ..." and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print "warn: ...". */
void warnImpl(const std::string &msg);

/** Print "info: ...". */
void informImpl(const std::string &msg);

/** Globally enable/disable inform() output (level info or warn). */
void setVerbose(bool verbose);

/** Current verbosity (true when inform() prints). */
bool verbose();

/** Set the log level. */
void setLogLevel(LogLevel level);

/** Effective log level. */
LogLevel logLevel();

} // namespace detail

/** Report an internal simulator bug and abort. */
template <typename... Args>
[[noreturn]] void
panic(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line, detail::concat(std::forward<Args>(args)...));
}

/** Report an unrecoverable user error and exit. */
template <typename... Args>
[[noreturn]] void
fatal(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line, detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (detail::logLevel() >= LogLevel::Warn)
        detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (detail::logLevel() >= LogLevel::Info)
        detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace bf

#define bf_panic(...) ::bf::panic(__FILE__, __LINE__, __VA_ARGS__)
#define bf_fatal(...) ::bf::fatal(__FILE__, __LINE__, __VA_ARGS__)

/** gem5-style assertion that survives NDEBUG builds. */
#define bf_assert(cond, ...)                                              \
    do {                                                                  \
        if (!(cond))                                                      \
            ::bf::panic(__FILE__, __LINE__, "assertion '" #cond "' "      \
                        "failed: ", ##__VA_ARGS__);                       \
    } while (0)

#endif // BF_COMMON_LOGGING_HH
