#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace bf
{
namespace detail
{

namespace
{

/** Process-wide log level. */
LogLevel current_level = LogLevel::Info;

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setVerbose(bool verbose)
{
    current_level = verbose ? LogLevel::Info : LogLevel::Warn;
}

bool
verbose()
{
    return current_level >= LogLevel::Info;
}

void
setLogLevel(LogLevel level)
{
    current_level = level;
}

LogLevel
logLevel()
{
    return current_level;
}

} // namespace detail
} // namespace bf
