#include "sim/debug.hh"

#include <cstdlib>
#include <functional>
#include <set>

namespace gpuwalk::sim::debug {

namespace {

/** Parses GPUWALK_DEBUG once into a flag set. */
const std::set<std::string, std::less<>> &
activeFlags()
{
    static const std::set<std::string, std::less<>> flags = [] {
        std::set<std::string, std::less<>> out;
        const char *env = std::getenv("GPUWALK_DEBUG");
        if (!env)
            return out;
        std::string token;
        for (const char *p = env;; ++p) {
            if (*p == ',' || *p == '\0') {
                if (!token.empty())
                    out.insert(token);
                token.clear();
                if (*p == '\0')
                    break;
            } else if (*p != ' ') {
                token += *p;
            }
        }
        return out;
    }();
    return flags;
}

} // namespace

bool
enabled(std::string_view flag)
{
    const auto &flags = activeFlags();
    if (flags.empty())
        return false;
    return flags.count("all") > 0 || flags.count(flag) > 0;
}

namespace detail {

void
emit(std::string_view flag, Tick now, const std::string &msg)
{
    std::cerr << now << ": [" << flag << "] " << msg << "\n";
}

bool
readAnyFlagSet()
{
    return !activeFlags().empty();
}

} // namespace detail

} // namespace gpuwalk::sim::debug
