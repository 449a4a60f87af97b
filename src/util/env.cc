#include "util/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace superbnn::util {

namespace {

/**
 * Emit the shared "ignoring invalid NAME value 'VALUE' (want WANT);
 * using USED" notice, at most once per distinct (name, value) pair per
 * process.
 */
void
envWarnOnce(const char *name, const char *value, const char *want,
            const char *used)
{
    // One notice per distinct (variable, value) pair: a fallback the
    // user did not ask for must not be silent, but a hot loop must not
    // spam stderr either.
    static std::mutex warn_mutex;
    static std::set<std::string> warned;
    const std::lock_guard<std::mutex> lock(warn_mutex);
    if (warned.insert(std::string(name) + "=" + value).second) {
        std::fprintf(stderr,
                     "superbnn: ignoring invalid %s value '%s' (want "
                     "%s); using %s\n",
                     name, value, want, used);
    }
}

} // namespace

std::size_t
envSize(const char *name, std::size_t fallback, std::size_t min_value)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    // strtoull skips leading whitespace and accepts a sign (wrapping a
    // negative value to a huge one), so require a leading digit.
    const bool digit_first = *env >= '0' && *env <= '9';
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (digit_first && *end == '\0' && errno == 0 && v >= min_value)
        return static_cast<std::size_t>(v);
    char want[64];
    char used[32];
    std::snprintf(want, sizeof want, "an integer >= %zu", min_value);
    std::snprintf(used, sizeof used, "%zu", fallback);
    envWarnOnce(name, env, want, used);
    return fallback;
}

} // namespace superbnn::util
