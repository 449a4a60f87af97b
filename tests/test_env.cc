/**
 * @file
 * Tests for util::envSize, the parser behind every integer SUPERBNN_*
 * knob: well-formed values win, unset falls back, and anything that
 * does not start with a digit — in particular a negative number after
 * leading whitespace, which strtoull would wrap to a huge count — is
 * rejected. No test here builds a pool or a service from a parsed
 * value, so a wrong parse can never start threads.
 */

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "serve/inference_service.h"
#include "util/env.h"
#include "util/thread_pool.h"

using namespace superbnn;

namespace {

/** Saves one environment variable and restores it on destruction. */
class ScopedEnv
{
  public:
    explicit ScopedEnv(const char *name) : name_(name)
    {
        const char *v = std::getenv(name);
        had_ = v != nullptr;
        if (had_)
            old_ = v;
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

    void set(const char *value) const { ::setenv(name_, value, 1); }
    void unset() const { ::unsetenv(name_); }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

constexpr const char *kVar = "SUPERBNN_TEST_ENV_SIZE";

} // namespace

TEST(EnvSize, AcceptsOnlyValuesThatStartWithADigit)
{
    const ScopedEnv env(kVar);
    env.set("4");
    EXPECT_EQ(util::envSize(kVar, 7), 4u);
    env.set("18446744073709551615");
    EXPECT_EQ(util::envSize(kVar, 7), SIZE_MAX);

    // strtoull skips leading whitespace and wraps a negative value, so
    // " -1" once parsed as SIZE_MAX. Overflow is rejected too.
    for (const char *bad : {"-1", " -1", "\t-2", "\n-3", " 4", "+3", "-0",
                            "18446744073709551616"}) {
        env.set(bad);
        EXPECT_EQ(util::envSize(kVar, 7), 7u) << "'" << bad << "'";
        EXPECT_EQ(util::envSize(kVar, 7, /*min_value=*/1), 7u)
            << "'" << bad << "'";
    }
}

TEST(EnvSize, NegativeKnobsKeepTheirDefaults)
{
    // The knobs the bug reached: a thread count and the serving
    // admission bound. Both are only resolved here, never used.
    const ScopedEnv threads("SUPERBNN_THREADS");
    threads.set(" -1");
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(util::ThreadPool::defaultThreadCount(),
              hw == 0 ? 1u : static_cast<std::size_t>(hw));

    const ScopedEnv queue("SUPERBNN_SERVE_QUEUE");
    queue.set(" -1");
    EXPECT_EQ(serve::ServiceConfig::fromEnv().maxQueue,
              serve::ServiceConfig{}.maxQueue);
}
