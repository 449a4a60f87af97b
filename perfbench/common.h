/**
 * @file
 * Shared plumbing of the perfbench workloads: timing and statistics
 * helpers, the correctness-check ledger every workload reports its
 * attempted/failed operations through, and the metric list the final
 * JSON line is built from.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/models.h"
#include "data/synthetic_mnist.h"
#include "tensor/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Median of @p values (mean of the middle pair for even sizes). */
double median(std::vector<double> values);

/** Nearest-rank percentile, @p q in [0, 1]. */
double percentile(std::vector<double> values, double q);

/** Process user + system CPU seconds so far (getrusage). */
double cpuSeconds();

/** Peak resident set size of the process so far, in MiB (ru_maxrss). */
double peakRssMb();

/** SplitMix64 finalizer of (seed, salt): independent sub-seeds. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/** Sub-seed salts: one per input the workload seed derives. */
enum Salt : std::uint64_t
{
    kDataSeed = 1,
    kInitSeed = 2,
    kSweepSeed = 3,
    kRequestSeed = 4,
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Name of a correctness check to sabotage (self-check mode), or
    /// empty. See README.md, "Self-check".
    std::string corrupt;
    /// Where the traced run writes its spans (empty = nowhere).
    std::string traceOut;
};

/**
 * Attempted/failed operation ledger. A failed check prints its first
 * few reasons to stderr so a failing run says why.
 */
class Checks
{
  public:
    /** Count one operation; @p ok false counts it as failed. */
    void record(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** One emitted metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one run hands back to main for the final JSON line. */
struct RunResult
{
    Checks checks;
    std::vector<Metric> metrics;
    /// Context printed beside the metrics but not gated (e.g. p99).
    std::vector<Metric> info;
};

/** True when @p opts asks to sabotage the check called @p name. */
inline bool
corrupted(const Options &opts, const char *name)
{
    return opts.corrupt == name;
}

/** Set-up figures of one run. */
struct SetupStats
{
    double seconds = 0.0; ///< median wall time of one set-up
    /// Peak RSS from process start through the first set-up, whose
    /// warm-up covers one full repetition. Later set-ups and
    /// repetitions are left out on purpose: glibc keeps freed memory
    /// in whichever thread's arena freed it, so after the first pass
    /// the peak depends on thread scheduling (explore read 224-393 MiB
    /// across identical runs), while a cold process reads the same.
    double peakRssMb = 0.0;
};

/**
 * Run @p make @p count times from scratch and return the state of the
 * last one. @p make returns a std::unique_ptr; each set-up runs after
 * the previous state is destroyed.
 */
template <typename Make>
auto
repeatedSetup(std::size_t count, SetupStats &stats, Make make)
    -> decltype(make())
{
    std::vector<double> times;
    decltype(make()) state;
    for (std::size_t i = 0; i < count; ++i) {
        state = {};
        const auto t0 = Clock::now();
        state = make();
        times.push_back(msBetween(t0, Clock::now()) / 1000.0);
        if (i == 0)
            stats.peakRssMb = peakRssMb();
    }
    stats.seconds = median(times);
    return state;
}

/// Set-ups per run: setup_s is their median.
constexpr std::size_t kSetups = 3;

/** The synthetic-MNIST split every MLP workload trains and serves. */
superbnn::data::SyntheticMnist makeMnist(std::uint64_t seed);

/**
 * A freshly initialised 784-64-10 RandomizedMlp and the Rng it keeps a
 * pointer to (the model draws its stochastic forward noise from it, so
 * the Rng must outlive the model).
 */
struct MlpModel
{
    std::unique_ptr<superbnn::Rng> rng;
    std::unique_ptr<superbnn::core::RandomizedMlp> mlp;
};

MlpModel makeMlp(std::uint64_t seed);

/**
 * A 784-64-10 model trained for a few epochs: the model sweep and serve
 * run on. Ledger activity is value-independent, so a briefly trained
 * model loads the simulator exactly like a fully trained one.
 */
MlpModel trainedMlp(const superbnn::data::SyntheticMnist &data,
                    std::uint64_t seed);

/** The per-workload entry points (one translation unit each). */
RunResult runTrain(const Options &opts);
RunResult runSweep(const Options &opts);
RunResult runServe(const Options &opts);
RunResult runExplore(const Options &opts);

/**
 * Traced per-layer passes: each appends its layer's metrics to
 * @p out and returns its workload's tracing overhead in percent
 * (traced unit-op time over untraced, minus one).
 */
class SpanRecorder;
double traceTrain(const Options &opts, SpanRecorder &spans, RunResult &out);
double traceSweep(const Options &opts, SpanRecorder &spans, RunResult &out);
double traceServe(const Options &opts, SpanRecorder &spans, RunResult &out);
double traceExplore(const Options &opts, SpanRecorder &spans,
                    RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
