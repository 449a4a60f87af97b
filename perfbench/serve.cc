/**
 * @file
 * `serve`: an in-process serve::InferenceService over the mapped MLP,
 * driven by one generator thread in two phases: an open loop at a light
 * fixed rate (batches of about one; linger and wake-ups dominate) and a
 * closed window of 32 outstanding requests (batches fill to maxBatch).
 * It uses the evaluator and the pool at fine grain, the opposite of
 * `sweep`.
 */

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <optional>
#include <thread>

#include "common.h"
#include "serve/inference_service.h"
#include "trace.h"
#include "util/executor_pool.h"

namespace perfbench {

using namespace superbnn;

namespace {

constexpr double kLightRate = 200.0;    ///< requests/s, light phase
constexpr std::size_t kWindow = 32;     ///< outstanding, saturated phase
constexpr std::size_t kRepRequests = 512; ///< one throughput repetition
constexpr std::size_t kDistinct = 256;  ///< distinct (sample, seed) pairs

const core::HardwareConfig kServeHw{16, 8, 2.4, false, 0.25, 0, 8};

struct ServeState
{
    data::SyntheticMnist data;
    MlpModel model;
    std::unique_ptr<core::HardwareEvaluator> evaluator;
    std::unique_ptr<serve::InferenceService> service;
};

/** A request the generator can send, with its expected response. */
struct Request
{
    Tensor sample;
    std::uint64_t seed;
    std::vector<double> expected; ///< direct classScoresSeeded result
};

std::unique_ptr<ServeState>
makeServeState(const Options &opts)
{
    auto s = std::make_unique<ServeState>();
    s->data = makeMnist(opts.seed);
    s->model = trainedMlp(s->data, opts.seed);
    s->evaluator = std::make_unique<core::HardwareEvaluator>(
        aqfp::AttenuationModel(), kServeHw);
    s->evaluator->mapMlp(*s->model.mlp);
    serve::ServiceConfig config = serve::ServiceConfig::fromEnv();
    if (corrupted(opts, "serve_drop"))
        config.maxQueue = 1;
    s->service =
        std::make_unique<serve::InferenceService>(*s->evaluator, config);
    // Warm-up: pool spawn and the service's first unit-cost pricing.
    std::vector<std::future<serve::InferenceResponse>> warm;
    for (std::size_t i = 0; i < kWindow; ++i)
        if (auto f = s->service->trySubmit(s->data.test.sample(i), i))
            warm.push_back(std::move(*f));
    for (auto &f : warm)
        f.wait();
    return s;
}

/**
 * The request table and its expected responses, computed on a second,
 * identically mapped evaluator so the service stays its evaluator's
 * sole user.
 */
std::vector<Request>
makeRequests(const ServeState &state, const Options &opts,
             const core::HardwareEvaluator &reference)
{
    std::vector<Request> requests(kDistinct);
    const std::uint64_t base = deriveSeed(opts.seed, kRequestSeed);
    for (std::size_t i = 0; i < kDistinct; ++i) {
        Request &r = requests[i];
        r.seed = deriveSeed(base, i);
        r.sample = state.data.test.sample(r.seed % state.data.test.size());
        r.expected = reference.classScoresSeeded({r.sample}, {r.seed})[0];
    }
    if (corrupted(opts, "serve_scores"))
        requests[0].expected[0] += 1.0;
    return requests;
}

bool
matches(const serve::InferenceResponse &got, const Request &want)
{
    if (got.scores.size() != want.expected.size())
        return false;
    std::size_t best = 0;
    for (std::size_t c = 1; c < want.expected.size(); ++c)
        if (want.expected[c] > want.expected[best])
            best = c;
    return got.predicted == best
        && std::memcmp(got.scores.data(), want.expected.data(),
                       got.scores.size() * sizeof(double))
        == 0;
}

/** Span names of one traced phase (static storage). */
struct PhaseNames
{
    const char *request;
    const char *late;
    const char *queue;
    const char *afterQueue;
};
const PhaseNames kLightNames{"light.request", "light.late", "light.queue",
                             "light.after_queue"};
const PhaseNames kHalfNames{"half.request", "half.late", "half.queue",
                            "half.after_queue"};
const PhaseNames kSatNames{"sat.request", "sat.late", "sat.queue",
                           "sat.after_queue"};

/** What one phase measured. */
struct PhaseResult
{
    std::vector<double> latencyMs; ///< due time -> completion seen
    std::vector<double> repRates;  ///< requests/s per repetition
    double wallMs = 0.0;
    double cpuS = 0.0;
    serve::ServiceStats stats;     ///< counter deltas over the phase
};

/** One sent request awaiting its response. */
struct Inflight
{
    std::size_t index;
    Clock::time_point due;
    Clock::time_point sent;
    std::future<serve::InferenceResponse> future;
};

/**
 * Shared generator: sends requests 0, 1, ... while @p more says so.
 * With a @p period it is an open loop (request i is due at start +
 * i * period, whatever is outstanding); without one it is a closed
 * loop that keeps kWindow requests outstanding (a request is due when
 * its slot frees). Every response is checked against its expected
 * scores; a refused request counts as failed.
 */
template <typename More>
PhaseResult
drive(ServeState &state, const std::vector<Request> &requests,
      std::optional<Clock::duration> period, More more, Checks &checks,
      SpanRecorder *spans, const PhaseNames *names)
{
    PhaseResult out;
    const serve::ServiceStats before = state.service->stats();
    std::deque<Inflight> inflight;
    std::size_t completed = 0;
    auto rep_start = Clock::now();

    const auto complete = [&](Inflight &f, Clock::time_point done) {
        const serve::InferenceResponse r = f.future.get();
        const Request &want = requests[f.index % requests.size()];
        checks.record(matches(r, want),
                      "response " + std::to_string(f.index)
                          + " differs from direct classScoresSeeded");
        out.latencyMs.push_back(msBetween(f.due, done));
        if (spans != nullptr) {
            using Micros = std::chrono::duration<double, std::micro>;
            const auto at = [&](double micros) {
                return f.sent
                    + std::chrono::duration_cast<Clock::duration>(
                           Micros(micros));
            };
            const auto id = spans->add(names->request, f.due, done,
                                       SpanRecorder::kNone, r.requestId);
            spans->add(names->late, f.due, f.sent, id, r.requestId);
            spans->add(names->queue, f.sent, at(r.queueMicros), id,
                       r.requestId);
            spans->add(names->afterQueue, at(r.queueMicros),
                       at(r.serviceMicros), id, r.requestId);
        }
        if (++completed % kRepRequests == 0) {
            const auto now = Clock::now();
            out.repRates.push_back(static_cast<double>(kRepRequests)
                                   / (msBetween(rep_start, now) / 1000.0));
            rep_start = now;
        }
    };
    const auto pop = [&] {
        inflight.front().future.wait();
        complete(inflight.front(), Clock::now());
        inflight.pop_front();
    };

    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    for (std::size_t i = 0; more(i, start); ++i) {
        Clock::time_point due;
        if (period) {
            // Collect what finishes before the next send is due.
            due = start + *period * static_cast<Clock::rep>(i);
            while (!inflight.empty()
                   && inflight.front().future.wait_until(due)
                       == std::future_status::ready)
                pop();
            std::this_thread::sleep_until(due);
        } else {
            while (inflight.size() >= kWindow)
                pop();
            due = Clock::now();
        }
        const Request &r = requests[i % requests.size()];
        const Clock::time_point sent = Clock::now();
        auto future = state.service->trySubmit(r.sample, r.seed);
        if (!future) {
            checks.record(false, "request " + std::to_string(i) + " refused");
            continue;
        }
        inflight.push_back({i, due, sent, std::move(*future)});
    }
    while (!inflight.empty())
        pop();
    out.wallMs = msBetween(start, Clock::now());
    out.cpuS = cpuSeconds() - cpu0;
    const serve::ServiceStats after = state.service->stats();
    out.stats.rejected = after.rejected - before.rejected;
    out.stats.served = after.served - before.served;
    out.stats.batches = after.batches - before.batches;
    return out;
}

/** Open loop: @p count requests at a fixed @p rate. */
PhaseResult
openLoop(ServeState &state, const std::vector<Request> &requests,
         double rate, std::size_t count, Checks &checks,
         SpanRecorder *spans = nullptr, const PhaseNames *names = nullptr)
{
    return drive(
        state, requests,
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate)),
        [&](std::size_t i, Clock::time_point) { return i < count; },
        checks, spans, names);
}

/** Closed loop: kWindow outstanding for @p seconds. */
PhaseResult
closedLoop(ServeState &state, const std::vector<Request> &requests,
           double seconds, Checks &checks, SpanRecorder *spans = nullptr,
           const PhaseNames *names = nullptr)
{
    return drive(
        state, requests, std::nullopt,
        [&](std::size_t, Clock::time_point start) {
            return msBetween(start, Clock::now()) < seconds * 1000.0;
        },
        checks, spans, names);
}

double
batchMean(const PhaseResult &phase)
{
    return phase.stats.batches == 0
        ? 0.0
        : static_cast<double>(phase.stats.served)
            / static_cast<double>(phase.stats.batches);
}

/** Median wall time of @p reps direct classScoresSeeded calls. */
double
directMs(const core::HardwareEvaluator &evaluator,
         const std::vector<Request> &requests, std::size_t batch,
         std::size_t reps)
{
    std::vector<double> times;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        std::vector<Tensor> samples;
        std::vector<std::uint64_t> seeds;
        for (std::size_t i = 0; i < batch; ++i) {
            const Request &r = requests[(rep * batch + i) % requests.size()];
            samples.push_back(r.sample);
            seeds.push_back(r.seed);
        }
        const auto t0 = Clock::now();
        (void)evaluator.classScoresSeeded(samples, seeds);
        times.push_back(msBetween(t0, Clock::now()));
    }
    return median(times);
}

void
addPhaseMetrics(RunResult &out, const SpanRecorder &spans,
                const PhaseNames &names, const PhaseResult &phase,
                const std::string &tag, bool open_loop)
{
    out.metrics.push_back({"service." + tag + ".queue_wait_ms",
                           spans.meanSelfMs(names.queue), "ms"});
    out.metrics.push_back({"service." + tag + ".after_queue_ms",
                           spans.meanSelfMs(names.afterQueue), "ms"});
    out.metrics.push_back(
        {"service." + tag + ".batch_size_mean", batchMean(phase), "count"});
    out.metrics.push_back({"service." + tag + ".rejected",
                           static_cast<double>(phase.stats.rejected),
                           "count"});
    if (open_loop)
        out.metrics.push_back({"generator." + tag + ".late_ms",
                               spans.meanSelfMs(names.late), "ms"});
}

} // namespace

RunResult
runServe(const Options &opts)
{
    RunResult out;
    SetupStats setup;
    const auto state = repeatedSetup(kSetups, setup, [&] {
        return makeServeState(opts);
    });
    core::HardwareEvaluator reference(aqfp::AttenuationModel(), kServeHw);
    reference.mapMlp(*state->model.mlp);
    const std::vector<Request> requests =
        makeRequests(*state, opts, reference);

    const std::size_t light_count =
        static_cast<std::size_t>(kLightRate * 0.4 * opts.seconds) + 1;
    const PhaseResult light =
        openLoop(*state, requests, kLightRate, light_count, out.checks);
    const PhaseResult sat =
        closedLoop(*state, requests, 0.6 * opts.seconds, out.checks);

    const double sat_requests = static_cast<double>(sat.latencyMs.size());
    out.metrics = {
        {"setup_s", setup.seconds, "s"},
        {"peak_rss_mb", setup.peakRssMb, "MiB"},
        {"throughput_per_s",
         sat.repRates.empty() ? sat_requests / (sat.wallMs / 1000.0)
                              : median(sat.repRates),
         "1/s"},
        {"cpu_ms_per_op", sat.cpuS * 1000.0 / sat_requests, "ms"},
        {"latency_p50_ms", median(light.latencyMs), "ms"},
    };
    out.info = {
        {"light_p99_ms", percentile(light.latencyMs, 0.99), "ms"},
        {"light_requests", static_cast<double>(light.latencyMs.size()),
         "count"},
        {"light_batch_size_mean", batchMean(light), "count"},
        {"sat_requests", sat_requests, "count"},
        {"sat_repetitions", static_cast<double>(sat.repRates.size()),
         "count"},
        {"sat_batch_size_mean", batchMean(sat), "count"},
    };
    return out;
}

double
traceServe(const Options &opts, SpanRecorder &spans, RunResult &out)
{
    const auto state = makeServeState(opts);
    core::HardwareEvaluator reference(aqfp::AttenuationModel(), kServeHw);
    reference.mapMlp(*state->model.mlp);
    const std::vector<Request> requests =
        makeRequests(*state, opts, reference);
    const double phase_s = std::max(1.0, opts.seconds / 8.0);
    const std::size_t light_count =
        static_cast<std::size_t>(kLightRate * phase_s) + 1;

    // Direct evaluator calls while the service is idle.
    const double single_ms = directMs(reference, requests, 1, 200);
    const double batch16_ms = directMs(reference, requests, 16, 50);

    const PhaseResult plain =
        openLoop(*state, requests, kLightRate, light_count, out.checks);
    const PhaseResult light = openLoop(*state, requests, kLightRate,
                                       light_count, out.checks, &spans,
                                       &kLightNames);
    const std::size_t pool_threads =
        util::ExecutorPool::shared()->threadCount();
    const PhaseResult sat =
        closedLoop(*state, requests, phase_s, out.checks, &spans, &kSatNames);
    const double sat_rate = static_cast<double>(sat.latencyMs.size())
        / (sat.wallMs / 1000.0);
    const PhaseResult half = openLoop(
        *state, requests, sat_rate / 2.0,
        static_cast<std::size_t>(sat_rate / 2.0 * phase_s) + 1, out.checks,
        &spans, &kHalfNames);

    out.metrics.push_back({"evaluator.single_ms", single_ms, "ms"});
    out.metrics.push_back({"evaluator.batch16_ms", batch16_ms, "ms"});
    addPhaseMetrics(out, spans, kLightNames, light, "light", true);
    addPhaseMetrics(out, spans, kHalfNames, half, "half", true);
    addPhaseMetrics(out, spans, kSatNames, sat, "sat", false);
    out.metrics.push_back(
        {"pool.serve_utilization",
         sat.cpuS * 1000.0 / (sat.wallMs * static_cast<double>(pool_threads)),
         "ratio"});
    out.info.push_back({"half_rate_per_s", sat_rate / 2.0, "1/s"});
    return 100.0
        * (median(light.latencyMs) / median(plain.latencyMs) - 1.0);
}

} // namespace perfbench
