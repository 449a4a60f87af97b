/**
 * @file
 * Inference-service tests: the seeded-evaluation determinism contract
 * (request-pinned noise makes batching invisible — batched ==
 * singletons bit-exactly, for MLPs and CNNs, at any thread count, and
 * evaluate() scores the same at every evalBatch),
 * scheduler edge cases (zero linger, full-queue rejection,
 * shutdown-while-queued drain), exact per-request ledger attribution,
 * and the socket server round trip.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/hardware_eval.h"
#include "serve/inference_service.h"
#include "serve/server.h"

using namespace superbnn;
using namespace superbnn::core;
using namespace superbnn::serve;

namespace {

/** Deterministic float in [-1, 1) from an index hash. */
float
hashedFloat(std::size_t i)
{
    const std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL;
    return static_cast<float>(h % 2048) / 1024.0f - 1.0f;
}

/** A (1, dim) sample whose values are a pure function of @p tag. */
Tensor
flatSample(std::size_t dim, std::size_t tag)
{
    Tensor t(Shape{1, dim});
    for (std::size_t i = 0; i < dim; ++i)
        t[i] = hashedFloat(tag * 7919 + i);
    return t;
}

/** A (1, C, H, W) sample, same construction. */
Tensor
imageSample(std::size_t channels, std::size_t side, std::size_t tag)
{
    Tensor t(Shape{1, channels, side, side});
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = hashedFloat(tag * 104729 + i);
    return t;
}

/**
 * A small UNTRAINED two-hidden-layer MLP (32-24-16-4): multi-layer on
 * purpose, because that is where a batch-wide (layer-major) assignment
 * of root draws would make a batch differ from N singles. Random
 * weights are as good as trained ones for bit-exact determinism
 * properties.
 */
RandomizedMlp
makeTinyMlp()
{
    Rng rng(1234);
    return RandomizedMlp(32, {24, 16}, 4, AqfpBehavior{8, 2.4, 0.0},
                         aqfp::AttenuationModel(), rng);
}

/** Cs = 8, window 8 evaluator over the tiny MLP (threads as usual). */
std::unique_ptr<HardwareEvaluator>
makeMlpEvaluator(std::size_t threads = 1)
{
    auto eval = std::make_unique<HardwareEvaluator>(
        aqfp::AttenuationModel(),
        HardwareConfig{8, 8, 2.4, false, 0.25, threads, 8});
    eval->mapMlp(makeTinyMlp());
    return eval;
}

/** A deterministic request plan over the MLP input space. */
struct Plan
{
    std::vector<Tensor> samples;
    std::vector<std::uint64_t> seeds;
};

Plan
makePlan(std::size_t n)
{
    Plan plan;
    for (std::size_t i = 0; i < n; ++i) {
        plan.samples.push_back(flatSample(32, i));
        plan.seeds.push_back(0xABCDULL + i * 17);
    }
    return plan;
}

ServiceConfig
quickConfig()
{
    ServiceConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxLingerMicros = 2000;
    cfg.maxQueue = 16;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Evaluator-level seeded contract
// ---------------------------------------------------------------------

TEST(ClassScoresSeeded, SingleRequestMatchesDirectCall)
{
    // A single request's scores are a pure function of (sample, seed):
    // a second evaluator over the same model reproduces them, and
    // predictSeeded is their argmax.
    const auto eval = makeMlpEvaluator();
    const Tensor sample = flatSample(32, 3);
    const auto seeded = eval->classScoresSeeded({sample}, {99});
    ASSERT_EQ(seeded.size(), 1u);
    ASSERT_EQ(seeded[0].size(), 4u);
    EXPECT_EQ(makeMlpEvaluator(8)->classScoresSeeded({sample}, {99}),
              seeded);
    const auto best = std::max_element(seeded[0].begin(), seeded[0].end())
        - seeded[0].begin();
    EXPECT_EQ(eval->predictSeeded({sample}, {99})[0],
              static_cast<std::size_t>(best));
}

TEST(ClassScoresSeeded, BatchedEqualsSinglesForMultiLayerMlp)
{
    const auto eval = makeMlpEvaluator();
    const Plan plan = makePlan(9);

    std::vector<std::vector<double>> singles;
    for (std::size_t i = 0; i < plan.samples.size(); ++i)
        singles.push_back(eval->classScoresSeeded(
            {plan.samples[i]}, {plan.seeds[i]})[0]);

    // One megabatch, then a ragged split — every composition must
    // reproduce the singles bit-exactly.
    EXPECT_EQ(eval->classScoresSeeded(plan.samples, plan.seeds),
              singles);

    std::vector<std::vector<double>> split;
    for (std::size_t begin = 0; begin < plan.samples.size();) {
        const std::size_t take = std::min<std::size_t>(
            begin % 3 + 1, plan.samples.size() - begin);
        const std::vector<Tensor> chunk(
            plan.samples.begin() + begin,
            plan.samples.begin() + begin + take);
        const std::vector<std::uint64_t> chunkSeeds(
            plan.seeds.begin() + begin,
            plan.seeds.begin() + begin + take);
        for (auto &scores : eval->classScoresSeeded(chunk, chunkSeeds))
            split.push_back(std::move(scores));
        begin += take;
    }
    EXPECT_EQ(split, singles);
}

TEST(ClassScoresSeeded, IdenticalAcrossThreadCounts)
{
    const Plan plan = makePlan(8);
    const auto seq = makeMlpEvaluator(1);
    const auto pooled = makeMlpEvaluator(8);
    EXPECT_EQ(seq->classScoresSeeded(plan.samples, plan.seeds),
              pooled->classScoresSeeded(plan.samples, plan.seeds));
}

TEST(ClassScoresSeeded, BatchedEqualsSinglesForCnn)
{
    RandomizedCnn::Config cfg;
    cfg.inputChannels = 2;
    cfg.inputSide = 8;
    cfg.channels = {6, 8};
    cfg.poolAfter = {true, false};
    cfg.classes = 3;
    Rng rng(77);
    const RandomizedCnn cnn(cfg, AqfpBehavior{8, 2.4, 0.0},
                            aqfp::AttenuationModel(), rng);
    HardwareEvaluator eval(aqfp::AttenuationModel(),
                           HardwareConfig{8, 8, 2.4, false, 0.25, 1, 8});
    eval.mapCnn(cnn);

    std::vector<Tensor> samples;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 4; ++i) {
        samples.push_back(imageSample(2, 8, i));
        seeds.push_back(5000 + i * 3);
    }
    std::vector<std::vector<double>> singles;
    for (std::size_t i = 0; i < samples.size(); ++i)
        singles.push_back(
            eval.classScoresSeeded({samples[i]}, {seeds[i]})[0]);
    EXPECT_EQ(eval.classScoresSeeded(samples, seeds), singles);
}

TEST(ClassScoresSeeded, SeedCountMismatchThrows)
{
    const auto eval = makeMlpEvaluator();
    EXPECT_THROW(eval->classScoresSeeded({flatSample(32, 0)}, {1, 2}),
                 std::invalid_argument);
    EXPECT_TRUE(eval->classScoresSeeded({}, {}).empty());
}

namespace {

/**
 * Checks evaluate()'s contract on the evaluator @p make builds for a
 * given evalBatch: one seed per sample drawn from Rng(seed) in sample
 * order, each sample scored as predictSeeded would, so the accuracy is
 * the same at every evalBatch. The labels are set to those reference
 * predictions, so a sample whose noise was assigned any other way shows
 * up as a miss (accuracy exactly 1 otherwise).
 */
void
expectEvaluateBatchInvariant(
    data::Dataset ds,
    const std::function<std::unique_ptr<HardwareEvaluator>(std::size_t)>
        &make)
{
    const std::uint64_t seed = 2024;
    Rng seeds_rng(seed);
    std::vector<Tensor> samples;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        samples.push_back(ds.sample(i));
        seeds.push_back(seeds_rng.raw()());
    }
    ds.labels = make(1)->predictSeeded(samples, seeds);

    for (const std::size_t batch : {1, 3, 8}) {
        Rng rng(seed);
        EXPECT_EQ(make(batch)->evaluate(ds, 0, rng), 1.0)
            << "evalBatch " << batch;
    }
}

} // namespace

TEST(EvaluateSeeded, SameAccuracyAtEveryEvalBatchForMultiLayerMlp)
{
    const std::size_t n = 24;
    data::Dataset ds;
    ds.samples = Tensor(Shape{n, 32});
    for (std::size_t i = 0; i < ds.samples.size(); ++i)
        ds.samples[i] = hashedFloat(i);
    ds.labels.assign(n, 0);
    const RandomizedMlp mlp = makeTinyMlp();
    expectEvaluateBatchInvariant(ds, [&](std::size_t batch) {
        auto eval = std::make_unique<HardwareEvaluator>(
            aqfp::AttenuationModel(),
            HardwareConfig{8, 2, 2.4, false, 0.25, 1, batch});
        eval->mapMlp(mlp);
        return eval;
    });
}

TEST(EvaluateSeeded, SameAccuracyAtEveryEvalBatchForCnn)
{
    RandomizedCnn::Config cfg;
    cfg.inputChannels = 2;
    cfg.inputSide = 8;
    cfg.channels = {6, 8};
    cfg.poolAfter = {true, false};
    cfg.classes = 3;
    Rng rng(78);
    const RandomizedCnn cnn(cfg, AqfpBehavior{8, 2.4, 0.0},
                            aqfp::AttenuationModel(), rng);
    const std::size_t n = 12;
    data::Dataset ds;
    ds.samples = Tensor(Shape{n, 2, 8, 8});
    for (std::size_t i = 0; i < ds.samples.size(); ++i)
        ds.samples[i] = hashedFloat(i + 31);
    ds.labels.assign(n, 0);
    expectEvaluateBatchInvariant(ds, [&](std::size_t batch) {
        auto eval = std::make_unique<HardwareEvaluator>(
            aqfp::AttenuationModel(),
            HardwareConfig{8, 2, 2.4, false, 0.25, 1, batch});
        eval->mapCnn(cnn);
        return eval;
    });
}

// ---------------------------------------------------------------------
// Service behavior
// ---------------------------------------------------------------------

TEST(InferenceService, SingleRequestMatchesDirectPredict)
{
    const auto eval = makeMlpEvaluator();
    const Tensor sample = flatSample(32, 11);
    const std::size_t expected = eval->predictSeeded({sample}, {4242})[0];
    const auto scores = eval->classScoresSeeded({sample}, {4242})[0];

    InferenceService service(*eval, quickConfig());
    const InferenceResponse r = service.submit(sample, 4242).get();
    EXPECT_EQ(r.predicted, expected);
    EXPECT_EQ(r.scores, scores);
    EXPECT_GE(r.batchSize, 1u);
    EXPECT_EQ(r.requestId, 1u);
}

TEST(InferenceService, ResponsesInvariantUnderCoalescingAndThreads)
{
    const Plan plan = makePlan(12);
    // Reference scores from a sequential evaluator, one at a time.
    const auto reference = makeMlpEvaluator(1);
    std::vector<std::vector<double>> expected;
    for (std::size_t i = 0; i < plan.samples.size(); ++i)
        expected.push_back(reference->classScoresSeeded(
            {plan.samples[i]}, {plan.seeds[i]})[0]);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const auto eval = makeMlpEvaluator(threads);
        ServiceConfig cfg = quickConfig();
        cfg.maxQueue = 64;
        cfg.maxLingerMicros = 5000; // encourage heavy coalescing
        InferenceService service(*eval, cfg);
        std::vector<std::future<InferenceResponse>> futures;
        for (std::size_t i = 0; i < plan.samples.size(); ++i)
            futures.push_back(
                service.submit(plan.samples[i], plan.seeds[i]));
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const InferenceResponse r = futures[i].get();
            EXPECT_EQ(r.scores, expected[i])
                << "request " << i << " at threads=" << threads;
        }
        service.stop();
    }
}

TEST(InferenceService, ZeroLingerDispatchesImmediately)
{
    const auto eval = makeMlpEvaluator();
    ServiceConfig cfg = quickConfig();
    cfg.maxLingerMicros = 0;
    InferenceService service(*eval, cfg);
    // Sequential submits with no concurrency: nothing to coalesce
    // with, so every response must report a singleton batch.
    for (std::size_t i = 0; i < 4; ++i) {
        const InferenceResponse r =
            service.submit(flatSample(32, i), 100 + i).get();
        EXPECT_EQ(r.batchSize, 1u);
    }
    service.stop(); // settle the counters before reading them
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted, 4u);
    EXPECT_EQ(stats.served, 4u);
    EXPECT_EQ(stats.batches, 4u);
}

TEST(InferenceService, FullQueueRejects)
{
    const auto eval = makeMlpEvaluator();
    ServiceConfig cfg;
    cfg.maxQueue = 2;
    // A batch the queue can never fill plus a long linger parks the
    // dispatcher, so admission capacity stays pinned at maxQueue for
    // the whole test (stop() interrupts the linger; the test does not
    // wait it out).
    cfg.maxBatch = 16;
    cfg.maxLingerMicros = 500000;
    InferenceService service(*eval, cfg);

    std::vector<std::future<InferenceResponse>> futures;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < 12; ++i) {
        auto fut = service.trySubmit(flatSample(32, i), i + 1);
        if (fut)
            futures.push_back(std::move(*fut));
        else
            ++rejected;
    }
    EXPECT_GE(rejected, 10u);
    EXPECT_THROW(service.submit(flatSample(32, 0), 1), QueueFullError);
    EXPECT_EQ(service.stats().rejected,
              static_cast<std::uint64_t>(rejected) + 1);

    service.stop(); // drains the admitted requests
    for (auto &fut : futures)
        (void)fut.get(); // everything admitted was still served
    EXPECT_EQ(service.stats().served, futures.size());
}

TEST(InferenceService, StopDrainsQueuedRequests)
{
    const auto eval = makeMlpEvaluator();
    ServiceConfig cfg;
    cfg.maxQueue = 32;
    cfg.maxBatch = 16;
    cfg.maxLingerMicros = 500000; // requests park in the queue
    InferenceService service(*eval, cfg);
    std::vector<std::future<InferenceResponse>> futures;
    for (std::size_t i = 0; i < 10; ++i)
        futures.push_back(service.submit(flatSample(32, i), i + 1));
    service.stop(); // must serve all 10, not abandon them
    for (auto &fut : futures) {
        ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        (void)fut.get();
    }
    EXPECT_EQ(service.stats().served, 10u);
    EXPECT_THROW(service.submit(flatSample(32, 0), 1), ShutdownError);
    EXPECT_FALSE(service.trySubmit(flatSample(32, 0), 1).has_value());
}

TEST(InferenceService, LedgerAttributionIsExactShare)
{
    const auto eval = makeMlpEvaluator();
    const aqfp::LedgerCounts before = eval->totalLedgerCounts();

    ServiceConfig cfg = quickConfig();
    cfg.maxLingerMicros = 5000;
    InferenceService service(*eval, cfg);
    const Plan plan = makePlan(4);
    std::vector<std::future<InferenceResponse>> futures;
    for (std::size_t i = 0; i < plan.samples.size(); ++i)
        futures.push_back(
            service.submit(plan.samples[i], plan.seeds[i]));
    std::vector<InferenceResponse> responses;
    for (auto &fut : futures)
        responses.push_back(fut.get());
    service.stop();

    // The per-request shares add back up to the evaluator's totals.
    const aqfp::LedgerCounts after = eval->totalLedgerCounts();
    aqfp::LedgerCounts reconstructed = before;
    for (const InferenceResponse &r : responses) {
        EXPECT_GT(r.counts.crossbarCycles, 0u);
        // One executor pass per mapped layer + head: the summed
        // ledgers count this request 3 times (2 hidden layers + head).
        EXPECT_EQ(r.counts.samples, 3u);
        reconstructed += r.counts;
    }
    EXPECT_EQ(reconstructed, after);

    // And every rider reports the same measured per-image cost.
    for (const InferenceResponse &r : responses) {
        EXPECT_GT(r.energyAj, 0.0);
        EXPECT_GT(r.hardwareLatencyUs, 0.0);
        EXPECT_DOUBLE_EQ(r.energyAj, responses.front().energyAj);
    }
}

// ---------------------------------------------------------------------
// Socket server round trip
// ---------------------------------------------------------------------

TEST(SocketServer, RoundTripAndStats)
{
    const auto eval = makeMlpEvaluator();
    data::Dataset dataset;
    dataset.samples = Tensor(Shape{4, 32});
    dataset.labels = {0, 1, 2, 3};
    for (std::size_t i = 0; i < dataset.samples.size(); ++i)
        dataset.samples[i] = hashedFloat(i);

    InferenceService service(*eval, quickConfig());
    const std::string path = "/tmp/superbnn-serve-test.sock";
    SocketServer server(service, dataset, path);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    const auto roundTrip = [&](const std::string &req) {
        EXPECT_EQ(::write(fd, req.c_str(), req.size()),
                  static_cast<ssize_t>(req.size()));
        char buf[256];
        const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
        EXPECT_GT(n, 0);
        buf[std::max<ssize_t>(n, 0)] = '\0';
        return std::string(buf);
    };

    // The served prediction equals the direct seeded evaluation.
    const std::size_t expected =
        eval->predictSeeded({dataset.sample(2)}, {321})[0];
    const std::string ok = roundTrip("predict 2 321\n");
    std::size_t predicted = 99;
    std::size_t batch = 0;
    double energy = 0.0;
    double latency = 0.0;
    ASSERT_EQ(std::sscanf(ok.c_str(), "ok %zu %lg %lg %zu", &predicted,
                          &energy, &latency, &batch),
              4)
        << "reply: " << ok;
    EXPECT_EQ(predicted, expected);
    EXPECT_GT(energy, 0.0);
    EXPECT_GE(batch, 1u);

    EXPECT_EQ(roundTrip("predict 99 1\n"),
              "err sample index out of range\n");
    EXPECT_EQ(roundTrip("bogus\n"),
              "err bad request (want: predict <index> <seed>)\n");
    EXPECT_EQ(roundTrip("stats\n").rfind("stats ", 0), 0u);

    (void)::write(fd, "quit\n", 5);
    ::close(fd);
    server.stop();
    service.stop();
    EXPECT_EQ(service.stats().served, 1u);
}

// ---------------------------------------------------------------------
// Config knobs
// ---------------------------------------------------------------------

TEST(ServiceConfig, FromEnvParsesAndIgnoresInvalid)
{
    setenv("SUPERBNN_SERVE_MAX_BATCH", "32", 1);
    setenv("SUPERBNN_SERVE_LINGER_US", "0", 1);
    setenv("SUPERBNN_SERVE_QUEUE", "bogus", 1);
    const ServiceConfig cfg = ServiceConfig::fromEnv();
    const ServiceConfig defaults;
    EXPECT_EQ(cfg.maxBatch, 32u);
    EXPECT_EQ(cfg.maxLingerMicros, 0u); // 0 is a valid linger
    EXPECT_EQ(cfg.maxQueue, defaults.maxQueue);
    unsetenv("SUPERBNN_SERVE_MAX_BATCH");
    unsetenv("SUPERBNN_SERVE_LINGER_US");
    unsetenv("SUPERBNN_SERVE_QUEUE");
}

// ---------------------------------------------------------------------
// Attribution division contract
// ---------------------------------------------------------------------

TEST(CountsShare, ExactDivisionSplitsEveryField)
{
    aqfp::LedgerCounts batch;
    batch.samples = 12;
    batch.tileObservations = 40;
    batch.crossbarCycles = 400;
    batch.bernoulliDraws = 4000;
    batch.apcAccumulations = 44;
    batch.apcInputBits = 440;
    batch.columnGroupSteps = 48;
    batch.bufferReadBits = 480;
    batch.bufferWriteBits = 4800;
    const aqfp::LedgerCounts share = detail::countsShare(batch, 4);
    EXPECT_EQ(share.samples, 3u);
    EXPECT_EQ(share.tileObservations, 10u);
    EXPECT_EQ(share.crossbarCycles, 100u);
    EXPECT_EQ(share.bernoulliDraws, 1000u);
    EXPECT_EQ(share.apcAccumulations, 11u);
    EXPECT_EQ(share.apcInputBits, 110u);
    EXPECT_EQ(share.columnGroupSteps, 12u);
    EXPECT_EQ(share.bufferReadBits, 120u);
    EXPECT_EQ(share.bufferWriteBits, 1200u);
}

TEST(CountsShare, NonDivisibleFieldIsACheckedError)
{
    // A remainder means another evaluation stream recorded into the
    // ledgers during the snapshot window — previously only an assert,
    // i.e. silent corruption in release builds. Now a real error.
    aqfp::LedgerCounts batch;
    batch.samples = 8;
    batch.tileObservations = 17; // not divisible by 4
    EXPECT_THROW(detail::countsShare(batch, 4), std::invalid_argument);
    try {
        detail::countsShare(batch, 4);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("tileObservations"),
                  std::string::npos)
            << "error must name the offending field: " << e.what();
    }
}

TEST(CountsShare, ZeroBatchSizeRejected)
{
    EXPECT_THROW(detail::countsShare(aqfp::LedgerCounts{}, 0),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Connection lifecycle regressions
// ---------------------------------------------------------------------

namespace {

/** Blocking connect to the server's Unix socket; asserts on failure. */
int
connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

/** Spin until the server's live-connection count drops to @p want. */
bool
waitForLiveConnections(const SocketServer &server, std::size_t want)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.liveConnections() != want) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

} // namespace

TEST(SocketServer, ConnectionChurnThenStopIsClean)
{
    // Regression: the connection registry used to only ever grow, so a
    // churny client pushed it toward an fd/thread leak and stop()
    // would shutdown() descriptors that were closed long ago — and
    // possibly reused by the kernel for something else entirely.
    // Handlers now self-retire (deregister, THEN close), so the live
    // count returns to zero between clients and stop() only ever
    // touches genuinely open sockets. Run under TSan/ASan in CI.
    const auto eval = makeMlpEvaluator();
    data::Dataset dataset;
    dataset.samples = Tensor(Shape{2, 32});
    dataset.labels = {0, 1};
    for (std::size_t i = 0; i < dataset.samples.size(); ++i)
        dataset.samples[i] = hashedFloat(i);

    InferenceService service(*eval, quickConfig());
    const std::string path = "/tmp/superbnn-churn-test.sock";
    SocketServer server(service, dataset, path);

    for (int round = 0; round < 24; ++round) {
        const int fd = connectUnix(path);
        if (round % 3 == 0) {
            // A polite client: predict, then quit.
            const std::string req = "predict 0 7\n";
            ASSERT_EQ(::write(fd, req.c_str(), req.size()),
                      static_cast<ssize_t>(req.size()));
            char buf[256];
            ASSERT_GT(::read(fd, buf, sizeof(buf)), 0);
            (void)::write(fd, "quit\n", 5);
        }
        // The rest hang up without a word (or right after the reply).
        ::close(fd);
        ASSERT_TRUE(waitForLiveConnections(server, 0))
            << "round " << round << ": handler never retired, "
            << server.liveConnections() << " connections still live";
    }

    // A few connections left open across stop(): it must hang them
    // up, join every handler, and return without touching stale fds.
    const int open1 = connectUnix(path);
    const int open2 = connectUnix(path);
    EXPECT_TRUE(waitForLiveConnections(server, 2));
    server.stop();
    ::close(open1);
    ::close(open2);
    EXPECT_EQ(server.liveConnections(), 0u);
    service.stop();
}

TEST(SocketServer, ClientHangupMidReplySurvives)
{
    // Regression: replies went out via write(), so a client that
    // disconnected before reading killed the whole process with
    // SIGPIPE. send(MSG_NOSIGNAL) turns that into EPIPE, which the
    // handler treats as a clean hangup. This test pipelines a burst
    // of requests and slams the connection shut, then proves the
    // server is still alive by serving a fresh client.
    const auto eval = makeMlpEvaluator();
    data::Dataset dataset;
    dataset.samples = Tensor(Shape{2, 32});
    dataset.labels = {0, 1};
    for (std::size_t i = 0; i < dataset.samples.size(); ++i)
        dataset.samples[i] = hashedFloat(i);

    InferenceService service(*eval, quickConfig());
    const std::string path = "/tmp/superbnn-hangup-test.sock";
    SocketServer server(service, dataset, path);

    for (int round = 0; round < 4; ++round) {
        const int fd = connectUnix(path);
        std::string burst;
        for (int i = 0; i < 16; ++i)
            burst += "predict 0 " + std::to_string(round * 16 + i) + "\n";
        ASSERT_EQ(::write(fd, burst.c_str(), burst.size()),
                  static_cast<ssize_t>(burst.size()));
        // Hang up without reading a byte: the handler's sends now hit
        // a closed peer mid-burst.
        ::close(fd);
        ASSERT_TRUE(waitForLiveConnections(server, 0)) << "round "
                                                       << round;
    }

    // The process (and the server) survived; a new client is served.
    const int fd = connectUnix(path);
    const std::string req = "predict 1 99\n";
    ASSERT_EQ(::write(fd, req.c_str(), req.size()),
              static_cast<ssize_t>(req.size()));
    char buf[256];
    const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
    ASSERT_GT(n, 0);
    buf[n] = '\0';
    EXPECT_EQ(std::string(buf).rfind("ok ", 0), 0u) << buf;
    (void)::write(fd, "quit\n", 5);
    ::close(fd);
    server.stop();
    service.stop();
}

TEST(SocketServer, OverlongLineIsRefusedAndClosed)
{
    // Regression: a client streaming bytes with no newline grew the
    // handler's buffer without bound and rescanned all of it on every
    // read. Lines are now capped: past the cap the server replies
    // "err line too long" and hangs up.
    const auto eval = makeMlpEvaluator();
    data::Dataset dataset;
    dataset.samples = Tensor(Shape{2, 32});
    dataset.labels = {0, 1};
    for (std::size_t i = 0; i < dataset.samples.size(); ++i)
        dataset.samples[i] = hashedFloat(i);

    InferenceService service(*eval, quickConfig());
    const std::string path = "/tmp/superbnn-longline-test.sock";
    SocketServer server(service, dataset, path);

    const int fd = connectUnix(path);
    // Fail instead of hanging if the server never answers.
    timeval timeout{};
    timeout.tv_sec = 10;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    // The server may hang up mid-stream, so send without SIGPIPE and
    // stop at the first error.
    const std::string flood(64 * 1024, 'x');
    std::size_t sent = 0;
    while (sent < flood.size()) {
        const ssize_t n = ::send(fd, flood.data() + sent,
                                 flood.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }

    const std::string want = "err line too long\n";
    std::string reply;
    char buf[64];
    while (reply.size() < want.size()) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        ASSERT_GT(n, 0) << "no reply; got \"" << reply << "\"";
        reply.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(reply, want);
    // Then end of stream. A Unix socket closed with unread bytes still
    // queued reports that as ECONNRESET, which is a hangup all the same.
    const ssize_t end = ::read(fd, buf, sizeof(buf));
    EXPECT_TRUE(end == 0 || (end < 0 && errno == ECONNRESET))
        << "read returned " << end << ", errno " << errno;
    EXPECT_TRUE(waitForLiveConnections(server, 0));

    ::close(fd);
    server.stop();
    service.stop();
}
