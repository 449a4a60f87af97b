/**
 * @file
 * Tests for the threaded, batched tile-execution path: the thread pool
 * itself (including cross-pool nesting and the chunked scheduler), the
 * process-wide shared pool and its SUPERBNN_THREADS resolution point,
 * the BitstreamBatch packing, the counter-based batched crossbar
 * observe, and the executor's two exactness contracts — bit-identical
 * outputs at any thread count, and batch-of-N identical to N
 * single-sample forwards.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>


#include "crossbar/crossbar_array.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "energy_ledger_util.h"
#include "sc/accumulation.h"
#include "sc/bitstream_batch.h"
#include "util/executor_pool.h"
#include "util/thread_pool.h"

using namespace superbnn;
using namespace superbnn::crossbar;
using energy_ledger_util::drawRoots;

namespace {

aqfp::AttenuationModel
atten()
{
    return aqfp::AttenuationModel();
}

Tensor
randomSignedMatrix(std::size_t out, std::size_t in, Rng &rng)
{
    Tensor w({out, in});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    return w;
}

std::vector<int>
randomActs(std::size_t n, Rng &rng)
{
    std::vector<int> acts(n);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    return acts;
}

/** A multi-tile layer (3 row tiles x 3 col tiles at cs = 8). */
MappedLayer
makeLayer(Rng &rng, std::vector<double> thresholds = {})
{
    const CrossbarMapper mapper(8, atten(), 2.4);
    MappedLayer layer = mapper.map(randomSignedMatrix(20, 24, rng));
    if (thresholds.empty())
        thresholds.assign(20, 0.0);
    CrossbarMapper::setThresholds(layer, thresholds);
    return layer;
}

} // namespace

// --- thread pool ---

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ReusableAcrossJobs)
{
    util::ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(17, [&](std::size_t) { sum.fetch_add(1); });
        EXPECT_EQ(sum.load(), 17);
    }
}

TEST(ThreadPoolTest, EmptyAndSingleElementLoops)
{
    util::ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsInline)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::vector<int> hits(100, 0);
    pool.parallelFor(100, [&](std::size_t i) { hits[i]++; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, PropagatesFirstException)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must survive a throwing job.
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPoolTest, NestedCallsRunInline)
{
    util::ThreadPool pool(4);
    std::atomic<int> inner{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(4, [&](std::size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPoolTest, IndependentPoolsNestInParallel)
{
    // Regression: the inline guard used to be process-global, so a
    // parallelFor on pool B from inside pool A's body ran fully inline
    // — serializing independent executors. The guard is now scoped to
    // the owning pool; prove the inner loop is really dispatched by
    // requiring its two indices to be in flight concurrently (an
    // inline run executes them one after the other and times out).
    util::ThreadPool outer(2);
    util::ThreadPool inner(2);
    std::atomic<int> arrived{0};
    std::atomic<int> saw_both{0};
    outer.parallelFor(2, [&](std::size_t i) {
        if (i != 0)
            return;
        inner.parallelFor(2, [&](std::size_t) {
            arrived.fetch_add(1);
            const auto deadline = std::chrono::steady_clock::now()
                + std::chrono::seconds(20);
            // Every index must itself observe the other one in flight
            // before returning: under an inline (serialized) run the
            // first index can never see arrived == 2 and times out, so
            // saw_both stays below 2 and the test fails.
            while (arrived.load() < 2
                   && std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            if (arrived.load() == 2)
                saw_both.fetch_add(1);
        });
    });
    EXPECT_EQ(arrived.load(), 2);
    EXPECT_EQ(saw_both.load(), 2)
        << "inner pool ran inline from inside the outer pool's body";
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnv)
{
    setenv("SUPERBNN_THREADS", "3", 1);
    EXPECT_EQ(util::ThreadPool::defaultThreadCount(), 3u);
    // Invalid values (garbage, zero, trailing junk) fall back to the
    // hardware count with a one-line stderr notice — never 0 threads,
    // and never a silent partial parse of "4x" as 4.
    setenv("SUPERBNN_THREADS", "not-a-number", 1);
    EXPECT_GE(util::ThreadPool::defaultThreadCount(), 1u);
    setenv("SUPERBNN_THREADS", "0", 1);
    EXPECT_GE(util::ThreadPool::defaultThreadCount(), 1u);
    setenv("SUPERBNN_THREADS", "4x", 1);
    const std::size_t hw = std::thread::hardware_concurrency() == 0
        ? 1
        : std::thread::hardware_concurrency();
    EXPECT_EQ(util::ThreadPool::defaultThreadCount(), hw);
    // A valid value after an invalid one takes effect again.
    setenv("SUPERBNN_THREADS", "6", 1);
    EXPECT_EQ(util::ThreadPool::defaultThreadCount(), 6u);
    unsetenv("SUPERBNN_THREADS");
    EXPECT_GE(util::ThreadPool::defaultThreadCount(), 1u);
}

// --- process-wide executor pool ---

/**
 * Saves and restores SUPERBNN_THREADS around each test and drops the
 * shared pool, so each test starts (and the suite ends) at the
 * caller's setting.
 */
class ExecutorPoolTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        save("SUPERBNN_THREADS");
        util::ExecutorPool::reset();
    }

    void TearDown() override
    {
        for (const auto &kv : saved_) {
            if (kv.second.first)
                setenv(kv.first.c_str(), kv.second.second.c_str(), 1);
            else
                unsetenv(kv.first.c_str());
        }
        util::ExecutorPool::reset();
    }

  private:
    void save(const char *name)
    {
        const char *v = std::getenv(name);
        saved_[name] = {v != nullptr, v ? v : ""};
    }

    std::map<std::string, std::pair<bool, std::string>> saved_;
};

TEST_F(ExecutorPoolTest, SharedPoolIsProcessWideAndPinnedAtFirstUse)
{
    setenv("SUPERBNN_THREADS", "3", 1);
    util::ExecutorPool::reset();
    const auto a = util::ExecutorPool::shared();
    const auto b = util::ExecutorPool::shared();
    EXPECT_EQ(a.get(), b.get()); // one pool for the whole process
    EXPECT_EQ(a->threadCount(), 3u);

    // Resolution point: SUPERBNN_THREADS was read when the pool was
    // first created; changing it afterwards is ignored...
    setenv("SUPERBNN_THREADS", "5", 1);
    EXPECT_EQ(util::ExecutorPool::shared()->threadCount(),
              3u);
    // ...including by executors attaching later with threads == 0.
    TileExecutor exec(8);
    EXPECT_EQ(exec.threads(), 3u);

    // reset() drops the pool; the next shared() re-reads the
    // environment. Executors holding the old pool keep it until they
    // are reconfigured.
    util::ExecutorPool::reset();
    EXPECT_EQ(util::ExecutorPool::shared()->threadCount(),
              5u);
    EXPECT_EQ(exec.threads(), 3u);
    exec.setThreads(0);
    EXPECT_EQ(exec.threads(), 5u);
}

TEST_F(ExecutorPoolTest, ExplicitThreadCountsBypassTheSharedPool)
{
    setenv("SUPERBNN_THREADS", "3", 1);
    util::ExecutorPool::reset();
    TileExecutor exec(8, false, 0.25, 4);
    EXPECT_EQ(exec.threads(), 4u); // private pool, env ignored
    exec.setThreads(1);
    EXPECT_EQ(exec.threads(), 1u); // sequential, no pool at all
}

TEST_F(ExecutorPoolTest, SharedPoolRunsExecutorsCorrectly)
{
    // A forward through the shared pool must match the sequential
    // reference bit for bit (the thread-count invariance contract,
    // exercised specifically on the default shared-pool path).
    setenv("SUPERBNN_THREADS", "4", 1);
    util::ExecutorPool::reset();
    Rng setup(47);
    const MappedLayer layer = makeLayer(setup);
    const std::vector<int> acts = randomActs(24, setup);
    TileExecutor exec(16, false, 0.25, 1);
    const std::uint64_t root = Rng(55).raw()();
    const auto ref = exec.forwardSeeded(layer, {acts}, {root});
    exec.setThreads(0); // attach to the 4-thread shared pool
    ASSERT_EQ(exec.threads(), 4u);
    EXPECT_EQ(exec.forwardSeeded(layer, {acts}, {root}), ref);
}

// --- BitstreamBatch ---

TEST(BitstreamBatchTest, BernoulliMatchesPerSampleBitstream)
{
    const std::size_t window = 131; // multi-word with masked tail
    const std::vector<double> probs = {0.0, 0.31, 0.5, 0.77, 1.0};
    std::vector<Rng> batch_rngs;
    for (std::size_t b = 0; b < probs.size(); ++b)
        batch_rngs.emplace_back(1000 + b);
    const auto batch =
        sc::BitstreamBatch::bernoulli(window, probs, batch_rngs);
    ASSERT_EQ(batch.batch(), probs.size());
    EXPECT_EQ(batch.length(), window);

    for (std::size_t b = 0; b < probs.size(); ++b) {
        Rng solo(1000 + b);
        const sc::Bitstream ref =
            sc::Bitstream::bernoulli(window, probs[b], solo);
        const sc::Bitstream got = batch.stream(b);
        ASSERT_EQ(got.length(), ref.length());
        EXPECT_EQ(got.words(), ref.words()) << "sample " << b;
        EXPECT_EQ(batch.popcount(b), ref.popcount());
        EXPECT_DOUBLE_EQ(batch.decode(b, sc::Encoding::Bipolar),
                         ref.decode(sc::Encoding::Bipolar));
    }
}

TEST(BitstreamBatchTest, AssignRoundTripsAndChecksLength)
{
    Rng rng(5);
    sc::BitstreamBatch batch(3, 70);
    const sc::Bitstream s = sc::Bitstream::bernoulli(70, 0.4, rng);
    batch.assign(1, s);
    EXPECT_EQ(batch.stream(1).words(), s.words());
    EXPECT_EQ(batch.popcount(0), 0u); // untouched samples stay zero
    const sc::Bitstream wrong = sc::Bitstream::bernoulli(64, 0.4, rng);
    EXPECT_THROW(batch.assign(0, wrong), std::invalid_argument);
}

TEST(BitstreamBatchTest, BernoulliRejectsMismatchedRngs)
{
    std::vector<Rng> rngs;
    rngs.emplace_back(1);
    EXPECT_THROW(
        sc::BitstreamBatch::bernoulli(16, {0.5, 0.5}, rngs),
        std::invalid_argument);
}

// --- batched crossbar observe ---

TEST(CrossbarBatchTest, ColumnSumsBatchMatchesPerSample)
{
    Rng rng(21);
    CrossbarArray xbar(6, atten(), 2.4);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            xbar.programCell(r, c, rng.bernoulli(0.5) ? 1 : -1);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 4; ++b)
        batch.push_back(randomActs(6, rng));
    const std::vector<int> flat = xbar.columnSumsBatch(batch);
    ASSERT_EQ(flat.size(), 4u * 6u);
    for (std::size_t b = 0; b < 4; ++b) {
        const std::vector<int> one = xbar.columnSums(batch[b]);
        for (std::size_t c = 0; c < 6; ++c)
            EXPECT_EQ(flat[b * 6 + c], one[c]) << b << "," << c;
    }
}

TEST(CrossbarBatchTest, ObserveBatchMatchesPerSampleObserve)
{
    Rng rng(22);
    CrossbarArray xbar(5, atten(), 2.4);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            xbar.programCell(r, c, rng.bernoulli(0.5) ? 1 : -1);
    const std::size_t window = 33;
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 3; ++b)
        batch.push_back(randomActs(5, rng));

    std::vector<Rng> batch_rngs;
    for (std::size_t b = 0; b < batch.size(); ++b)
        batch_rngs.emplace_back(500 + b);
    const auto observed = xbar.observeBatch(batch, window, batch_rngs);
    ASSERT_EQ(observed.size(), 5u);

    for (std::size_t b = 0; b < batch.size(); ++b) {
        Rng solo(500 + b);
        const auto ref = xbar.observe(batch[b], window, solo);
        for (std::size_t c = 0; c < 5; ++c)
            EXPECT_EQ(observed[c].stream(b).words(), ref[c].words())
                << "sample " << b << " column " << c;
    }
}

TEST(CrossbarBatchTest, ObserveBatchSeededUsesColumnMajorCounterLayout)
{
    Rng rng(23);
    CrossbarArray xbar(4, atten(), 2.4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            xbar.programCell(r, c, rng.bernoulli(0.5) ? 1 : -1);
    const std::size_t window = 67; // multi-word, masked tail
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 3; ++b)
        batch.push_back(randomActs(4, rng));
    const std::vector<std::uint64_t> seeds = {11, 22, 33};

    // The seeded observe contract: sample b's column c is the
    // counter-stream fill of seeds[b] at raw-draw base c * window —
    // every column at a fixed offset of one counter space, independent
    // of the other columns' probabilities.
    const auto seeded = xbar.observeBatchSeeded(batch, window, seeds);
    ASSERT_EQ(seeded.size(), 4u);
    for (std::size_t b = 0; b < batch.size(); ++b) {
        const auto probs = xbar.columnProbabilities(batch[b]);
        for (std::size_t c = 0; c < 4; ++c) {
            std::vector<std::uint64_t> want(
                sc::detail::wordsForLength(window));
            sc::detail::CounterStream stream{seeds[b], c * window};
            sc::detail::bernoulliFill(want.data(), window, probs[c],
                                      stream);
            EXPECT_EQ(seeded[c].stream(b).words(), want)
                << "column " << c << " sample " << b;
            EXPECT_EQ(stream.counter, (c + 1) * window);
        }
    }

    // Pure function of (state, seeds): a second observation is
    // bit-identical.
    const auto again = xbar.observeBatchSeeded(batch, window, seeds);
    for (std::size_t c = 0; c < 4; ++c)
        for (std::size_t b = 0; b < batch.size(); ++b)
            EXPECT_EQ(again[c].stream(b).words(),
                      seeded[c].stream(b).words())
                << "column " << c << " sample " << b;
}

// --- view-based accumulation ---

TEST(AccumulationViewTest, ViewOverloadsMatchPointerOverloads)
{
    Rng rng(31);
    const std::size_t tiles = 5, window = 77;
    std::vector<sc::Bitstream> streams;
    std::vector<const sc::Bitstream *> ptrs;
    std::vector<sc::StreamView> views;
    for (std::size_t t = 0; t < tiles; ++t)
        streams.push_back(sc::Bitstream::bernoulli(
            window, 0.2 + 0.15 * static_cast<double>(t), rng));
    for (const auto &s : streams) {
        ptrs.push_back(&s);
        views.push_back(sc::viewOf(s));
    }
    for (const bool exact : {true, false}) {
        const sc::AccumulationModule mod(tiles, window, exact, 0.5);
        EXPECT_EQ(mod.rawCount(views), mod.rawCount(ptrs));
        EXPECT_EQ(mod.accumulate(views), mod.accumulate(ptrs));
        EXPECT_DOUBLE_EQ(mod.decodedSum(views), mod.decodedSum(ptrs));
    }
}

// --- threaded executor exactness ---

TEST(ThreadedExecutorTest, BitExactAcrossThreadCounts)
{
    Rng setup(41);
    const MappedLayer layer = makeLayer(setup);
    const std::vector<int> acts = randomActs(24, setup);

    TileExecutor exec(16, false, 0.5, 1);
    const std::uint64_t root = Rng(123).raw()();
    const std::uint64_t dec_root = Rng(321).raw()();
    const auto ref = exec.forwardSeeded(layer, {acts}, {root});
    const auto ref_dec =
        exec.forwardDecodedSeeded(layer, {acts}, {dec_root});

    for (const std::size_t threads : {2u, 8u}) {
        exec.setThreads(threads);
        EXPECT_EQ(exec.threads(), threads);
        EXPECT_EQ(exec.forwardSeeded(layer, {acts}, {root}), ref)
            << threads << " threads";
        EXPECT_EQ(exec.forwardDecodedSeeded(layer, {acts}, {dec_root}),
                  ref_dec)
            << threads << " threads";
    }
}

TEST(ThreadedExecutorTest, BatchOfNEqualsNSingleForwards)
{
    Rng setup(42);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 5; ++b)
        batch.push_back(randomActs(24, setup));

    const TileExecutor exec(8, true, 0.0, 4);
    Rng root_rng(99);
    const auto roots = drawRoots(root_rng, batch.size());
    const auto batched = exec.forwardSeeded(layer, batch, roots);
    ASSERT_EQ(batched.size(), batch.size());

    for (std::size_t b = 0; b < batch.size(); ++b)
        EXPECT_EQ(exec.forwardSeeded(layer, {batch[b]}, {roots[b]})[0],
                  batched[b])
            << "sample " << b;
}

TEST(ThreadedExecutorTest, DecodedBatchEqualsSingles)
{
    Rng setup(43);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 4; ++b)
        batch.push_back(randomActs(24, setup));

    const TileExecutor exec(16, false, 0.25, 2);
    Rng root_rng(77);
    const auto roots = drawRoots(root_rng, batch.size());
    const auto batched = exec.forwardDecodedSeeded(layer, batch, roots);

    for (std::size_t b = 0; b < batch.size(); ++b) {
        const auto one =
            exec.forwardDecodedSeeded(layer, {batch[b]}, {roots[b]})[0];
        ASSERT_EQ(one.size(), batched[b].size());
        for (std::size_t o = 0; o < one.size(); ++o)
            EXPECT_DOUBLE_EQ(batched[b][o], one[o])
                << "sample " << b << " output " << o;
    }
}

TEST(ThreadedExecutorTest, BatchResultIndependentOfThreadCount)
{
    Rng setup(44);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 6; ++b)
        batch.push_back(randomActs(24, setup));

    TileExecutor exec(16, false, 0.5, 1);
    Rng root_rng(7);
    const auto roots = drawRoots(root_rng, batch.size());
    const auto ref = exec.forwardSeeded(layer, batch, roots);
    for (const std::size_t threads : {2u, 8u}) {
        exec.setThreads(threads);
        EXPECT_EQ(exec.forwardSeeded(layer, batch, roots), ref)
            << threads << " threads";
    }
}

TEST(ThreadedExecutorTest, EmptyBatchIsANoOp)
{
    Rng setup(45);
    const MappedLayer layer = makeLayer(setup);
    const TileExecutor exec(4);
    aqfp::HardwareLedger ledger;
    EXPECT_TRUE(exec.forwardSeeded(layer, {}, {}, &ledger).empty());
    EXPECT_TRUE(
        exec.forwardDecodedSeeded(layer, {}, {}, &ledger).empty());
    // An empty batch must not record any hardware activity.
    EXPECT_EQ(ledger.totals(), aqfp::LedgerCounts{});
}

TEST(ThreadedExecutorTest, RootCountMustMatchBatchSize)
{
    Rng setup(49);
    const MappedLayer layer = makeLayer(setup);
    const TileExecutor exec(8, false, 0.25, 1);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 3; ++b)
        batch.push_back(randomActs(24, setup));
    for (const std::size_t n : {0u, 2u, 4u}) {
        const std::vector<std::uint64_t> roots(n, 1);
        EXPECT_THROW(exec.forwardSeeded(layer, batch, roots),
                     std::invalid_argument)
            << n << " roots";
        EXPECT_THROW(exec.forwardDecodedSeeded(layer, batch, roots),
                     std::invalid_argument)
            << n << " roots";
    }
}

TEST(ThreadedExecutorTest, MisSizedSampleThrowsBeforeAnyWork)
{
    // A sample shorter than the mapped fan-in would be read past its
    // end by the tile slicing; a longer one would be silently
    // truncated. Both must be refused, in Release builds too, before
    // anything is observed or recorded.
    Rng setup(50);
    const MappedLayer layer = makeLayer(setup);
    const TileExecutor exec(8, false, 0.25, 2);
    for (const std::size_t length : {3u, 23u, 25u, 200u}) {
        const std::vector<std::vector<int>> batch = {
            randomActs(24, setup), randomActs(length, setup)};
        const std::vector<std::uint64_t> roots = {1, 2};
        aqfp::HardwareLedger ledger;
        EXPECT_THROW(exec.forwardSeeded(layer, batch, roots, &ledger),
                     std::invalid_argument)
            << "length " << length;
        EXPECT_THROW(
            exec.forwardDecodedSeeded(layer, batch, roots, &ledger),
            std::invalid_argument)
            << "length " << length;
        EXPECT_EQ(ledger.totals(), aqfp::LedgerCounts{});
    }
}

TEST(ThreadedExecutorTest, PermutedBatchPermutesOutputs)
{
    // Batch-makeup independence at the executor layer: reordering the
    // samples together with their roots reorders the outputs and
    // leaves the ledger totals unchanged.
    Rng setup(51);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 5; ++b)
        batch.push_back(randomActs(24, setup));
    Rng root_rng(52);
    const auto roots = drawRoots(root_rng, batch.size());
    const std::vector<std::size_t> perm = {3, 0, 4, 1, 2};
    std::vector<std::vector<int>> permuted;
    std::vector<std::uint64_t> permuted_roots;
    for (const std::size_t p : perm) {
        permuted.push_back(batch[p]);
        permuted_roots.push_back(roots[p]);
    }

    const TileExecutor exec(16, false, 0.25, 4);
    aqfp::HardwareLedger led, permuted_led;
    const auto out = exec.forwardSeeded(layer, batch, roots, &led);
    const auto dec = exec.forwardDecodedSeeded(layer, batch, roots, &led);
    const auto out_p = exec.forwardSeeded(layer, permuted,
                                          permuted_roots, &permuted_led);
    const auto dec_p = exec.forwardDecodedSeeded(
        layer, permuted, permuted_roots, &permuted_led);
    for (std::size_t i = 0; i < perm.size(); ++i) {
        EXPECT_EQ(out_p[i], out[perm[i]]) << "position " << i;
        EXPECT_EQ(dec_p[i], dec[perm[i]]) << "position " << i;
    }
    EXPECT_EQ(permuted_led.totals(), led.totals());
}

TEST(ThreadedExecutorTest, LedgerTotalsSurviveThreadReconfiguration)
{
    // The hardware ledger must report identical totals through every
    // concurrency path one executor can be switched between —
    // sequential, a private pool, and the process-wide shared pool.
    Rng setup(48);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 5; ++b)
        batch.push_back(randomActs(24, setup));

    TileExecutor exec(16, false, 0.25, 1);
    aqfp::LedgerCounts ref;
    Rng root_rng(12);
    const auto roots = drawRoots(root_rng, batch.size());
    {
        aqfp::HardwareLedger ledger;
        exec.forwardSeeded(layer, batch, roots, &ledger);
        ref = ledger.totals();
        EXPECT_EQ(ref.samples, 5u);
    }
    exec.setThreads(3);
    {
        aqfp::HardwareLedger ledger;
        exec.forwardSeeded(layer, batch, roots, &ledger);
        EXPECT_EQ(ledger.totals(), ref);
    }
    exec.setThreads(0); // shared pool
    {
        aqfp::HardwareLedger ledger;
        exec.forwardSeeded(layer, batch, roots, &ledger);
        EXPECT_EQ(ledger.totals(), ref);
    }
}

TEST(ThreadedExecutorTest, StochasticQualityUnchangedByThreading)
{
    // The threaded path must still converge to the latent sign — a
    // sanity check that per-tile seeding did not break the statistics.
    Rng setup(46);
    const MappedLayer layer = makeLayer(setup);
    const std::vector<int> acts = randomActs(24, setup);
    const TileExecutor exec(32, true, 0.0, 4);
    const auto sums = exec.latentSums(layer, acts);

    Rng rng(8);
    std::vector<int> agree(20, 0);
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
        const auto outs =
            exec.forwardSeeded(layer, {acts}, {rng.raw()()})[0];
        for (std::size_t o = 0; o < 20; ++o)
            if ((sums[o] >= 0) == (outs[o] == 1))
                ++agree[o];
    }
    for (std::size_t o = 0; o < 20; ++o)
        if (std::abs(sums[o]) >= 4.0)
            EXPECT_GT(agree[o], trials * 3 / 4)
                << "output " << o << " latent " << sums[o];
}
