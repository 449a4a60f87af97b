/**
 * @file
 * Tests of the counter-based Bernoulli generator: the SplitMix64
 * counter scheme against an independent bit-level reference on every
 * SIMD arm, threshold edge cases (p just below 1, p at 2^-64 scale,
 * exact 0/1 with tail words), the position-stability and draw-count
 * contracts of sc::detail::bernoulliFill, and end-to-end executor
 * determinism across thread counts and dispatch arms.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "aqfp/attenuation.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "energy_ledger_util.h"
#include "sc/bitstream.h"
#include "simd/kernels.h"
#include "simd_test_util.h"
#include "tensor/random.h"

namespace {

using namespace superbnn;

/// Word-boundary edge lengths shared with the other differential suites.
const std::size_t kLengths[] = {1, 63, 64, 65, 127, 128, 129, 1000};

using superbnn::test::ArmRestore;

/**
 * Independent reimplementation of the documented counter scheme (see
 * simd::KernelSet::generateThresholdWords): draw k is the SplitMix64
 * finalizer of seed + (k+1) * gamma. Written out here so the tests pin
 * the *specification*, not whatever the kernels happen to compute.
 */
std::uint64_t
referenceDraw(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t x = seed + (k + 1) * 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::vector<std::uint64_t>
referenceWords(std::size_t length, std::uint64_t seed,
               std::uint64_t counter, std::uint64_t threshold)
{
    std::vector<std::uint64_t> words((length + 63) / 64, 0);
    for (std::size_t i = 0; i < length; ++i)
        if (referenceDraw(seed, counter + i) < threshold)
            words[i / 64] |= std::uint64_t{1} << (i % 64);
    return words;
}

std::uint64_t
thresholdFor(double p)
{
    return static_cast<std::uint64_t>(std::ldexp(p, 64));
}

TEST(CounterKernel, MatchesBitReferenceOnEveryArm)
{
    const std::uint64_t seeds[] = {0, 1, 0x5eedcafeULL,
                                   ~std::uint64_t{0}};
    // The last counter makes (counter + i) wrap past 2^64 mid-stream;
    // unsigned wraparound is part of the scheme.
    const std::uint64_t counters[] = {0, 1, 63, 64, 1000003,
                                      ~std::uint64_t{0} - 100};
    const std::uint64_t thresholds[] = {
        0,
        1,
        std::uint64_t{1} << 32,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0},
    };
    for (const std::size_t length : kLengths) {
        for (const std::uint64_t seed : seeds) {
            for (const std::uint64_t counter : counters) {
                for (const std::uint64_t threshold : thresholds) {
                    const auto want = referenceWords(length, seed,
                                                     counter, threshold);
                    for (const simd::Arm arm : simd::availableArms()) {
                        std::vector<std::uint64_t> got(want.size(),
                                                       ~std::uint64_t{0});
                        simd::kernelsFor(arm)->generateThresholdWords(
                            got.data(), length, seed, counter,
                            threshold);
                        EXPECT_EQ(got, want)
                            << simd::armName(arm) << " length " << length
                            << " seed " << seed << " counter " << counter
                            << " threshold " << threshold;
                    }
                }
            }
        }
    }
}

TEST(CounterFill, ThresholdEdgeJustBelowOne)
{
    // p = nextafter(1, 0) is the largest double below 1: threshold
    // 2^64 - 2^11, so a bit is 0 with probability 2^-53 — over 4096
    // bits the stream is all-ones except with probability ~5e-13, and
    // the exact words must still match the reference bit-for-bit.
    ArmRestore restore;
    const double p = std::nextafter(1.0, 0.0);
    const std::uint64_t threshold = thresholdFor(p);
    EXPECT_EQ(threshold, ~std::uint64_t{0} - 0x7FF);
    const std::size_t length = 4096 + 13; // tail word too
    const auto want = referenceWords(length, 77, 0, threshold);
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        sc::detail::CounterStream stream{77, 0};
        std::vector<std::uint64_t> got((length + 63) / 64);
        sc::detail::bernoulliFill(got.data(), length, p, stream);
        EXPECT_EQ(got, want) << simd::armName(arm);
        EXPECT_EQ(stream.counter, length);
        // Not the constant-fill path: this is a genuine stochastic
        // stream that happens to be extremely dense.
        std::size_t ones = 0;
        for (const std::uint64_t w : got)
            ones += static_cast<std::size_t>(__builtin_popcountll(w));
        EXPECT_EQ(ones, length) << "astronomically unlikely zero bit";
    }
}

TEST(CounterFill, ThresholdEdgeNearZeroScale)
{
    // p = 2^-64 maps to threshold 1: a bit fires only when the raw
    // draw is exactly 0 (probability 2^-64 — none expected in 4096
    // bits except with probability ~2e-16).
    ArmRestore restore;
    const double p = std::ldexp(1.0, -64);
    ASSERT_EQ(thresholdFor(p), 1u);
    const std::size_t length = 4096 + 13;
    const auto want = referenceWords(length, 78, 0, 1);
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        sc::detail::CounterStream stream{78, 0};
        std::vector<std::uint64_t> got((length + 63) / 64,
                                       ~std::uint64_t{0});
        sc::detail::bernoulliFill(got.data(), length, p, stream);
        EXPECT_EQ(got, want) << simd::armName(arm);
        for (const std::uint64_t w : got)
            EXPECT_EQ(w, 0u) << "astronomically unlikely one bit";
    }
    // One notch up, 2^-63, still generates through the counter kernel
    // with threshold 2.
    EXPECT_EQ(thresholdFor(std::ldexp(1.0, -63)), 2u);
}

TEST(CounterFill, ExactZeroAndOneWithTailWords)
{
    ArmRestore restore;
    for (const std::size_t length : {65u, 129u}) {
        for (const simd::Arm arm : simd::availableArms()) {
            ASSERT_TRUE(simd::setActiveArm(arm));
            const std::size_t words = (length + 63) / 64;
            // p = 0: all words zero; counter still advances.
            sc::detail::CounterStream zs{91, 7};
            std::vector<std::uint64_t> zero(words, ~std::uint64_t{0});
            sc::detail::bernoulliFill(zero.data(), length, 0.0, zs);
            EXPECT_EQ(zs.counter, 7 + length);
            for (const std::uint64_t w : zero)
                EXPECT_EQ(w, 0u) << simd::armName(arm);
            // p = 1: all in-range bits one, tail bits zero; counter
            // advances identically.
            sc::detail::CounterStream os{91, 7};
            std::vector<std::uint64_t> ones(words, 0);
            sc::detail::bernoulliFill(ones.data(), length, 1.0, os);
            EXPECT_EQ(os.counter, 7 + length);
            for (std::size_t w = 0; w + 1 < words; ++w)
                EXPECT_EQ(ones[w], ~std::uint64_t{0});
            EXPECT_EQ(ones.back(),
                      (std::uint64_t{1} << (length % 64)) - 1)
                << simd::armName(arm);
        }
    }
}

TEST(CounterFill, PositionStability)
{
    // A stream's bits depend only on (seed, starting counter): filling
    // a constant stream first must leave the next stream's words
    // identical to a direct fill at the same counter base.
    const std::size_t window = 67;
    sc::detail::CounterStream a{1234, 0};
    std::vector<std::uint64_t> skip(2), after_constant(2);
    sc::detail::bernoulliFill(skip.data(), window, 0.0, a);
    sc::detail::bernoulliFill(after_constant.data(), window, 0.4, a);

    sc::detail::CounterStream b{1234, window};
    std::vector<std::uint64_t> direct(2);
    sc::detail::bernoulliFill(direct.data(), window, 0.4, b);
    EXPECT_EQ(after_constant, direct);

    // And the same holds when the first stream is stochastic.
    sc::detail::CounterStream c{1234, 0};
    std::vector<std::uint64_t> stoch(2), after_stoch(2);
    sc::detail::bernoulliFill(stoch.data(), window, 0.9, c);
    sc::detail::bernoulliFill(after_stoch.data(), window, 0.4, c);
    EXPECT_EQ(after_stoch, direct);
}

TEST(CounterFill, RngOverloadConsumesExactlyOneDraw)
{
    // The Rng convenience overload seeds a fresh counter stream with
    // one raw draw; constant probabilities keep the historical
    // zero-draw contract.
    Rng probe(321);
    const std::uint64_t first = probe.raw()();
    const std::uint64_t second = probe.raw()();

    Rng rng(321);
    const sc::Bitstream s = sc::Bitstream::bernoulli(1000, 0.3, rng);
    EXPECT_EQ(rng.raw()(), second); // exactly one draw consumed

    sc::detail::CounterStream stream{first, 0};
    std::vector<std::uint64_t> want(
        sc::detail::wordsForLength(1000));
    sc::detail::bernoulliFill(want.data(), 1000, 0.3, stream);
    EXPECT_EQ(s.words(), want);

    Rng constant(321);
    const sc::Bitstream z = sc::Bitstream::bernoulli(64, 0.0, constant);
    const sc::Bitstream o = sc::Bitstream::bernoulli(64, 1.0, constant);
    EXPECT_EQ(constant.raw()(), first); // no draws consumed
    EXPECT_EQ(z.popcount(), 0u);
    EXPECT_EQ(o.popcount(), 64u);
}

TEST(CounterFill, StatisticalDensityMatchesProbability)
{
    // Re-baselined statistics for the new generator: stream density
    // must track p with the usual sqrt(L) tolerance.
    sc::detail::CounterStream stream{0xfeedULL, 0};
    const std::size_t length = 200000;
    std::vector<std::uint64_t> words(
        sc::detail::wordsForLength(length));
    for (const double p : {0.03, 0.25, 0.5, 0.77, 0.999}) {
        sc::detail::bernoulliFill(words.data(), length, p, stream);
        std::size_t ones = 0;
        for (const std::uint64_t w : words)
            ones += static_cast<std::size_t>(__builtin_popcountll(w));
        EXPECT_NEAR(
            static_cast<double>(ones) / static_cast<double>(length), p,
            0.005)
            << "p=" << p;
    }
}

TEST(CounterFill, DrawAccountingMatchesObservedConsumption)
{
    // The hardware ledger's bernoulliDraws column is read back from
    // the counter streams; the seeded crossbar observe must therefore
    // report exactly Cs * L draws per sample on every arm — constant
    // (p = 0/1) columns included, per the position-stability contract
    // — and CounterStream::consumed() must equal that tally.
    ArmRestore restore;
    const aqfp::AttenuationModel atten;
    const std::size_t cs = 5, window = 77;
    crossbar::CrossbarArray xbar(cs, atten, 2.4);
    // Leave the array unprogrammed: every column current is 0 and some
    // probabilities sit at exact constants depending on thresholds —
    // the draws must not depend on that.
    xbar.setColumnThreshold(0, 1e9);  // probOne == 0
    xbar.setColumnThreshold(1, -1e9); // probOne == 1

    const std::vector<std::vector<int>> batch(
        3, std::vector<int>(cs, 1));
    const std::vector<std::uint64_t> seeds = {7, 8, 9};
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        aqfp::TileCounts counts;
        xbar.observeBatchSeeded(batch, window, seeds, &counts);
        EXPECT_EQ(counts.observations, batch.size())
            << simd::armName(arm);
        EXPECT_EQ(counts.cycles, batch.size() * window)
            << simd::armName(arm);
        EXPECT_EQ(counts.bernoulliDraws, batch.size() * cs * window)
            << simd::armName(arm);
    }

    sc::detail::CounterStream stream{42, 0};
    std::vector<std::uint64_t> words(
        sc::detail::wordsForLength(window));
    sc::detail::bernoulliFill(words.data(), window, 0.0, stream);
    sc::detail::bernoulliFill(words.data(), window, 0.5, stream);
    EXPECT_EQ(stream.consumed(), 2 * window);
}

// --- end-to-end determinism ---

TEST(CounterDeterminism, ExecutorBitIdenticalAcrossThreadsAndArms)
{
    // The acceptance contract of the counter-based generator: the
    // executor's outputs are a pure function of (layer, inputs, roots)
    // — identical at 1/4/8 threads and on every dispatch arm.
    ArmRestore restore;
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(8, atten, 2.4);
    Rng setup(99);
    Tensor w({20, 24});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = setup.bernoulli(0.5) ? 1.0f : -1.0f;
    crossbar::MappedLayer layer = mapper.map(w);
    crossbar::CrossbarMapper::setThresholds(
        layer, std::vector<double>(20, 0.0));
    std::vector<std::vector<int>> batch(3, std::vector<int>(24));
    for (auto &sample : batch)
        for (auto &a : sample)
            a = setup.bernoulli(0.5) ? 1 : -1;

    ASSERT_TRUE(simd::setActiveArm(simd::Arm::Scalar));
    crossbar::TileExecutor ref_exec(16, false, 0.25, 1);
    Rng root_rng(1001);
    const auto roots =
        energy_ledger_util::drawRoots(root_rng, batch.size());
    const auto ref = ref_exec.forwardSeeded(layer, batch, roots);

    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        for (const std::size_t threads : {1u, 4u, 8u}) {
            crossbar::TileExecutor exec(16, false, 0.25, threads);
            EXPECT_EQ(exec.forwardSeeded(layer, batch, roots), ref)
                << simd::armName(arm) << " threads " << threads;
        }
    }
}

} // namespace
