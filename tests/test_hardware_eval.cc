/**
 * @file
 * End-to-end hardware-in-the-loop tests: trained models mapped onto the
 * crossbar + SC simulator must track their software accuracy, and the
 * bitstream-length / gray-zone effects of Figures 10 and 11 must show.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "core/hardware_eval.h"
#include "core/trainer.h"
#include "data/synthetic_mnist.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

/** Shared trained MLP fixture (training is the expensive part). */
class TrainedMlpTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        rng = new Rng(42);
        attenModel = new aqfp::AttenuationModel();
        data::SyntheticMnistOptions dopts;
        dopts.trainSize = 600;
        dopts.testSize = 150;
        dataset = new data::SyntheticMnist(makeSyntheticMnist(dopts));
        model = new RandomizedMlp(784, {64}, 10,
                                  AqfpBehavior{16, 2.4, 0.0},
                                  *attenModel, *rng);
        TrainConfig cfg;
        cfg.epochs = 30;
        cfg.warmupEpochs = 3;
        const Trainer trainer(cfg);
        const auto result =
            trainer.train(*model, dataset->train, dataset->test, *rng);
        softwareAccuracy = result.finalTestAccuracy;
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete dataset;
        delete attenModel;
        delete rng;
        model = nullptr;
        dataset = nullptr;
        attenModel = nullptr;
        rng = nullptr;
    }

    static Rng *rng;
    static aqfp::AttenuationModel *attenModel;
    static data::SyntheticMnist *dataset;
    static RandomizedMlp *model;
    static double softwareAccuracy;
};

Rng *TrainedMlpTest::rng = nullptr;
aqfp::AttenuationModel *TrainedMlpTest::attenModel = nullptr;
data::SyntheticMnist *TrainedMlpTest::dataset = nullptr;
RandomizedMlp *TrainedMlpTest::model = nullptr;
double TrainedMlpTest::softwareAccuracy = 0.0;

} // namespace

TEST_F(TrainedMlpTest, SoftwareModelLearned)
{
    EXPECT_GT(softwareAccuracy, 0.5);
}

TEST_F(TrainedMlpTest, MappingProducesExpectedTileCount)
{
    HardwareEvaluator eval(*attenModel,
                           HardwareConfig{16, 8, 2.4, false, 0.5});
    eval.mapMlp(*model);
    // Layer1: ceil(784/16) x ceil(64/16) = 49*4 = 196;
    // head: ceil(64/16) x ceil(10/16) = 4.
    EXPECT_EQ(eval.totalCrossbars(), 196u + 4u);
}

TEST_F(TrainedMlpTest, HardwareTracksSoftwareAccuracy)
{
    // With the exact parallel counter, the hardware function is the
    // same statistic the tile-aware training optimized, so accuracy
    // must track the software model closely.
    HardwareEvaluator eval(*attenModel,
                           HardwareConfig{16, 16, 2.4, true, 0.0});
    eval.mapMlp(*model);
    Rng eval_rng(7);
    const double hw_acc =
        eval.evaluate(dataset->test, 120, eval_rng);
    EXPECT_GT(hw_acc, softwareAccuracy - 0.12)
        << "hardware " << hw_acc << " vs software "
        << softwareAccuracy;
}

TEST_F(TrainedMlpTest, ApproxApcCostsBoundedAccuracy)
{
    // The approximate APC keeps a residual data-dependent bias after
    // reference calibration; the paper's claim is that the cost is
    // small. Allow a moderate envelope.
    HardwareEvaluator eval(*attenModel,
                           HardwareConfig{16, 16, 2.4, false, 0.5});
    eval.mapMlp(*model);
    Rng eval_rng(7);
    const double hw_acc =
        eval.evaluate(dataset->test, 120, eval_rng);
    EXPECT_GT(hw_acc, softwareAccuracy - 0.2)
        << "hardware " << hw_acc << " vs software "
        << softwareAccuracy;
}

TEST_F(TrainedMlpTest, LongerWindowNotWorse)
{
    // Fig. 10 mechanism: accuracy improves (or saturates) with L.
    Rng eval_rng(8);
    HardwareEvaluator short_eval(*attenModel,
                                 HardwareConfig{16, 1, 2.4, false, 0.5});
    short_eval.mapMlp(*model);
    const double acc_short =
        short_eval.evaluate(dataset->test, 120, eval_rng);
    HardwareEvaluator long_eval(*attenModel,
                                HardwareConfig{16, 32, 2.4, false, 0.5});
    long_eval.mapMlp(*model);
    const double acc_long =
        long_eval.evaluate(dataset->test, 120, eval_rng);
    EXPECT_GE(acc_long, acc_short - 0.05);
}

TEST_F(TrainedMlpTest, PredictIsWithinClassRange)
{
    HardwareEvaluator eval(*attenModel,
                           HardwareConfig{16, 4, 2.4, false, 0.5});
    eval.mapMlp(*model);
    std::vector<Tensor> samples;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 10; ++i) {
        samples.push_back(dataset->test.sample(i));
        seeds.push_back(900 + i);
    }
    for (const std::size_t p : eval.predictSeeded(samples, seeds))
        EXPECT_LT(p, 10u);
}

TEST_F(TrainedMlpTest, ClassScoresHaveTenEntries)
{
    HardwareEvaluator eval(*attenModel,
                           HardwareConfig{16, 4, 2.4, false, 0.5});
    eval.mapMlp(*model);
    const auto scores =
        eval.classScoresSeeded({dataset->test.sample(0)}, {10});
    ASSERT_EQ(scores.size(), 1u);
    EXPECT_EQ(scores[0].size(), 10u);
}

TEST_F(TrainedMlpTest, ExactApcAtLeastAsGoodOnAverage)
{
    Rng eval_rng(11);
    HardwareEvaluator approx(*attenModel,
                             HardwareConfig{16, 8, 2.4, false, 0.5});
    approx.mapMlp(*model);
    const double acc_approx =
        approx.evaluate(dataset->test, 100, eval_rng);
    HardwareEvaluator exact(*attenModel,
                            HardwareConfig{16, 8, 2.4, true, 0.0});
    exact.mapMlp(*model);
    const double acc_exact =
        exact.evaluate(dataset->test, 100, eval_rng);
    // The approximate APC trades a bounded accuracy cost for gates
    // (measured ~8-14% on this workload after reference calibration).
    EXPECT_GT(acc_approx, acc_exact - 0.2);
}

TEST(HardwareEvalCnn, SmokeTestOnTinyCnn)
{
    Rng rng(12);
    const aqfp::AttenuationModel atten;
    RandomizedCnn::Config ccfg;
    ccfg.inputSide = 16;
    ccfg.channels = {4};
    ccfg.poolAfter = {true};
    RandomizedCnn cnn(ccfg, AqfpBehavior{16, 2.4, 0.0}, atten, rng);

    HardwareEvaluator eval(atten, HardwareConfig{16, 2, 2.4, false, 0.5});
    eval.mapCnn(cnn);
    EXPECT_GT(eval.totalCrossbars(), 0u);

    Tensor sample = Tensor::randn({1, 3, 16, 16}, rng);
    const auto scores = eval.classScoresSeeded({sample}, {13});
    EXPECT_EQ(scores[0].size(), 10u);
    EXPECT_LT(eval.predictSeeded({sample}, {13})[0], 10u);
}

TEST(HardwareEvalConfig, StoredAndExposed)
{
    const aqfp::AttenuationModel atten;
    HardwareEvaluator eval(atten, HardwareConfig{36, 8, 1.6, true, 0.25});
    ASSERT_EQ(eval.plan().layers.size(), 1u);
    EXPECT_EQ(eval.plan().layers[0].crossbarSize, 36u);
    EXPECT_EQ(eval.plan().layers[0].window, 8u);
    EXPECT_DOUBLE_EQ(eval.plan().layers[0].deltaIinUa, 1.6);
    EXPECT_TRUE(eval.plan().exactApc);
}

TEST(HardwareEvalUnmapped, ScoringThrowsInsteadOfIndexingNothing)
{
    const aqfp::AttenuationModel atten;
    const HardwareEvaluator eval(atten,
                                 HardwareConfig{16, 4, 2.4, false, 0.5});
    const Tensor sample({1, 16}, 0.5f);
    EXPECT_THROW(eval.classScoresSeeded({sample}, {1}), std::logic_error);
    EXPECT_THROW(eval.predictSeeded({sample}, {1}), std::logic_error);

    data::Dataset ds;
    ds.samples = Tensor({2, 16}, 0.5f);
    ds.labels = {0, 1};
    Rng rng(2);
    EXPECT_THROW(eval.evaluate(ds, 0, rng), std::logic_error);
}
