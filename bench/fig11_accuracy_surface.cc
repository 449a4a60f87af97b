/**
 * @file
 * Reproduces Figure 11: model accuracy over the two hardware dimensions
 * gray-zone width (deltaIin) and crossbar size (Cs), with stochastic
 * bitstream length L = 1. Each grid point trains its own AQFP-aware
 * randomized MLP (the co-design loop) and evaluates it on the crossbar
 * simulator. Also prints the randomized-aware vs vanilla-BNN training
 * ablation (the paper's motivation for Contribution #1).
 *
 * Workload substitution: synthetic MNIST MLP instead of CIFAR VGG-small
 * (see DESIGN.md Section 2); the reproduced claim is the *shape* of the
 * accuracy surface (multiple peaks, strong sensitivity to both knobs).
 */

#include <cstdio>

#include "bench_util.h"
#include "core/hardware_eval.h"
#include "core/trainer.h"
#include "data/synthetic_mnist.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

double
trainAndMeasure(const data::SyntheticMnist &ds,
                const aqfp::AttenuationModel &atten, std::size_t cs,
                double delta_iin, BinarizeMode mode, double *sw_acc)
{
    Rng rng(1234);
    RandomizedMlp mlp(784, {64}, 10,
                      AqfpBehavior{static_cast<double>(cs), delta_iin,
                                   0.0},
                      atten, rng, mode);
    TrainConfig cfg;
    cfg.epochs = 20;
    cfg.warmupEpochs = 2;
    const Trainer trainer(cfg);
    const auto result = trainer.train(mlp, ds.train, ds.test, rng);
    if (sw_acc != nullptr)
        *sw_acc = result.finalTestAccuracy;

    HardwareEvaluator eval(atten, HardwareConfig{cs, 1, delta_iin});
    eval.mapMlp(mlp);
    Rng eval_rng(7);
    return eval.evaluate(ds.test, 120, eval_rng);
}

} // namespace

int
main()
{
    const aqfp::AttenuationModel atten;
    data::SyntheticMnistOptions opts;
    opts.trainSize = 600;
    opts.testSize = 150;
    const auto ds = data::makeSyntheticMnist(opts);

    bench_util::header(
        "Figure 11: hardware accuracy (%) over (deltaIin, Cs), L = 1");
    const std::vector<std::size_t> sizes = {8, 16, 36, 72};
    const std::vector<double> zones = {0.8, 1.6, 2.4, 3.2};
    std::printf("%10s", "Cs \\ dI");
    for (double gz : zones)
        std::printf(" %8.1fuA", gz);
    std::printf("\n");
    for (std::size_t cs : sizes) {
        std::printf("%10zu", cs);
        for (double gz : zones) {
            const double acc = trainAndMeasure(ds, atten, cs, gz,
                                               BinarizeMode::Randomized,
                                               nullptr);
            std::printf(" %9.1f", 100.0 * acc);
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    std::printf("(paper shape: accuracy depends strongly on BOTH knobs,"
                " with multiple local peaks)\n");

    bench_util::header(
        "Ablation: randomized-aware vs vanilla BNN training (Cs=16, "
        "dI=2.4uA, L=1)");
    double sw_rand = 0.0, sw_det = 0.0;
    const double hw_rand = trainAndMeasure(
        ds, atten, 16, 2.4, BinarizeMode::Randomized, &sw_rand);

    // Vanilla training, then deployed on the same stochastic hardware.
    Rng rng(1234);
    RandomizedMlp vanilla(784, {64}, 10, AqfpBehavior{16, 2.4, 0.0},
                          atten, rng, BinarizeMode::Deterministic);
    TrainConfig cfg;
    cfg.epochs = 20;
    cfg.warmupEpochs = 2;
    const Trainer trainer(cfg);
    sw_det =
        trainer.train(vanilla, ds.train, ds.test, rng).finalTestAccuracy;
    HardwareEvaluator eval(atten, HardwareConfig{16, 1, 2.4});
    eval.mapMlp(vanilla);
    Rng eval_rng(7);
    const double hw_det = eval.evaluate(ds.test, 120, eval_rng);

    std::printf("randomized-aware: software %.1f%% -> hardware %.1f%%\n",
                100.0 * sw_rand, 100.0 * hw_rand);
    std::printf("vanilla training: software %.1f%% -> hardware %.1f%%\n",
                100.0 * sw_det, 100.0 * hw_det);
    std::printf("(paper claim: hardware-unaware training loses accuracy "
                "when deployed on the stochastic device)\n");
    return 0;
}
