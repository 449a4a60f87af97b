/**
 * @file
 * Reproduces Figure 10: model accuracy versus SC bitstream length L for
 * several crossbar sizes (paper: VGG-small on CIFAR-10; here the scaled
 * CNN on synthetic CIFAR, DESIGN.md Section 2). deltaIin = 2.4 uA as in
 * the paper's experiment. The reproduced claim: accuracy climbs with L
 * and saturates around L = 16~32 — far below the 256~2048 bits pure-SC
 * designs need (Section 2.3 comparison with SC-AQFP).
 */

#include <cstdio>

#include "bench_util.h"
#include "core/hardware_eval.h"
#include "core/trainer.h"
#include "data/synthetic_cifar.h"

using namespace superbnn;
using namespace superbnn::core;

int
main()
{
    const aqfp::AttenuationModel atten;
    data::SyntheticCifarOptions opts;
    opts.trainSize = 300;
    opts.testSize = 100;
    const auto ds = data::makeSyntheticCifar(opts);

    const std::vector<std::size_t> sizes = {8, 16, 36};
    const std::vector<std::size_t> lengths = {1, 2, 4, 8, 16, 32};
    const std::size_t eval_samples = 20;

    bench_util::header(
        "Figure 10: accuracy (%) vs SC bitstream length (dI = 2.4 uA)");
    std::printf("%12s", "Cs \\ L");
    for (std::size_t l : lengths)
        std::printf(" %7zu", l);
    std::printf(" %9s\n", "software");

    for (std::size_t cs : sizes) {
        Rng rng(99);
        RandomizedCnn::Config ccfg;
        ccfg.channels = {6, 12};
        ccfg.poolAfter = {true, true};
        RandomizedCnn cnn(ccfg,
                          AqfpBehavior{static_cast<double>(cs), 2.4, 0.0},
                          atten, rng);
        TrainConfig cfg;
        cfg.epochs = 8;
        cfg.batchSize = 32;
        cfg.warmupEpochs = 1;
        const Trainer trainer(cfg);
        const auto result = trainer.train(cnn, ds.train, ds.test, rng);

        std::printf("%12zu", cs);
        std::fflush(stdout);
        for (std::size_t l : lengths) {
            HardwareEvaluator eval(atten, HardwareConfig{cs, l, 2.4});
            eval.mapCnn(cnn);
            Rng eval_rng(5);
            const double acc =
                eval.evaluate(ds.test, eval_samples, eval_rng);
            std::printf(" %7.1f", 100.0 * acc);
            std::fflush(stdout);
        }
        std::printf(" %9.1f\n", 100.0 * result.finalTestAccuracy);
    }
    std::printf("\n(paper shape: rapid improvement at small L, "
                "saturation by L = 16~32; pure-SC designs need "
                "256~2048)\n");
    return 0;
}
