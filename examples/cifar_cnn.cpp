/**
 * @file
 * The Table-2 scenario: a VGG-small-style randomized binary CNN on the
 * synthetic CIFAR substitute, trained with the full recipe and deployed
 * on the crossbar simulator; prints the accuracy-vs-efficiency frontier
 * across SC window lengths.
 */

#include <cstdio>

#include "aqfp/energy.h"
#include "core/hardware_eval.h"
#include "core/trainer.h"
#include "data/synthetic_cifar.h"

using namespace superbnn;
using namespace superbnn::core;

int
main()
{
    data::SyntheticCifarOptions dopts;
    dopts.trainSize = 400;
    dopts.testSize = 100;
    const auto ds = data::makeSyntheticCifar(dopts);

    Rng rng(5);
    const aqfp::AttenuationModel atten;
    RandomizedCnn::Config ccfg;
    ccfg.channels = {8, 16, 16};
    ccfg.poolAfter = {true, true, true};
    RandomizedCnn model(ccfg, AqfpBehavior{16, 2.4, 0.0}, atten, rng);

    TrainConfig tcfg;
    tcfg.epochs = 10;
    tcfg.batchSize = 32;
    tcfg.warmupEpochs = 1;
    tcfg.verbose = true;
    const Trainer trainer(tcfg);
    const auto result = trainer.train(model, ds.train, ds.test, rng);
    std::printf("\nsoftware accuracy: %.1f%%\n",
                100.0 * result.finalTestAccuracy);

    const aqfp::EnergyModel energy;
    const auto vgg = aqfp::workloads::vggSmall();
    std::printf("\n%6s %14s %14s %14s\n", "L", "hw acc",
                "TOPS/W (VGG)", "img/ms");
    for (std::size_t window : {1u, 8u, 32u}) {
        HardwareEvaluator hw(atten, HardwareConfig{16, window, 2.4});
        hw.mapCnn(model);
        Rng eval_rng(9);
        const double acc = hw.evaluate(ds.test, 15, eval_rng);
        const auto rep = energy.evaluate(vgg, {16, window, 5.0, 2.4});
        std::printf("%6zu %13.1f%% %14.3g %14.1f\n", window,
                    100.0 * acc, rep.topsPerWatt,
                    rep.throughputImagesPerMs);
        std::fflush(stdout);
    }
    std::printf("\n(the paper's trade-off: shorter windows give more "
                "throughput/efficiency at some accuracy cost)\n");
    return 0;
}
