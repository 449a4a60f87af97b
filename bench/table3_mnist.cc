/**
 * @file
 * Reproduces Table 3: MNIST-scale MLP comparison against SyncBNN (CMOS),
 * RSFQ/ERSFQ (JBNN) and SC-AQFP. Accuracy from our randomized MLP
 * measured on the crossbar simulator — on REAL MNIST when
 * SUPERBNN_MNIST_DIR points at the IDX files, otherwise on the
 * deterministic synthetic stand-in (the loader prints which);
 * efficiency from the energy model on the paper's MLP workload
 * (784-256-256-10).
 */

#include <cstdio>
#include <cstdlib>

#include "aqfp/energy.h"
#include "baselines/baseline_specs.h"
#include "bench_util.h"
#include "core/hardware_eval.h"
#include "core/trainer.h"
#include "data/real_data.h"

using namespace superbnn;
using namespace superbnn::core;
using namespace superbnn::baselines;

int
main()
{
    const aqfp::AttenuationModel atten;
    const char *mnist_dir = std::getenv("SUPERBNN_MNIST_DIR");
    const data::LoadedData ds = data::loadMnistOrSynthetic(
        mnist_dir ? mnist_dir : "", /*max_train=*/800, /*max_test=*/200);
    std::printf("dataset: %s\n",
                mnist_dir ? ds.notice.c_str()
                          : "SUPERBNN_MNIST_DIR not set; using the "
                            "deterministic synthetic set");

    Rng rng(31);
    RandomizedMlp mlp(784, {64}, 10, AqfpBehavior{16, 2.4, 0.0}, atten,
                      rng);
    TrainConfig cfg;
    cfg.epochs = 30;
    cfg.warmupEpochs = 3;
    const Trainer trainer(cfg);
    const auto tr = trainer.train(mlp, ds.train, ds.test, rng);

    HardwareEvaluator eval(atten, HardwareConfig{16, 16, 2.4});
    eval.mapMlp(mlp);
    Rng eval_rng(7);
    const double hw_acc = eval.evaluate(ds.test, 200, eval_rng);

    const aqfp::EnergyModel energy;
    const auto rep = energy.evaluate(aqfp::workloads::mnistMlp(),
                                     {16, 16, 5.0, 2.4});

    bench_util::header("Table 3: MNIST MLP comparison");
    std::printf("%-12s %9s %14s %14s\n", "design", "acc (%)",
                "TOPS/W", "w/ cooling");
    for (const auto &b : mnistBaselines()) {
        std::printf("%-12s %9.1f %14s %14s\n", b.name.c_str(),
                    b.accuracyPercent,
                    bench_util::sci(b.topsPerWatt).c_str(),
                    b.topsPerWattCooled
                        ? bench_util::sci(*b.topsPerWattCooled).c_str()
                        : "-");
    }
    std::printf("%-12s %9.1f %14s %14s   <- measured (this repo)\n",
                "Ours", 100.0 * hw_acc,
                bench_util::sci(rep.topsPerWatt).c_str(),
                bench_util::sci(rep.topsPerWattCooled).c_str());
    const auto &paper = paperSuperbnnMnistRow();
    std::printf("%-12s %9.1f %14s %14s   <- paper's row\n",
                "Ours(paper)", paper.accuracyPercent,
                bench_util::sci(paper.topsPerWatt).c_str(),
                bench_util::sci(*paper.topsPerWattCooled).c_str());
    std::printf("(software accuracy of the trained model: %.1f%%)\n",
                100.0 * tr.finalTestAccuracy);

    bench_util::header("Shape checks");
    const double ersfq = mnistBaselines()[2].topsPerWatt;
    const double scaqfp = mnistBaselines()[3].topsPerWatt;
    std::printf("advantage over ERSFQ: %.0f x (paper: ~100 x)\n",
                rep.topsPerWatt / ersfq);
    std::printf("advantage over SC-AQFP: %.0f x (paper: 153 x)\n",
                rep.topsPerWatt / scaqfp);
    std::printf("ours dominates every superconducting baseline by >= 2 "
                "orders of magnitude: %s\n",
                rep.topsPerWatt / ersfq >= 100.0 ? "yes" : "NO");
    return 0;
}
