/**
 * @file
 * Reproduces Table 2: CIFAR-10-scale accuracy under different energy
 * efficiency constraints, against CMOS / ReRAM / STT-MRAM baselines.
 *
 * Accuracy column: our scaled CNN trained on CIFAR-10 — the real
 * binary batches when SUPERBNN_CIFAR_DIR points at them, otherwise the
 * deterministic synthetic stand-in (DESIGN.md Section 2; the loader
 * prints which) — and measured on the crossbar simulator at each
 * bitstream length. Efficiency/power/throughput columns: the
 * accelerator energy model evaluated on the paper's full-size
 * VGG-Small (and ResNet-18) workloads, which is what the paper
 * reports.
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
    bench_util::header("Table 2 baselines (published operating points)");
    std::printf("%-22s %-14s %9s %14s\n", "design", "scheme", "acc (%)",
                "TOPS/W");
    for (const auto &b : cifar10Baselines()) {
        std::printf("%-22s %-14s %9.1f %14s\n", b.name.c_str(),
                    b.scheme.c_str(), b.accuracyPercent,
                    bench_util::sci(b.topsPerWatt).c_str());
    }

    // Train the scaled CNN once at the Cs = 16 design point.
    const aqfp::AttenuationModel atten;
    const char *cifar_dir = std::getenv("SUPERBNN_CIFAR_DIR");
    const data::LoadedData ds = data::loadCifarOrSynthetic(
        cifar_dir ? cifar_dir : "", /*max_train=*/300, /*max_test=*/100);
    std::printf("dataset: %s\n",
                cifar_dir ? ds.notice.c_str()
                          : "SUPERBNN_CIFAR_DIR not set; using the "
                            "deterministic synthetic set");
    Rng rng(2024);
    RandomizedCnn::Config ccfg;
    ccfg.channels = {6, 12};
    ccfg.poolAfter = {true, true};
    RandomizedCnn cnn(ccfg, AqfpBehavior{16, 2.4, 0.0}, atten, rng);
    TrainConfig tcfg;
    tcfg.epochs = 8;
    tcfg.batchSize = 32;
    tcfg.warmupEpochs = 1;
    const Trainer trainer(tcfg);
    const auto tr = trainer.train(cnn, ds.train, ds.test, rng);

    bench_util::header(
        "Table 2, our rows: accuracy vs efficiency trade-off");
    std::printf("%-26s %9s %12s %12s %10s %12s\n", "config",
                "acc (%)", "TOPS/W", "w/ cooling", "power(mW)",
                "img/ms");
    const aqfp::EnergyModel energy;
    const auto vgg = aqfp::workloads::vggSmall();
    for (std::size_t len : {32u, 16u, 4u, 1u}) {
        HardwareEvaluator eval(atten, HardwareConfig{16, len, 2.4});
        eval.mapCnn(cnn);
        Rng eval_rng(5);
        const double acc = eval.evaluate(ds.test, 20, eval_rng);
        const auto rep =
            energy.evaluate(vgg, {16, len, 5.0, 2.4});
        std::printf("Ours (VGG-Small, L=%2zu)    %9.1f %12s %12s"
                    " %10.2e %12.1f\n",
                    len, 100.0 * acc,
                    bench_util::sci(rep.topsPerWatt).c_str(),
                    bench_util::sci(rep.topsPerWattCooled).c_str(),
                    rep.powerW * 1e3, rep.throughputImagesPerMs);
        std::fflush(stdout);
    }
    const auto resnet =
        energy.evaluate(aqfp::workloads::resnet18(), {16, 32, 5.0, 2.4});
    std::printf("Ours (ResNet-18, L=32)     %9s %12s %12s %10.2e"
                " %12.1f\n",
                "-",
                bench_util::sci(resnet.topsPerWatt).c_str(),
                bench_util::sci(resnet.topsPerWattCooled).c_str(),
                resnet.powerW * 1e3, resnet.throughputImagesPerMs);
    std::printf("software accuracy of the trained CNN: %.1f%%\n",
                100.0 * tr.finalTestAccuracy);

    bench_util::header("Paper's reported SupeRBNN rows (reference)");
    std::printf("%-26s %9s %12s %12s\n", "config", "acc (%)", "TOPS/W",
                "w/ cooling");
    for (const auto &r : paperSuperbnnCifarRows()) {
        std::printf("%-26s %9.1f %12s %12s\n", r.name.c_str(),
                    r.accuracyPercent,
                    bench_util::sci(r.topsPerWatt).c_str(),
                    bench_util::sci(*r.topsPerWattCooled).c_str());
    }

    bench_util::header("Headline shape checks");
    const auto l1 = energy.evaluate(vgg, {16, 1, 5.0, 2.4});
    const double imb = cifar10Baselines()[1].topsPerWatt;
    std::printf("efficiency over ReRAM IMB at the fastest config: "
                "%.1e x (paper: ~7.8e4 x)\n",
                l1.topsPerWatt / imb);
    std::printf("cooled efficiency still beats IMB by %.1f x "
                "(paper: 205.8 x at matched accuracy)\n",
                l1.topsPerWattCooled / imb);
    return 0;
}
