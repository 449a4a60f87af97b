/**
 * @file
 * `train`: core::Trainer::train on the 784-64-10 RandomizedMlp over
 * synthetic MNIST (800 train / 200 test), one epoch per call. The only
 * workload where the software trainer does nearly all the work and the
 * SC simulator none.
 */

#include <algorithm>
#include <cmath>

#include "common.h"
#include "core/trainer.h"
#include "trace.h"

namespace perfbench {

using namespace superbnn;

namespace {

/** One epoch per Trainer::train call, at the full base learning rate. */
core::TrainConfig
epochConfig()
{
    core::TrainConfig config;
    config.epochs = 1;
    config.warmupEpochs = 0;
    return config;
}

struct TrainState
{
    data::SyntheticMnist data;
    MlpModel model;
};

/**
 * Trainer::train's epoch body, driven through the same public calls
 * with a span around each layer call. Given the same model state and
 * Rng it performs exactly the arithmetic Trainer::train does.
 */
core::TrainResult
tracedEpoch(core::BnnModel &model, const data::SyntheticMnist &data,
            Rng &rng, const core::TrainConfig &cfg, SpanRecorder &spans)
{
    const ScopedSpan epoch(spans, "trainer.epoch");
    nn::Sgd sgd(cfg.lr, cfg.momentum, cfg.weightDecay);
    const nn::CosineWarmupSchedule schedule(cfg.lr, cfg.warmupEpochs,
                                            cfg.epochs);
    const nn::ReCUSchedule recu(cfg.tauStart, cfg.tauEnd);
    nn::SoftmaxCrossEntropy loss;
    data::DataLoader loader(data.train, cfg.batchSize);
    const auto params = model.parameters();

    sgd.setLr(schedule.lrAt(0));
    loader.shuffle(rng);
    double epoch_loss = 0.0;
    const std::size_t batches = loader.batchCount();
    for (std::size_t b = 0; b < batches; ++b) {
        const ScopedSpan batch_span(spans, "trainer.batch", epoch.id());
        const auto batch = loader.batch(b);
        nn::Sgd::zeroGrad(params);
        Tensor logits;
        {
            const ScopedSpan s(spans, "trainer.forward", batch_span.id());
            logits = model.forward(batch.inputs, true);
        }
        {
            const ScopedSpan s(spans, "trainer.loss", batch_span.id());
            epoch_loss += loss.forward(logits, batch.labels);
        }
        {
            const ScopedSpan s(spans, "trainer.backward", batch_span.id());
            model.backward(loss.backward());
        }
        {
            const ScopedSpan s(spans, "trainer.sgd", batch_span.id());
            sgd.step(params);
        }
        if (cfg.useReCU) {
            const ScopedSpan s(spans, "trainer.recu", batch_span.id());
            const double tau = recu.tauAt(0, cfg.epochs);
            for (Tensor *w : model.binaryWeightTensors())
                nn::applyReCU(*w, tau);
        }
    }
    core::TrainResult result;
    result.trainLoss.push_back(epoch_loss / static_cast<double>(batches));
    const ScopedSpan s(spans, "trainer.eval", epoch.id());
    result.finalTestAccuracy = core::Trainer::evaluate(model, data.test);
    return result;
}

} // namespace

RunResult
runTrain(const Options &opts)
{
    RunResult out;
    const core::Trainer trainer(epochConfig());
    SetupStats setup;
    const auto state = repeatedSetup(kSetups, setup, [&] {
        auto s = std::make_unique<TrainState>();
        s->data = makeMnist(opts.seed);
        s->model = makeMlp(opts.seed);
        // Warm-up epoch: first-touch of every buffer and code path.
        (void)trainer.train(*s->model.mlp, s->data.train, s->data.test,
                            *s->model.rng);
        return s;
    });

    const double samples = static_cast<double>(state->data.train.size());
    std::vector<double> epoch_ms;
    double accuracy = 0.0;
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    while (msBetween(start, Clock::now()) < opts.seconds * 1000.0) {
        const auto t0 = Clock::now();
        const core::TrainResult r = trainer.train(
            *state->model.mlp, state->data.train, state->data.test,
            *state->model.rng);
        epoch_ms.push_back(msBetween(t0, Clock::now()));
        double loss = r.trainLoss.at(0);
        if (corrupted(opts, "train_loss") && epoch_ms.size() == 1)
            loss = std::nan("");
        out.checks.record(std::isfinite(loss),
                          "epoch loss is not finite");
        accuracy = r.finalTestAccuracy;
    }
    const double cpu_s = cpuSeconds() - cpu0;
    if (corrupted(opts, "train_accuracy"))
        accuracy = 0.0;
    const double chance =
        1.0 / static_cast<double>(state->data.test.numClasses());
    out.checks.record(accuracy > chance,
                      "final accuracy " + std::to_string(accuracy)
                          + " is not above chance");

    const double p50 = median(epoch_ms);
    out.metrics = {
        {"setup_s", setup.seconds, "s"},
        {"peak_rss_mb", setup.peakRssMb, "MiB"},
        {"throughput_per_s", samples / (p50 / 1000.0), "1/s"},
        {"cpu_ms_per_op",
         cpu_s * 1000.0 / (samples * static_cast<double>(epoch_ms.size())),
         "ms"},
        {"latency_p50_ms", p50, "ms"},
    };
    out.info = {{"epochs", static_cast<double>(epoch_ms.size()), "count"},
                {"final_accuracy", accuracy, "ratio"}};
    return out;
}

double
traceTrain(const Options &opts, SpanRecorder &spans, RunResult &out)
{
    // Two identical models: one trained through Trainer::train
    // (untraced), one through the traced decomposition. Their losses
    // and accuracies must match bit for bit, epoch by epoch.
    const data::SyntheticMnist data = makeMnist(opts.seed);
    const MlpModel plain = makeMlp(opts.seed);
    const MlpModel traced = makeMlp(opts.seed);
    const core::TrainConfig cfg = epochConfig();
    const core::Trainer trainer(cfg);
    const std::size_t epochs =
        std::max<std::size_t>(2, static_cast<std::size_t>(opts.seconds / 4));

    std::vector<double> plain_ms, traced_ms;
    for (std::size_t e = 0; e < epochs; ++e) {
        auto t0 = Clock::now();
        const core::TrainResult a =
            trainer.train(*plain.mlp, data.train, data.test, *plain.rng);
        plain_ms.push_back(msBetween(t0, Clock::now()));
        t0 = Clock::now();
        core::TrainResult b =
            tracedEpoch(*traced.mlp, data, *traced.rng, cfg, spans);
        traced_ms.push_back(msBetween(t0, Clock::now()));
        if (corrupted(opts, "train_trace"))
            b.trainLoss[0] += 1.0;
        out.checks.record(a.trainLoss[0] == b.trainLoss[0]
                              && a.finalTestAccuracy == b.finalTestAccuracy,
                          "traced epoch diverged from Trainer::train");
    }

    const double batches =
        static_cast<double>(spans.summary("trainer.batch").count);
    const auto per_batch = [&](const char *name) {
        return spans.summary(name).selfMs / batches;
    };
    out.metrics.push_back(
        {"trainer.forward_ms", per_batch("trainer.forward"), "ms"});
    out.metrics.push_back(
        {"trainer.backward_ms", per_batch("trainer.backward"), "ms"});
    out.metrics.push_back({"trainer.sgd_ms", per_batch("trainer.sgd"), "ms"});
    out.metrics.push_back(
        {"trainer.recu_ms", per_batch("trainer.recu"), "ms"});
    out.metrics.push_back(
        {"trainer.eval_ms", spans.meanSelfMs("trainer.eval"), "ms"});
    return 100.0 * (median(traced_ms) / median(plain_ms) - 1.0);
}

} // namespace perfbench
