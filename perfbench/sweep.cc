/**
 * @file
 * `sweep`: core::ScenarioSweep::run over the demo reliability grid
 * (stuck {0, 0.05, 0.25} x gray-zone {1, 2}, sigma 0.05) with many
 * chips per corner on the shared pool and the named model cache warm:
 * SC-crossbar simulator throughput under a coarse, per-chip fan-out.
 */

#include <algorithm>
#include <cstring>

#include "common.h"
#include "core/scenario_sweep.h"
#include "crossbar/model_cache.h"
#include "trace.h"
#include "util/executor_pool.h"

namespace perfbench {

using namespace superbnn;

namespace {

core::ScenarioGrid
sweepGrid()
{
    core::ScenarioGrid grid;
    grid.stuckFractions = {0.0, 0.05, 0.25};
    grid.grayZoneScales = {1.0, 2.0};
    return grid;
}

core::SweepOptions
sweepOptions(std::uint64_t seed)
{
    core::SweepOptions options;
    options.masterSeed = deriveSeed(seed, kSweepSeed);
    options.chipsPerCorner = 32;
    options.evalSamples = 24;
    options.accuracyFloors = {0.3, 0.5, 0.7, 0.9};
    options.histogramBins = 10;
    options.grayZoneSigma = 0.05;
    options.modelTag = "perfbench";
    return options;
}

struct SweepState
{
    data::SyntheticMnist data;
    MlpModel model;
    std::shared_ptr<crossbar::ProgrammedModelCache> cache;
    std::unique_ptr<core::ScenarioSweep> sweep;
    core::SweepResult expected; ///< the warm-up pass
};

std::unique_ptr<SweepState>
makeSweepState(std::uint64_t seed)
{
    auto s = std::make_unique<SweepState>();
    s->data = makeMnist(seed);
    s->model = trainedMlp(s->data, seed);
    s->cache = std::make_shared<crossbar::ProgrammedModelCache>(
        aqfp::AttenuationModel());
    s->sweep = std::make_unique<core::ScenarioSweep>(
        *s->model.mlp, s->data.test,
        core::HardwareConfig{16, 8, 2.4, false, 0.25, 1, 8}, s->cache);
    // Warm-up pass: fills the named model cache and spawns the pool.
    s->expected = s->sweep->run(sweepGrid(), sweepOptions(seed));
    return s;
}

double
hitRatio(const crossbar::ProgrammedModelCache::Stats &stats)
{
    const double total = static_cast<double>(stats.hits + stats.misses);
    return total == 0.0 ? 0.0 : static_cast<double>(stats.hits) / total;
}

/**
 * Reproduce one chip of the sweep through the public calls runChip
 * makes, a span around each, and check it against the sweep's own
 * ChipResult. Returns the chip's ledger counts.
 */
aqfp::LedgerCounts
traceChip(const SweepState &state, const core::ScenarioCorner &corner,
          const core::SweepOptions &options, std::uint64_t chip,
          const Options &opts, SpanRecorder &spans, Checks &checks)
{
    const std::uint64_t request = corner.index * options.chipsPerCorner + chip;
    const ScopedSpan chip_span(spans, "sweep.chip", SpanRecorder::kNone,
                               request);
    core::HardwareEvaluator eval(aqfp::AttenuationModel(corner.fit),
                                 state.sweep->cornerPlan(corner));
    core::ChipResult got;
    got.chip = chip;
    {
        const ScopedSpan s(spans, "evaluator.map", chip_span.id(), request);
        eval.mapMlp(*state.model.mlp, state.cache.get(), options.modelTag);
    }
    {
        const ScopedSpan s(spans, "evaluator.inject", chip_span.id(),
                           request);
        got.stuckCells = eval.injectVariationSeeded(
            options.grayZoneSigma, corner.stuckFraction, options.masterSeed,
            chip);
    }
    {
        const ScopedSpan s(spans, "evaluator.evaluate", chip_span.id(),
                           request);
        Rng rng(core::ScenarioSweep::chipEvalSeed(options.masterSeed,
                                                  corner.index, chip));
        got.accuracy = eval.evaluate(state.data.test, options.evalSamples, rng);
        got.counts = eval.totalLedgerCounts();
    }
    const core::ChipResult &want =
        state.expected.corners[corner.index].chips[chip];
    if (corrupted(opts, "sweep_chip") && request == 0)
        got.accuracy += 1.0;
    checks.record(
        std::memcmp(&got.accuracy, &want.accuracy, sizeof(double)) == 0
            && got.stuckCells == want.stuckCells && got.counts == want.counts,
        "traced chip " + std::to_string(request)
            + " differs from the sweep's ChipResult");
    return got.counts;
}

} // namespace

RunResult
runSweep(const Options &opts)
{
    RunResult out;
    SetupStats setup;
    const auto state = repeatedSetup(kSetups, setup, [&] {
        return makeSweepState(opts.seed);
    });
    const core::ScenarioGrid grid = sweepGrid();
    const core::SweepOptions options = sweepOptions(opts.seed);
    std::string expected = core::toJson(state->expected);
    if (corrupted(opts, "sweep_bytes"))
        expected[expected.size() / 2] ^= 1;

    const double chips = static_cast<double>(grid.cornerCount()
                                             * options.chipsPerCorner);
    std::vector<double> pass_ms;
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    while (msBetween(start, Clock::now()) < opts.seconds * 1000.0) {
        const auto t0 = Clock::now();
        const core::SweepResult result = state->sweep->run(grid, options);
        pass_ms.push_back(msBetween(t0, Clock::now()));
        out.checks.record(core::toJson(result) == expected,
                          "sweep pass JSON differs from the first pass");
    }
    const double cpu_s = cpuSeconds() - cpu0;

    const double p50 = median(pass_ms);
    out.metrics = {
        {"setup_s", setup.seconds, "s"},
        {"peak_rss_mb", setup.peakRssMb, "MiB"},
        {"throughput_per_s", chips / (p50 / 1000.0), "1/s"},
        {"cpu_ms_per_op",
         cpu_s * 1000.0 / (chips * static_cast<double>(pass_ms.size())),
         "ms"},
        {"latency_p50_ms", p50, "ms"},
    };
    out.info = {{"passes", static_cast<double>(pass_ms.size()), "count"},
                {"chips_per_pass", chips, "count"}};
    return out;
}

double
traceSweep(const Options &opts, SpanRecorder &spans, RunResult &out)
{
    const auto state = makeSweepState(opts.seed);
    const core::ScenarioSweep &sweep = *state->sweep;
    const core::ScenarioGrid grid = sweepGrid();
    const core::SweepOptions options = sweepOptions(opts.seed);
    const std::size_t chips = options.chipsPerCorner;

    // Untraced: the whole sweep on the shared pool (pool utilization)
    // and sequentially (the baseline the traced reproduction matches).
    const std::size_t pool_threads =
        util::ExecutorPool::shared()->threadCount();
    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();
    (void)sweep.run(grid, options);
    const double pool_ms = msBetween(t0, Clock::now());
    const double utilization = (cpuSeconds() - cpu0) * 1000.0
        / (pool_ms * static_cast<double>(pool_threads));

    core::SweepOptions sequential = options;
    sequential.threads = 1;

    // Traced: every chip reproduced through the calls runChip makes,
    // compared field by field with the sweep's own ChipResult. The
    // untraced sequential run alternates with it, so run's self time
    // (fan-out and reduction) is their difference.
    const std::size_t reps =
        std::max<std::size_t>(2, static_cast<std::size_t>(opts.seconds / 8));
    const crossbar::ProgrammedModelCache::Stats named0 =
        state->cache->namedStats();
    aqfp::LedgerCounts ledger;
    std::vector<double> sequential_ms, traced_ms;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        t0 = Clock::now();
        (void)sweep.run(grid, sequential);
        sequential_ms.push_back(msBetween(t0, Clock::now()));
        ledger = {};
        t0 = Clock::now();
        for (const core::ScenarioCorner &corner : sweep.corners(grid))
            for (std::uint64_t chip = 0; chip < chips; ++chip)
                ledger += traceChip(*state, corner, options, chip, opts,
                                    spans, out.checks);
        traced_ms.push_back(msBetween(t0, Clock::now()));
    }
    const crossbar::ProgrammedModelCache::Stats named1 =
        state->cache->namedStats();

    const SpanRecorder::Summary chip_spans = spans.summary("sweep.chip");
    const double per_chip = static_cast<double>(chip_spans.count);
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    out.metrics.push_back({"evaluator.map_ms",
                           spans.summary("evaluator.map").selfMs / per_chip,
                           "ms"});
    out.metrics.push_back(
        {"evaluator.inject_ms",
         spans.summary("evaluator.inject").selfMs / per_chip, "ms"});
    out.metrics.push_back(
        {"evaluator.evaluate_ms",
         spans.summary("evaluator.evaluate").selfMs / per_chip, "ms"});
    out.metrics.push_back(
        {"ledger.tile_observations", count(ledger.tileObservations),
         "count"});
    out.metrics.push_back(
        {"ledger.bernoulli_draws", count(ledger.bernoulliDraws), "count"});
    out.metrics.push_back(
        {"ledger.crossbar_cycles", count(ledger.crossbarCycles), "count"});
    out.metrics.push_back(
        {"model_cache.named_hit_ratio",
         hitRatio({named1.hits - named0.hits, named1.misses - named0.misses}),
         "ratio"});
    out.metrics.push_back(
        {"sweep.run_self_ms",
         median(sequential_ms) - chip_spans.totalMs / static_cast<double>(reps),
         "ms"});
    out.metrics.push_back({"pool.sweep_utilization", utilization, "ratio"});
    return 100.0 * (median(traced_ms) / median(sequential_ms) - 1.0);
}

} // namespace perfbench
