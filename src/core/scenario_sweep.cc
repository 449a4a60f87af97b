#include "core/scenario_sweep.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/sharded_executor_pool.h"

namespace superbnn::core {

namespace {

/** SplitMix64 finalizer (same mixing faultMaskSeed chains). */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** %.17g, locale-independent (snprintf in the "C" numeric idiom). */
std::string
fmtDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Nearest-rank quantile of an ascending-sorted sample. */
double
nearestRank(const std::vector<double> &sorted, double q)
{
    assert(!sorted.empty());
    const double n = static_cast<double>(sorted.size());
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * n)));
    return sorted[std::min(rank, sorted.size()) - 1];
}

} // namespace

void
ScenarioGrid::validate() const
{
    if (stuckFractions.empty())
        throw std::invalid_argument(
            "ScenarioGrid: stuckFractions must not be empty");
    for (double f : stuckFractions)
        if (!(f >= 0.0 && f <= 1.0))
            throw std::invalid_argument(
                "ScenarioGrid: stuck fraction outside [0, 1]");
    if (grayZoneScales.empty())
        throw std::invalid_argument(
            "ScenarioGrid: grayZoneScales must not be empty");
    for (double s : grayZoneScales)
        if (!(s > 0.0))
            throw std::invalid_argument(
                "ScenarioGrid: gray-zone scale must be positive");
    for (const aqfp::PowerLawFit &fit : attenuationFits)
        if (!(fit.a > 0.0))
            throw std::invalid_argument(
                "ScenarioGrid: attenuation fit amplitude must be "
                "positive");
    for (const ScenarioConfig &c : configs)
        if (c.crossbarSize < 1 || c.window < 1)
            throw std::invalid_argument(
                "ScenarioGrid: config needs crossbarSize >= 1 and "
                "window >= 1");
}

std::size_t
ScenarioGrid::cornerCount() const
{
    return std::max<std::size_t>(configs.size(), 1)
        * std::max<std::size_t>(attenuationFits.size(), 1)
        * grayZoneScales.size() * stuckFractions.size();
}

void
SweepOptions::validate() const
{
    if (chipsPerCorner < 1)
        throw std::invalid_argument(
            "SweepOptions: chipsPerCorner must be >= 1");
    if (histogramBins < 1)
        throw std::invalid_argument(
            "SweepOptions: histogramBins must be >= 1");
    for (double f : accuracyFloors)
        if (!(f >= 0.0 && f <= 1.0))
            throw std::invalid_argument(
                "SweepOptions: accuracy floor outside [0, 1]");
    if (!(grayZoneSigma >= 0.0))
        throw std::invalid_argument(
            "SweepOptions: grayZoneSigma must be >= 0");
}

ConfidenceInterval
wilsonInterval(std::uint64_t successes, std::uint64_t trials, double z)
{
    if (trials == 0)
        return ConfidenceInterval{0.0, 1.0};
    assert(successes <= trials);
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half = z / denom
        * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
    // Degenerate proportions pin the matching bound exactly (the
    // algebraic value; the sqrt otherwise leaves ~1e-17 residue).
    return ConfidenceInterval{
        successes == 0 ? 0.0 : std::max(0.0, center - half),
        successes == trials ? 1.0 : std::min(1.0, center + half)};
}

ScenarioSweep::ScenarioSweep(
    const RandomizedMlp &model, const data::Dataset &dataset,
    HardwarePlan base_plan,
    std::shared_ptr<crossbar::ProgrammedModelCache> model_cache)
    : model_(&model), dataset_(&dataset), base(std::move(base_plan)),
      cache(std::move(model_cache))
{
    base.validate();
}

std::vector<ScenarioCorner>
ScenarioSweep::corners(const ScenarioGrid &grid) const
{
    grid.validate();
    // Empty axes default to the base operating point so the minimal
    // grid is the nominal corner.
    const bool config_from_grid = !grid.configs.empty();
    std::vector<ScenarioConfig> configs = grid.configs;
    if (configs.empty())
        configs.push_back(ScenarioConfig{base.layers[0].crossbarSize,
                                         base.layers[0].window});
    std::vector<aqfp::PowerLawFit> fits = grid.attenuationFits;
    if (fits.empty())
        fits.push_back(cache ? cache->attenuation().fit()
                             : aqfp::AttenuationModel().fit());
    // Deterministic grid order: configs, then fits, then gray-zone
    // scales, with stuck fractions innermost (so adjacent corners form
    // the monotonicity comparisons the tests assert).
    std::vector<ScenarioCorner> out;
    out.reserve(grid.cornerCount());
    for (const ScenarioConfig &config : configs) {
        for (const aqfp::PowerLawFit &fit : fits) {
            for (double gz : grid.grayZoneScales) {
                for (double stuck : grid.stuckFractions) {
                    ScenarioCorner corner;
                    corner.index = out.size();
                    corner.stuckFraction = stuck;
                    corner.grayZoneScale = gz;
                    corner.fit = fit;
                    corner.config = config;
                    corner.configFromGrid = config_from_grid;
                    out.push_back(corner);
                }
            }
        }
    }
    return out;
}

std::uint64_t
ScenarioSweep::chipEvalSeed(std::uint64_t master_seed, std::size_t corner,
                            std::uint64_t chip)
{
    // Unlike the fault-mask seeds, the evaluation stream DOES mix the
    // corner in: the same chip sees fresh stochastic-computing noise
    // at each operating point, while keeping its fault pattern.
    std::uint64_t s = splitmix64(master_seed ^ 0x6576616cULL); // "eval"
    s = splitmix64(s ^ (static_cast<std::uint64_t>(corner) + 1));
    return splitmix64(s ^ (chip + 1));
}

HardwarePlan
ScenarioSweep::cornerPlan(const ScenarioCorner &corner) const
{
    HardwarePlan plan = base;
    for (LayerHardwareConfig &entry : plan.layers) {
        // An explicit grid.configs axis is a deliberate uniform
        // (Cs, L) override; a defaulted axis leaves a heterogeneous
        // base plan's per-layer geometry intact.
        if (corner.configFromGrid || plan.uniform()) {
            entry.crossbarSize = corner.config.crossbarSize;
            entry.window = corner.config.window;
        }
        // Temperature corner: every layer's gray zone widens
        // multiplicatively.
        entry.deltaIinUa *= corner.grayZoneScale;
    }
    // One chip = one executor task; the chip itself runs sequentially
    // so the sweep's parallelism lives entirely in the chip fan-out.
    plan.threads = 1;
    return plan;
}

ChipResult
ScenarioSweep::runChip(const ScenarioCorner &corner,
                       const SweepOptions &options,
                       std::uint64_t chip) const
{
    HardwareEvaluator eval(aqfp::AttenuationModel(corner.fit),
                           cornerPlan(corner));
    eval.mapMlp(*model_, cache.get(), options.modelTag);

    ChipResult result;
    result.chip = chip;
    result.stuckCells = eval.injectVariationSeeded(
        options.grayZoneSigma, corner.stuckFraction, options.masterSeed,
        chip);

    Rng rng(chipEvalSeed(options.masterSeed, corner.index, chip));
    result.accuracy = eval.evaluate(*dataset_, options.evalSamples, rng);
    result.counts = eval.totalLedgerCounts();
    return result;
}

SweepResult
ScenarioSweep::run(const ScenarioGrid &grid,
                   const SweepOptions &options) const
{
    options.validate();
    const std::vector<ScenarioCorner> grid_corners = corners(grid);
    const std::size_t chips = options.chipsPerCorner;
    const std::size_t total = grid_corners.size() * chips;

    // Fan-out: one flattened (corner, chip) task per chip instance.
    // Each task writes only its own pre-sized slot and every value it
    // computes is a pure function of the seeds, so the join order
    // cannot leak into the result.
    std::vector<ChipResult> flat(total);
    const auto evaluate = [&](std::size_t i) {
        const ScenarioCorner &corner = grid_corners[i / chips];
        flat[i] = runChip(corner, options,
                          static_cast<std::uint64_t>(i % chips));
    };
    if (options.threads == 1) {
        for (std::size_t i = 0; i < total; ++i)
            evaluate(i);
    } else if (options.threads == 0) {
        // Default concurrency stripes the (corner, chip) tasks
        // round-robin across the topology shards, so a multi-node
        // host evaluates chips on every socket with node-local
        // workers. Per-chip results are pure functions of the seeds,
        // so the striping never shows up in the reduction.
        util::ShardedExecutorPool::shared()->parallelForSharded(
            total, evaluate);
    } else {
        const auto pool =
            std::make_shared<util::ThreadPool>(options.threads);
        pool->parallelFor(total, evaluate);
    }

    // Reduction: sequential, in corner/chip order — float sums keep a
    // fixed association order, integer totals commute anyway.
    SweepResult result;
    result.masterSeed = options.masterSeed;
    result.chipsPerCorner = chips;
    result.evalSamples = options.evalSamples;
    result.corners.reserve(grid_corners.size());
    for (const ScenarioCorner &corner : grid_corners) {
        CornerResult cr;
        cr.corner = corner;
        cr.chips.assign(flat.begin()
                            + static_cast<std::ptrdiff_t>(corner.index
                                                          * chips),
                        flat.begin()
                            + static_cast<std::ptrdiff_t>(
                                (corner.index + 1) * chips));
        std::vector<double> sorted;
        sorted.reserve(chips);
        double sum = 0.0;
        cr.histogram.assign(options.histogramBins, 0);
        for (const ChipResult &chip_result : cr.chips) {
            sorted.push_back(chip_result.accuracy);
            sum += chip_result.accuracy;
            cr.totalCounts += chip_result.counts;
            cr.totalStuck += chip_result.stuckCells;
            const std::size_t bin = std::min(
                options.histogramBins - 1,
                static_cast<std::size_t>(
                    chip_result.accuracy
                    * static_cast<double>(options.histogramBins)));
            ++cr.histogram[bin];
        }
        std::sort(sorted.begin(), sorted.end());
        cr.meanAccuracy = sum / static_cast<double>(chips);
        cr.minAccuracy = sorted.front();
        cr.maxAccuracy = sorted.back();
        cr.p05 = nearestRank(sorted, 0.05);
        cr.p95 = nearestRank(sorted, 0.95);
        for (double floor_value : options.accuracyFloors) {
            YieldPoint yp;
            yp.floor = floor_value;
            for (const ChipResult &chip_result : cr.chips)
                if (chip_result.accuracy >= floor_value)
                    ++yp.pass;
            yp.yield = static_cast<double>(yp.pass)
                / static_cast<double>(chips);
            yp.wilson = wilsonInterval(yp.pass, chips);
            cr.yield.push_back(yp);
        }
        result.corners.push_back(std::move(cr));
    }
    return result;
}

std::string
toJson(const SweepResult &result)
{
    std::string out;
    out.reserve(4096);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"schema\":\"superbnn-yield-surface-v1\","
                  "\"masterSeed\":%" PRIu64 ",\"chipsPerCorner\":%zu"
                  ",\"cornerCount\":%zu,\"evalSamples\":%zu,"
                  "\"corners\":[",
                  result.masterSeed, result.chipsPerCorner,
                  result.corners.size(), result.evalSamples);
    out += buf;
    for (std::size_t i = 0; i < result.corners.size(); ++i) {
        const CornerResult &cr = result.corners[i];
        if (i)
            out += ',';
        std::snprintf(buf, sizeof buf,
                      "{\"corner\":%zu,\"cs\":%zu,\"window\":%zu,",
                      cr.corner.index, cr.corner.config.crossbarSize,
                      cr.corner.config.window);
        out += buf;
        out += "\"stuckFraction\":" + fmtDouble(cr.corner.stuckFraction)
            + ",\"grayZoneScale\":" + fmtDouble(cr.corner.grayZoneScale)
            + ",\"fitA\":" + fmtDouble(cr.corner.fit.a)
            + ",\"fitB\":" + fmtDouble(cr.corner.fit.b)
            + ",\"meanAccuracy\":" + fmtDouble(cr.meanAccuracy)
            + ",\"minAccuracy\":" + fmtDouble(cr.minAccuracy)
            + ",\"maxAccuracy\":" + fmtDouble(cr.maxAccuracy)
            + ",\"p05\":" + fmtDouble(cr.p05)
            + ",\"p95\":" + fmtDouble(cr.p95);
        std::snprintf(buf, sizeof buf, ",\"totalStuck\":%" PRIu64,
                      cr.totalStuck);
        out += buf;
        out += ",\"histogram\":[";
        for (std::size_t b = 0; b < cr.histogram.size(); ++b) {
            if (b)
                out += ',';
            std::snprintf(buf, sizeof buf, "%" PRIu64, cr.histogram[b]);
            out += buf;
        }
        out += "],\"yield\":[";
        for (std::size_t y = 0; y < cr.yield.size(); ++y) {
            const YieldPoint &yp = cr.yield[y];
            if (y)
                out += ',';
            out += "{\"floor\":" + fmtDouble(yp.floor);
            std::snprintf(buf, sizeof buf, ",\"pass\":%" PRIu64,
                          yp.pass);
            out += buf;
            out += ",\"yield\":" + fmtDouble(yp.yield)
                + ",\"wilsonLow\":" + fmtDouble(yp.wilson.low)
                + ",\"wilsonHigh\":" + fmtDouble(yp.wilson.high) + "}";
        }
        out += "],\"counts\":" + aqfp::toJson(cr.totalCounts) + "}";
    }
    out += "]}";
    return out;
}

} // namespace superbnn::core
