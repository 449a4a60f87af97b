/**
 * @file
 * Monte-Carlo reliability/yield scenario sweep.
 *
 * SupeRBNN's accuracy claims (Tables 2/3) assume fault-free hardware at
 * the nominal operating point. This harness asks the fab question
 * instead: across a validated corner grid (stuck-cell fraction x
 * gray-zone temperature x attenuation fit x Cs/L config), what fraction
 * of fabricated chip instances still meets a given accuracy floor? It
 * instantiates many fault-injected chips — each a pure function of
 * (masterSeed, chipIndex) via the counter-based SplitMix64 stream idiom
 * — evaluates each as one task on the shared util::ShardedExecutorPool
 * with per-chip ledger attribution, and reduces to accuracy-vs-yield
 * surfaces: per-corner histograms, yield at configurable accuracy
 * floors with Wilson confidence intervals, and mean/P05/P95 bands.
 *
 * Determinism contract: a sweep's SweepResult — every chip accuracy,
 * stuck-cell count, ledger total, histogram bin and yield bound — is a
 * pure function of (trained model, dataset, base config, grid,
 * options). Chip identity lives in the seeds, not the schedule:
 * results are bit-identical across SUPERBNN_THREADS, every
 * SUPERBNN_SIMD arm, and warm vs cold ProgrammedModelCache states.
 * Fault masks deliberately exclude the corner index (see
 * core::faultMaskSeed), so chip k carries the same physical fault
 * pattern at every operating corner, and masks at a higher stuck
 * fraction are supersets of the same chip's masks at a lower one.
 */

#ifndef SUPERBNN_CORE_SCENARIO_SWEEP_H
#define SUPERBNN_CORE_SCENARIO_SWEEP_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aqfp/attenuation.h"
#include "aqfp/ledger.h"
#include "core/hardware_eval.h"
#include "core/models.h"
#include "crossbar/model_cache.h"
#include "data/dataset.h"

namespace superbnn::core {

/** One (Cs, L) hardware configuration axis point. */
struct ScenarioConfig
{
    std::size_t crossbarSize = 16; ///< Cs
    std::size_t window = 16;       ///< SC bitstream length L
};

/**
 * The corner grid: the cartesian product of every axis. Empty fit /
 * config axes default to the sweep's base attenuation fit / base
 * (Cs, L) at run() time, so the minimal grid is one nominal corner.
 */
struct ScenarioGrid
{
    /// Fraction of LiM cells stuck per chip (fabrication faults).
    std::vector<double> stuckFractions{0.0};
    /// deltaIin multiplier: gray-zone widening at elevated operating
    /// temperature (1.0 = nominal).
    std::vector<double> grayZoneScales{1.0};
    /// Attenuation power-law corners; empty = the base model's fit.
    std::vector<aqfp::PowerLawFit> attenuationFits;
    /// (Cs, L) configurations; empty = the base plan's first entry's.
    std::vector<ScenarioConfig> configs;

    /** @throws std::invalid_argument on an empty or out-of-range axis */
    void validate() const;

    /** Corners per full grid (after defaulting empty axes to 1). */
    std::size_t cornerCount() const;
};

/** One materialized corner of the grid. */
struct ScenarioCorner
{
    std::size_t index = 0; ///< position in deterministic grid order
    double stuckFraction = 0.0;
    double grayZoneScale = 1.0;
    aqfp::PowerLawFit fit;
    ScenarioConfig config;
    /// True when `config` came from an explicit grid.configs axis (as
    /// opposed to defaulting to the sweep base's representative point).
    /// A defaulted config never overrides a heterogeneous base plan's
    /// per-layer geometry; an explicit one always does (the grid axis
    /// is a deliberate uniform override).
    bool configFromGrid = true;
};

/** Monte-Carlo population and reduction options. */
struct SweepOptions
{
    std::uint64_t masterSeed = 0x5eedULL;
    std::size_t chipsPerCorner = 32;
    /// Dataset samples evaluated per chip (0 = the whole dataset).
    std::size_t evalSamples = 64;
    /// Accuracy floors the yield curve is sampled at.
    std::vector<double> accuracyFloors{0.5, 0.7, 0.9};
    /// Histogram bins over accuracy in [0, 1].
    std::size_t histogramBins = 10;
    /// Chip-task concurrency: 0 = striped across the shards of the
    /// process-wide util::ShardedExecutorPool, 1 = sequential,
    /// N > 1 = a private N-thread pool.
    std::size_t threads = 0;
    /// Per-chip gray-zone fabrication spread (sigma of the deltaIin
    /// multiplier), on top of the corner's temperature scale.
    double grayZoneSigma = 0.0;
    /// Names the trained weights in the shared model cache's keys.
    std::string modelTag = "sweep";

    /** @throws std::invalid_argument on out-of-range options */
    void validate() const;
};

/** A two-sided confidence interval on a binomial proportion. */
struct ConfidenceInterval
{
    double low = 0.0;
    double high = 1.0;
};

/**
 * Wilson score interval for @p successes out of @p trials at critical
 * value @p z (default: two-sided 95%). Zero trials yields the vacuous
 * [0, 1]. Preferred over the normal approximation because yield sits
 * near 0 or 1 exactly where the normal interval collapses.
 */
ConfidenceInterval wilsonInterval(std::uint64_t successes,
                                  std::uint64_t trials,
                                  double z = 1.959963984540054);

/** One fault-injected chip instance's measured outcome. */
struct ChipResult
{
    std::uint64_t chip = 0;     ///< chip index within the corner
    double accuracy = 0.0;      ///< hardware accuracy on the eval set
    std::uint64_t stuckCells = 0;
    aqfp::LedgerCounts counts;  ///< whole-chip observed activity
};

/** Yield at one accuracy floor. */
struct YieldPoint
{
    double floor = 0.0;
    std::uint64_t pass = 0; ///< chips with accuracy >= floor
    double yield = 0.0;     ///< pass / chips
    ConfidenceInterval wilson;
};

/** Reduced outcome of one corner's chip population. */
struct CornerResult
{
    ScenarioCorner corner;
    std::vector<ChipResult> chips; ///< in chip-index order
    double meanAccuracy = 0.0;
    double minAccuracy = 0.0;
    double maxAccuracy = 0.0;
    double p05 = 0.0; ///< nearest-rank 5th percentile
    double p95 = 0.0; ///< nearest-rank 95th percentile
    std::vector<std::uint64_t> histogram; ///< histogramBins over [0,1]
    std::vector<YieldPoint> yield;        ///< one per accuracy floor
    aqfp::LedgerCounts totalCounts;       ///< sum over the population
    std::uint64_t totalStuck = 0;
};

/** The full accuracy-vs-yield surface. */
struct SweepResult
{
    std::uint64_t masterSeed = 0;
    std::size_t chipsPerCorner = 0;
    std::size_t evalSamples = 0;
    std::vector<CornerResult> corners; ///< in grid order
};

/**
 * Deterministic JSON of the surface (schema
 * "superbnn-yield-surface-v1"): %.17g floats, fixed key order,
 * locale-independent — shared by bench/yield_surface and the golden
 * regression test so both emit byte-identical text.
 */
std::string toJson(const SweepResult &result);

/**
 * The harness. Holds the trained model, the evaluation dataset and the
 * base hardware configuration by reference/value; the caller keeps
 * model and dataset alive for the harness's lifetime. An optional
 * shared ProgrammedModelCache lets many sweeps (and concurrent chip
 * tasks) build each pristine per-layer model exactly once.
 */
class ScenarioSweep
{
  public:
    /**
     * Per-layer-plan sweep: every chip of every corner is evaluated
     * under @p base's per-layer operating points, with the corner's
     * gray-zone temperature scale applied multiplicatively to every
     * layer's deltaIin. An explicit grid.configs axis still overrides
     * (Cs, L) uniformly across layers; leave it empty to sweep the
     * heterogeneous plan's own geometry.
     * @throws std::invalid_argument via HardwarePlan::validate
     */
    ScenarioSweep(
        const RandomizedMlp &model, const data::Dataset &dataset,
        HardwarePlan base,
        std::shared_ptr<crossbar::ProgrammedModelCache> cache = nullptr);

    /**
     * Run the full grid: corners().size() * chipsPerCorner chip
     * instances, one executor task each.
     * @throws std::invalid_argument via grid/options validate()
     */
    SweepResult run(const ScenarioGrid &grid,
                    const SweepOptions &options) const;

    /** The grid materialized in deterministic corner order. */
    std::vector<ScenarioCorner>
    corners(const ScenarioGrid &grid) const;

    /**
     * Seed of the Rng driving chip (corner, chip)'s evaluation pass —
     * public so tests can reproduce a single chip's
     * HardwareEvaluator::evaluate call bit-exactly.
     */
    static std::uint64_t chipEvalSeed(std::uint64_t master_seed,
                                      std::size_t corner,
                                      std::uint64_t chip);

    /**
     * The HardwarePlan a corner's chips evaluate under: the base
     * plan's layers with the corner's gray-zone scale folded into
     * every entry's deltaIin, (Cs, L) overridden uniformly when the
     * corner's config came from an explicit grid axis, and threads
     * pinned to 1 (one chip = one executor task).
     */
    HardwarePlan cornerPlan(const ScenarioCorner &corner) const;

  private:
    const RandomizedMlp *model_;
    const data::Dataset *dataset_;
    HardwarePlan base;
    std::shared_ptr<crossbar::ProgrammedModelCache> cache;

    ChipResult runChip(const ScenarioCorner &corner,
                       const SweepOptions &options,
                       std::uint64_t chip) const;
};

} // namespace superbnn::core

#endif // SUPERBNN_CORE_SCENARIO_SWEEP_H
