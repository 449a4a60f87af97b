/**
 * @file
 * Ledger-driven, cache-backed design-space explorer.
 *
 * The paper's Section 5.4 co-optimization of the accelerator
 * configuration chooses crossbar size Cs, gray-zone width deltaIin and
 * SC bitstream length L by (1) constraining Cs/L to the range meeting
 * the energy-efficiency demand via the energy model, then (2)
 * minimizing the average mismatch error (or maximizing a measured
 * accuracy callback) inside the feasible set — ranking by analytic
 * energy + AME alone; since the hardware ledger (PR 5) the
 * simulator measures what each configuration actually costs — including
 * the partial-tail-column-group SC savings the analytic model
 * systematically overprices. DesignSpaceExplorer closes that loop in
 * the style of cost-function-driven AQFP tech mapping:
 *
 *  1. enumerate the CoOptSpace grid (validated, deterministic order);
 *  2. filter by the analytic feasibility constraints (cheap, no
 *     simulation) — feasibility is a separate stage, never entangled
 *     with ranking;
 *  3. evaluate the feasible candidates — AME and (optionally) the
 *     ledger-measured energy report — striped across the shards of
 *     the shared util::ShardedExecutorPool, with mapped models and
 *     calibration counts reused across candidates through the
 *     ProgrammedModelCache / MeasuredCostProbe instead of re-derived
 *     per point;
 *  4. rank under a pluggable CostFn (analytic energy, measured energy,
 *     AME, accuracy loss, weighted combinations) and/or extract the
 *     Pareto front of two competing costs.
 *
 * Determinism contract: explore() results are bit-identical across
 * thread counts and cache on/off — every candidate is written to its
 * own pre-sized slot, AME integration and ledger replay are
 * value-deterministic, and the accuracy callback (user code of unknown
 * thread safety) runs sequentially in candidate order. Rankings are
 * stable sorts over that fixed order, so ties resolve identically
 * everywhere.
 */

#ifndef SUPERBNN_CORE_EXPLORER_H
#define SUPERBNN_CORE_EXPLORER_H

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "aqfp/energy.h"
#include "aqfp/measured_cost.h"
#include "core/ame.h"
#include "core/hardware_plan.h"
#include "crossbar/model_cache.h"

namespace superbnn::core {

/**
 * The co-optimization search space and constraints.
 *
 * Axis values are enumerated exactly as given (outer-to-inner loop
 * order: crossbarSizes, bitstreamLengths, grayZones), so candidate
 * ordering — and therefore every ranking tie-break — is deterministic.
 */
struct CoOptSpace
{
    std::vector<std::size_t> crossbarSizes = {8, 16, 18, 36, 72};
    std::vector<double> grayZones = {0.8, 1.6, 2.4, 3.2, 4.0};
    std::vector<std::size_t> bitstreamLengths = {1, 2, 4, 8, 16, 32};
    double frequencyGhz = 5.0;
    /// Feasibility constraint: device efficiency must be at least this.
    double minTopsPerWatt = 0.0;
    /// Optional cap on total JJ budget (0 = unlimited).
    std::size_t maxTotalJj = 0;

    /**
     * Validate the space, mirroring WorkloadSpec::validate(): every
     * axis must be non-empty with no duplicate values, crossbar sizes
     * and bitstream lengths must be >= 1, gray zones must be positive
     * and finite, the frequency must be positive and finite, and
     * minTopsPerWatt must be non-negative. Throws std::invalid_argument
     * with a message naming the offending field.
     */
    void validate() const;
};

/** One evaluated candidate. */
struct CoOptCandidate
{
    aqfp::AcceleratorConfig config;
    /// Analytic energy prediction (always computed: feasibility filters
    /// on it before any expensive evaluation runs).
    aqfp::EnergyReport energy;
    double ame = 0.0;
    std::optional<double> accuracy; ///< set when a callback was used
    /// Ledger-measured energy report (set when the explorer ran with
    /// ExploreOptions::measure — see aqfp::MeasuredCostProbe).
    std::optional<aqfp::EnergyReport> measured;
    /// Value of the cost function a ranking was produced under (filled
    /// by DesignSpaceExplorer::ranked/best; 0 until then).
    double cost = 0.0;
};

/** Callback measuring accuracy of one hardware configuration. */
using AccuracyFn =
    std::function<double(const aqfp::AcceleratorConfig &)>;

/**
 * Thrown when a CoOptSpace's constraints exclude every candidate and a
 * single best was requested (DesignSpaceExplorer::best,
 * exploreHeterogeneous). explore instead returns an empty vector.
 */
class NoFeasibleCandidateError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Cost of one evaluated candidate; LOWER IS BETTER. Cost functions
 * compose freely (see costs::weighted) — the lattice the explorer
 * ranks under.
 */
using CostFn = std::function<double(const CoOptCandidate &)>;

namespace costs {

/** Analytic energy per image (aJ) — the paper's Section 5.4 proxy. */
CostFn analyticEnergy();

/**
 * Ledger-measured energy per image (aJ). Requires candidates evaluated
 * with ExploreOptions::measure; throws std::logic_error on a candidate
 * without a measured report (a silent fallback to the analytic value
 * would defeat the point of measuring).
 */
CostFn measuredEnergy();

/** Analytic latency per image (us). */
CostFn analyticLatency();

/** Average mismatch error (Eq. 18). */
CostFn ame();

/**
 * 1 - measured accuracy. Requires candidates evaluated with an
 * ExploreOptions::accuracy callback; throws std::logic_error otherwise.
 */
CostFn accuracyLoss();

/**
 * Weighted sum of cost terms: sum_i weight_i * term_i(candidate).
 * Weights may be negative (turning a cost into a reward). Throws
 * std::invalid_argument when no terms are given.
 */
CostFn weighted(std::vector<std::pair<CostFn, double>> terms);

} // namespace costs

/** Evaluation knobs for one explore() call. */
struct ExploreOptions
{
    /// Measure every feasible candidate with the MeasuredCostProbe
    /// (fills CoOptCandidate::measured). Calibration replays are cached
    /// per distinct (geometry, Cs, L) — candidates differing only in
    /// deltaIin or frequency are priced from the same counts.
    bool measure = false;
    /// Optional accuracy callback, invoked once per feasible candidate,
    /// sequentially in enumeration order (user callbacks need not be
    /// thread-safe). Fills CoOptCandidate::accuracy.
    AccuracyFn accuracy;
    /// Concurrency of the evaluation fan-out: 0 (default) stripes it
    /// across the shards of the process-wide util::ShardedExecutorPool,
    /// 1 = sequential, N > 1 = a private N-thread pool. Results are
    /// bit-identical regardless.
    std::size_t threads = 0;
};

/**
 * One per-layer-plan candidate of the heterogeneous search stage: a
 * grid operating point per workload layer plus the combined reports a
 * CostFn ranks it by. The combined analytic/measured reports are
 * per-layer evaluateLayer/measureLayer results folded through
 * EnergyModel::combineLayerReports — the same fold evaluate() and
 * measureWorkload() use, so a uniform plan's reports match the
 * homogeneous candidate's bit-exactly. `ame` is the ops-weighted mean
 * of the per-point AME (weight = layer ops / workload ops).
 */
struct PlanCandidate
{
    /// One operating point per workload layer, in workload order (the
    /// classifier head last when the workload lists it last).
    std::vector<aqfp::AcceleratorConfig> layers;
    aqfp::EnergyReport energy;   ///< analytic, combined across layers
    aqfp::EnergyReport measured; ///< ledger-measured, combined
    double ame = 0.0;            ///< ops-weighted mean mismatch error
    double cost = 0.0;           ///< value under the ranking CostFn

    /**
     * The executable core::HardwarePlan of this candidate: one
     * (Cs, L, deltaIin) entry per layer, default execution knobs.
     * Feed it to HardwareEvaluator / ScenarioSweep to run the plan.
     */
    HardwarePlan toHardwarePlan() const;
};

/**
 * Outcome of DesignSpaceExplorer::exploreHeterogeneous: the best
 * homogeneous candidate (the descent seed), the per-layer plan the
 * coordinate descent converged to, both costs, and the pruning
 * statistics (plans actually costed vs the full cross-product).
 */
struct HeterogeneousExploreResult
{
    CoOptCandidate seed; ///< best homogeneous candidate (cost filled)
    PlanCandidate plan;  ///< coordinate-descent winner (cost filled)
    /// The seed's cost through the plan-shim pathway (bit-identical to
    /// seed.cost for pure energy costs; the descent's baseline, so
    /// planCost <= seedCost always holds).
    double seedCost = 0.0;
    double planCost = 0.0;
    /// Plans actually assembled and costed (descent visits
    /// sweeps * layers * (gridPoints - 1) + 1 at most).
    std::size_t evaluatedPlans = 0;
    /// gridPoints ^ layers — what exhaustive enumeration would cost
    /// (as a double: it overflows integers for real workloads).
    double crossProduct = 0.0;
    std::size_t sweeps = 0; ///< descent sweeps until convergence
};

/** Cost-function-driven explorer over a CoOptSpace. */
class DesignSpaceExplorer
{
  public:
    /**
     * @param atten        attenuation model (AME + replay layers)
     * @param energy_model analytic pricing model
     * @param ame_options  AME integration knobs
     * @param cache        shared mapped-model cache; nullptr allocates
     *                     a private one
     */
    explicit DesignSpaceExplorer(
        aqfp::AttenuationModel atten,
        aqfp::EnergyModel energy_model = aqfp::EnergyModel(),
        AmeOptions ame_options = {},
        std::shared_ptr<crossbar::ProgrammedModelCache> cache = nullptr);

    /**
     * Stage 1: the full candidate grid of @p space in deterministic
     * order (crossbarSizes outer, then bitstreamLengths, then
     * grayZones). Validates the space.
     */
    static std::vector<aqfp::AcceleratorConfig>
    gridConfigs(const CoOptSpace &space);

    /**
     * Stages 1-3: enumerate, feasibility-filter, evaluate. Feasible
     * candidates come back in grid order with analytic energy and AME
     * filled, plus measured reports / accuracy when the options ask
     * for them. An empty result means the constraints excluded
     * everything (not an error at this stage).
     */
    std::vector<CoOptCandidate>
    explore(const aqfp::WorkloadSpec &workload, const CoOptSpace &space,
            const ExploreOptions &options = {}) const;

    /**
     * Heterogeneous search stage: greedy per-layer coordinate descent
     * over the CoOptSpace grid, seeded from the best homogeneous
     * candidate under @p cost (the full cross-product of per-layer
     * choices explodes combinatorially — the result reports
     * evaluatedPlans vs crossProduct so callers can log the pruning).
     *
     * Stage order: explore() runs with measurement forced ON (plan
     * shims always carry measured reports, keeping homogeneous and
     * heterogeneous candidates comparable under measured costs), the
     * best homogeneous candidate seeds a uniform per-layer selection,
     * and each sweep re-picks every layer's grid point holding the
     * others fixed, accepting strict improvements only (ties keep the
     * earlier selection, so convergence is deterministic). Plans whose
     * combined analytic report violates minTopsPerWatt / maxTotalJj
     * are skipped — the same stage-2 feasibility rules, applied to the
     * combined plan.
     *
     * Because acceptance starts from the seed's own shim cost,
     * planCost <= seedCost structurally — the descent can only improve
     * on the homogeneous optimum, never regress.
     *
     * Accuracy-based costs are unsupported here (a per-layer plan has
     * no single AcceleratorConfig to hand an AccuracyFn): the shim
     * carries no accuracy, so costs::accuracyLoss throws.
     *
     * @throws NoFeasibleCandidateError when the homogeneous stage
     *         excludes every candidate
     */
    HeterogeneousExploreResult
    exploreHeterogeneous(const aqfp::WorkloadSpec &workload,
                         const CoOptSpace &space,
                         const ExploreOptions &options,
                         const CostFn &cost) const;

    /**
     * Stage 4: candidates stably sorted by ascending cost (ties keep
     * grid order), each candidate's CoOptCandidate::cost filled.
     */
    static std::vector<CoOptCandidate>
    ranked(std::vector<CoOptCandidate> candidates, const CostFn &cost);

    /**
     * The minimal-cost candidate (first in grid order among ties).
     * @throws NoFeasibleCandidateError when @p candidates is empty
     */
    static CoOptCandidate best(const std::vector<CoOptCandidate> &candidates,
                               const CostFn &cost);

    /**
     * Pareto front of two competing costs (both minimized): candidates
     * no other candidate weakly dominates (<= on both, < on at least
     * one). Returned sorted by ascending @p cost_a, ties by @p cost_b,
     * then grid order — deterministic. Typical axes: energy vs AME, or
     * measured energy vs accuracy loss.
     */
    static std::vector<CoOptCandidate>
    paretoFront(const std::vector<CoOptCandidate> &candidates,
                const CostFn &cost_a, const CostFn &cost_b);

    /** The measured-cost probe (shared calibration/count caches). */
    const aqfp::MeasuredCostProbe &probe() const { return probe_; }

    /** The mapped-model cache (never null; feeds bench cache columns). */
    const std::shared_ptr<crossbar::ProgrammedModelCache> &
    modelCache() const
    {
        return probe_.modelCache();
    }

  private:
    aqfp::AttenuationModel atten;
    aqfp::EnergyModel energy;
    AmeAnalyzer ameAnalyzer;
    aqfp::MeasuredCostProbe probe_;
};

} // namespace superbnn::core

#endif // SUPERBNN_CORE_EXPLORER_H
