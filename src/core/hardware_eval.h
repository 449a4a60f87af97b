/**
 * @file
 * Hardware-in-the-loop evaluation: runs a trained SupeRBNN model on the
 * crossbar + stochastic-computing simulator (paper Fig. 7: weights
 * pre-stored per crossbar, BN matched into neuron thresholds, SC-based
 * accumulation between crossbars, binary activations between layers).
 *
 * This is the measurement path behind Figures 10 and 11 and the accuracy
 * columns of Tables 2 and 3.
 */

#ifndef SUPERBNN_CORE_HARDWARE_EVAL_H
#define SUPERBNN_CORE_HARDWARE_EVAL_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "aqfp/energy.h"
#include "aqfp/ledger.h"
#include "core/bn_matching.h"
#include "core/hardware_plan.h"
#include "core/models.h"
#include "crossbar/mapper.h"
#include "crossbar/model_cache.h"
#include "crossbar/tile_executor.h"
#include "data/dataset.h"

namespace superbnn::core {

/**
 * Seed of the stuck-cell fault mask of tile (rt, ct) of mapped layer
 * @p layer (head = number of hidden layers) on chip @p chip_index of a
 * Monte-Carlo population rooted at @p master_seed. A pure SplitMix64
 * chain of its arguments — independent of draw order, thread count, or
 * which corner the chip is evaluated at — so the same chip index
 * carries the same physical fault pattern everywhere it appears.
 */
std::uint64_t faultMaskSeed(std::uint64_t master_seed,
                            std::uint64_t chip_index, std::size_t layer,
                            std::size_t rt, std::size_t ct);

/**
 * Ledger-priced, reconciled energy accounting for one mapped layer:
 * the raw activity observed while the simulator ran, that activity
 * priced per image with the Table-1 cost model, the analytic
 * prediction for the same geometry, and their component-wise relative
 * differences.
 */
struct LayerEnergyReport
{
    std::string name;
    aqfp::LedgerCounts counts;   ///< observed totals since mapping/reset
    aqfp::EnergyReport measured; ///< ledger-priced, per image
    aqfp::EnergyReport analytic; ///< analytic model, same geometry
    aqfp::EnergyDelta delta;     ///< reconcile(measured, analytic)
    /// False when imagesObserved() was 0: there was nothing to
    /// normalize per image, so `measured` and `delta` are zeroed
    /// placeholders (NOT a measurement of zero energy) while `counts`
    /// and `analytic` are still real.
    bool measuredValid = false;
};

/**
 * Maps a trained model onto simulated AQFP hardware and evaluates it.
 *
 * Every forward pass is instrumented: each mapped layer (and the head)
 * owns an aqfp::HardwareLedger that accumulates the observed hardware
 * activity, so accuracy evaluation doubles as energy measurement — see
 * energyReports().
 *
 * Noise: every sample is scored with its own seed, and the sampled
 * stochastic-computing noise depends only on (sample, seed) — never on
 * batch makeup, thread count, shard or SIMD arm. evaluate() draws those
 * seeds from its Rng in sample order.
 *
 * Concurrency: the per-layer ledgers are safe to record into from
 * concurrent forwards (relaxed-atomic slots — see aqfp::HardwareLedger),
 * so concurrent classScoresSeeded calls on the SAME evaluator are
 * supported and their *totals* stay exact; that is how the sharded
 * InferenceService runs one sub-batch per NUMA shard. What stays
 * single-writer is the ledger *snapshot window*: a before/after
 * totalLedgerCounts() delta (the service's per-request attribution,
 * energyReports' per-image normalization) is only meaningful when no
 * OTHER evaluation stream records into these ledgers between the two
 * snapshots — the service guarantees that by being its evaluator's
 * sole user. Mutating calls (mapMlp/mapCnn, injectVariationSeeded,
 * resetLedgers) are never safe to race with evaluation.
 */
class HardwareEvaluator
{
  public:
    /**
     * Per-layer plan evaluator: each mapped cell i (hidden layers in
     * network order, head last) is mapped at plan entry i's (Cs,
     * deltaIin) and executed at its window L_i, with ledger draw
     * accounting following suit (Cs_i * L_i raw draws per tile
     * observation). A uniform (single-entry) plan — what a
     * HardwareConfig converts to — broadcasts; a multi-entry plan must
     * match the mapped model's cell count (mapMlp/mapCnn throw via
     * HardwarePlan::resolve otherwise).
     * @throws std::invalid_argument via HardwarePlan::validate
     */
    HardwareEvaluator(aqfp::AttenuationModel atten, HardwarePlan plan);

    /** Map a trained MLP (reads weights, folds BN into thresholds). */
    void mapMlp(const RandomizedMlp &model);

    /**
     * mapMlp through a ProgrammedModelCache: each layer's pristine
     * thresholded MappedLayer is built at most once per @p tag (a
     * caller-chosen name identifying the trained weights) and shared
     * via the cache's named section; this evaluator installs a private
     * copy it may then mutate (fault injection). The cache key encodes
     * tag, layer, Cs, and the deltaIin/attenuation-fit bit patterns,
     * so one cache can serve every corner of a sweep; a cache-backed
     * map is bit-identical to a direct mapMlp(model) (warm or cold).
     * A null @p cache degrades to the direct path.
     */
    void mapMlp(const RandomizedMlp &model,
                crossbar::ProgrammedModelCache *cache,
                const std::string &tag);

    /** Map a trained CNN. */
    void mapCnn(const RandomizedCnn &model);

    /**
     * Class scores: the head crossbar's decoded APC counts scaled by
     * the head's alpha (a small digital post-multiply). Sample i draws
     * all of its stochastic-computing noise from its own Rng stream
     * seeded with @p seeds[i]; the mapped tiles are walked once per
     * layer for the whole batch, and tile observations of all samples
     * run as one parallel phase on the executor's thread pool.
     *
     * Contract (the one noise rule of this evaluator, and the serving
     * layer's determinism guarantee, see docs/SERVING.md): a sample's
     * scores depend only on (sample, seed) — entry i is bit-identical
     * to `classScoresSeeded({samples[i]}, {seeds[i]})[0]` for ANY
     * batch composition, batch size, thread count, shard and SIMD arm,
     * so coalescing requests into executor megabatches never changes
     * any response.
     *
     * Mixed model kinds are supported (MLP and CNN evaluators both
     * route through it). Records into the per-layer ledgers.
     *
     * @param samples (1, D) or (1, C, H, W) float inputs
     * @throws std::invalid_argument when seeds.size() != samples.size()
     * @throws std::logic_error when no model is mapped
     */
    std::vector<std::vector<double>>
    classScoresSeeded(const std::vector<Tensor> &samples,
                      const std::vector<std::uint64_t> &seeds) const;

    /**
     * Argmax of classScoresSeeded (same contract: entry i depends only
     * on (samples[i], seeds[i])).
     * @throws std::invalid_argument when seeds.size() != samples.size()
     * @throws std::logic_error when no model is mapped
     */
    std::vector<std::size_t>
    predictSeeded(const std::vector<Tensor> &samples,
                  const std::vector<std::uint64_t> &seeds) const;

    /**
     * Accuracy over (a subset of) a dataset. One seed per sample is
     * drawn from @p rng in sample order (`rng.raw()()`), and the
     * samples are scored through classScoresSeeded in chunks of the
     * plan's evalBatch so programmed tiles are reused across a chunk.
     * Because each sample's noise depends only on (sample, seed), the
     * result is the same for every evalBatch.
     * @param max_samples cap (0 = all)
     * @throws std::logic_error when no model is mapped (and there is at
     *         least one sample to score)
     */
    double evaluate(const data::Dataset &dataset, std::size_t max_samples,
                    Rng &rng) const;

    /** Total crossbar tiles across all mapped layers. */
    std::size_t totalCrossbars() const;

    /**
     * Per-layer energy/latency reports priced from the activity the
     * ledgers observed since mapping (or the last resetLedgers()),
     * normalized per image, plus the analytic prediction for each
     * layer's geometry and the reconciliation delta. The mapped layers
     * come first (in network order), the classifier head last.
     *
     * When no samples have been evaluated since mapping / the last
     * resetLedgers(), there is nothing to normalize per image: the
     * reports come back with real counts (all zero) and analytic
     * predictions but zeroed measured/delta components and
     * LayerEnergyReport::measuredValid == false, instead of dividing
     * by an image count of zero.
     *
     * @param frequency_ghz  AQFP clock rate the counts are priced at
     * @throws std::logic_error when no model is mapped
     */
    std::vector<LayerEnergyReport>
    energyReports(double frequency_ghz = 5.0) const;

    /** Images evaluated since mapping / the last resetLedgers(). */
    std::uint64_t
    imagesObserved() const
    {
        return images_.load(std::memory_order_relaxed);
    }

    /** Zero every layer ledger and the image counter. */
    void resetLedgers();

    /**
     * Robustness experiments and Monte-Carlo yield sweeps: apply
     * fabrication gray-zone variation and/or stuck-cell faults to
     * every mapped tile (including the head). Each tile's stuck-cell
     * mask is seeded per
     * faultMaskSeed(master_seed, chip_index, layer, rt, ct) through
     * the counter-stream path (crossbar::CrossbarArray::
     * injectStuckCellsSeeded), and each tile's gray-zone variation
     * draws from its own Rng derived from the same seed — so the
     * injected chip instance is a pure function of
     * (mapped model, master_seed, chip_index), byte-identical at any
     * thread count and independent of every other chip. Returns the
     * number of stuck cells injected.
     */
    std::size_t injectVariationSeeded(double gray_zone_sigma,
                                      double stuck_cell_fraction,
                                      std::uint64_t master_seed,
                                      std::uint64_t chip_index);

    /**
     * Sum of every layer ledger's totals (mapped layers + head): the
     * whole-chip observed activity since mapping / the last
     * resetLedgers(). Deterministic integers — the yield sweep's
     * per-chip attribution.
     */
    aqfp::LedgerCounts totalLedgerCounts() const;

    /** The per-layer plan this evaluator runs (uniform or not). */
    const HardwarePlan &plan() const { return plan_; }

    /**
     * Pin every executor of this evaluator to an explicit shard pool
     * (one NUMA node's ThreadPool from util::ShardedExecutorPool), so
     * its tile loops and buffers stay node-local. Applies to the
     * current executors and to any rebuilt by a later mapMlp/mapCnn;
     * null reverts to the plan's own threads setting. Scores are
     * bit-identical regardless — sharding only moves work, never
     * changes it. Note plan threads==1 cells stay sequential; the
     * shard handle replaces only pooled execution.
     */
    void setExecutorPool(std::shared_ptr<util::ThreadPool> shard_pool);

    /**
     * The plan resolved against the mapped model: one entry per mapped
     * cell (hidden layers in order, head last). Empty before
     * mapMlp/mapCnn.
     */
    const std::vector<LayerHardwareConfig> &resolvedLayers() const
    {
        return resolved_;
    }

  private:
    struct MappedCell
    {
        crossbar::MappedLayer layer;
        std::vector<bool> flip;
        // CNN geometry (unused for MLP cells).
        std::size_t inChannels = 0;
        std::size_t inSide = 0;
        std::size_t outChannels = 0;
        bool pooled = false;
    };

    enum class Kind { None, Mlp, Cnn };

    aqfp::AttenuationModel atten;
    HardwarePlan plan_;
    /// plan_ resolved against the mapped model (one entry per cell,
    /// head last); filled by mapMlp/mapCnn.
    std::vector<LayerHardwareConfig> resolved_;
    /// One TileExecutor per DISTINCT window among resolved_ (a uniform
    /// plan builds exactly one); execIndex_[i] is cell i's executor.
    std::vector<crossbar::TileExecutor> executors_;
    std::vector<std::size_t> execIndex_;
    /// Explicit shard handle from setExecutorPool (null = none);
    /// re-applied whenever resolvePlan rebuilds the executors.
    std::shared_ptr<util::ThreadPool> shardPool_;
    Kind kind = Kind::None;
    std::vector<MappedCell> mapped;
    crossbar::MappedLayer headMapped;
    std::vector<float> headAlpha;
    /// One ledger per mapped layer plus one for the head (a deque
    /// because HardwareLedger is pinned in place by its atomics).
    /// Mutable: observation during const evaluation is bookkeeping,
    /// not model state.
    mutable std::deque<aqfp::HardwareLedger> ledgers;
    mutable std::atomic<std::uint64_t> images_{0};

    /** Allocate one fresh ledger per mapped layer + head. */
    void initLedgers();
    /** (Re)apply shardPool_ — or the plan's threads — to executors_. */
    void applyExecutorPool();
    /**
     * Resolve plan_ against @p cell_count cells and (re)build the
     * per-distinct-window executors + cell->executor index.
     * @throws std::invalid_argument via HardwarePlan::resolve
     */
    void resolvePlan(std::size_t cell_count);
    /** The executor running mapped cell @p i (head = mapped.size()). */
    const crossbar::TileExecutor &executorFor(std::size_t i) const
    {
        return executors_[execIndex_[i]];
    }
    /** LayerSpec mirroring mapped layer @p i (head = mapped.size()). */
    aqfp::LayerSpec layerSpec(std::size_t i) const;

    /**
     * Per-request root-draw engines of one batched evaluation: each
     * sample's draw sequence is pinned to its own seed, so batched ==
     * singleton bit-exactly. Defined in the .cc.
     */
    struct RootSource;

    std::vector<int> binarizeInput(const Tensor &sample) const;
    std::vector<std::vector<double>>
    runMlpBatch(const std::vector<std::vector<int>> &inputs,
                RootSource &roots) const;
    std::vector<std::vector<double>>
    runCnnBatch(const std::vector<std::vector<int>> &inputs,
                RootSource &roots) const;
};

} // namespace superbnn::core

#endif // SUPERBNN_CORE_HARDWARE_EVAL_H
