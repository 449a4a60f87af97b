/**
 * @file
 * Per-layer heterogeneous hardware operating points.
 *
 * The paper's Section 5.4 co-optimization picks ONE (Cs, deltaIin, L)
 * point for the whole network, and until PR 9 the stack hard-coded
 * that assumption in a single global HardwareConfig. The ledger (PR 5)
 * shows the assumption leaves energy on the table: partial tail column
 * groups make the measured SC term scale with each layer's
 * fanOut / (colTiles * Cs) ratio, so the energy-optimal Cs/L genuinely
 * differs per layer. A HardwarePlan therefore carries one
 * LayerHardwareConfig per mapped network cell (hidden layers in order,
 * classifier head last) plus the execution knobs every layer shares,
 * and the whole evaluation stack (mapper, executor windows, ledger
 * pricing, scenario sweep, explorer) resolves against it.
 *
 * A HardwareConfig is shorthand for a uniform plan: it converts
 * implicitly to a single-entry broadcast HardwarePlan, which is how
 * every uniform call site spells its operating point. Heterogeneous
 * plans obey the same determinism contract as everything else: results
 * are bit-identical across thread counts, SIMD arms, batch splits and
 * warm/cold model caches.
 */

#ifndef SUPERBNN_CORE_HARDWARE_PLAN_H
#define SUPERBNN_CORE_HARDWARE_PLAN_H

#include <cstddef>
#include <vector>

namespace superbnn::core {

/**
 * One operating point for the whole network: shorthand for a uniform
 * HardwarePlan, to which it converts implicitly.
 *
 * Remains an aggregate on purpose — call sites brace-initialize it
 * positionally — so it carries no constructor or validation of its
 * own; HardwarePlan validates it on conversion.
 */
struct HardwareConfig
{
    std::size_t crossbarSize = 16;   ///< Cs
    std::size_t window = 16;         ///< SC bitstream length L
    double deltaIinUa = 2.4;         ///< neuron gray-zone width
    bool exactApc = false;           ///< ablation: exact parallel counter
    double dropFraction = 0.25;      ///< APC approximation level
    /// Executor concurrency (same convention as HardwarePlan::threads).
    std::size_t threads = 0;
    /// Samples evaluated per batched executor pass in evaluate().
    std::size_t evalBatch = 8;
};

/**
 * The operating point of ONE mapped layer of a HardwarePlan: the three
 * co-optimized knobs that may differ per layer. Everything else
 * (APC mode, drop fraction, threading, eval batching) is execution
 * machinery shared by the whole plan.
 */
struct LayerHardwareConfig
{
    std::size_t crossbarSize = 16; ///< Cs of this layer's tiles
    std::size_t window = 16;       ///< SC bitstream length L of this layer
    double deltaIinUa = 2.4;       ///< this layer's neuron gray-zone width

    /**
     * Reject points that would be downstream UB instead of a
     * simulation: crossbarSize == 0, window == 0, or a non-finite /
     * non-positive deltaIinUa.
     * @throws std::invalid_argument naming the offending field
     */
    void validate() const;
};

bool operator==(const LayerHardwareConfig &a, const LayerHardwareConfig &b);
bool operator!=(const LayerHardwareConfig &a, const LayerHardwareConfig &b);

/**
 * A resolved per-layer hardware plan: one LayerHardwareConfig per
 * network cell (hidden layers in network order, classifier head last)
 * plus the shared execution knobs.
 *
 * A single-entry plan is a BROADCAST: it applies its one point to every
 * cell of whatever model is mapped (what a HardwareConfig converts
 * to). A multi-entry plan must match the mapped model's cell count
 * exactly — resolve() throws otherwise, naming both counts.
 *
 * Construction validates every entry and the shared knobs (satellite
 * contract: malformed plans throw std::invalid_argument naming the
 * field instead of reaching downstream UB). Members stay public for
 * ergonomic tweaking after construction; revalidation happens at the
 * consuming constructor (HardwareEvaluator / ScenarioSweep).
 */
struct HardwarePlan
{
    /// Per-cell operating points; size 1 = broadcast to every cell.
    std::vector<LayerHardwareConfig> layers;
    bool exactApc = false;      ///< shared: exact parallel counter
    double dropFraction = 0.25; ///< shared: APC approximation level
    /// Shared executor concurrency: 0 (default) shares the process-wide
    /// pool, shard 0 of util::ShardedExecutorPool (sized from
    /// SUPERBNN_THREADS / hardware threads when that pool is first
    /// created), 1 = sequential, N > 1 = a private N-thread pool.
    std::size_t threads = 0;
    /// Shared samples per batched executor pass in evaluate().
    std::size_t evalBatch = 8;

    /** The uniform default plan (HardwareConfig{} broadcast). */
    HardwarePlan();

    /**
     * Uniform plan: broadcast @p config's operating point to every
     * layer and take its execution knobs. Implicit, so a HardwareConfig
     * passes wherever a plan is expected.
     * @throws std::invalid_argument via validate()
     */
    HardwarePlan(const HardwareConfig &config);

    /**
     * Heterogeneous plan: one entry per network cell (hidden layers in
     * order, head last), default execution knobs; set those on the
     * plan afterwards.
     * @throws std::invalid_argument on an empty entry list or an
     *         invalid entry (field-naming message)
     */
    explicit HardwarePlan(std::vector<LayerHardwareConfig> layer_points);

    /** True for a single-entry broadcast plan. */
    bool uniform() const { return layers.size() == 1; }

    /**
     * Re-run construction validation (for plans mutated after
     * construction). @throws std::invalid_argument naming the field
     */
    void validate() const;

    /**
     * The per-cell operating points for a model of @p cell_count cells
     * (mapped hidden layers + head): a broadcast copy for a uniform
     * plan, the entries themselves when the counts match.
     * @throws std::invalid_argument when a multi-entry plan's size does
     *         not equal @p cell_count (message carries both counts)
     */
    std::vector<LayerHardwareConfig> resolve(std::size_t cell_count) const;
};

bool operator==(const HardwarePlan &a, const HardwarePlan &b);
bool operator!=(const HardwarePlan &a, const HardwarePlan &b);

} // namespace superbnn::core

#endif // SUPERBNN_CORE_HARDWARE_PLAN_H
