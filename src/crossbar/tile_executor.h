/**
 * @file
 * Execution of a mapped BNN layer over its crossbar tiles with the
 * SC-based accumulation module (paper Fig. 6b, Fig. 7).
 *
 * For each output column group, every row tile observes its column
 * neurons for L cycles (producing stochastic-number bitstreams); the
 * AccumulationModule APC-sums the per-cycle bits across row tiles and a
 * comparator yields the binary activation driving the next layer.
 *
 * Execution is threaded and batched. The (rowTile, colTile) tile
 * observations of a forward pass are independent, so they run as
 * parallel tasks on a util::ThreadPool — by default the process-wide
 * shared pool, shard 0 of util::ShardedExecutorPool, so any number of
 * executors reuse one set of worker threads — each writing its streams
 * into its own slot of a preallocated scratch table; the pool's
 * barrier then separates observation from the (also parallel)
 * per-column-group accumulation merge. Determinism does not depend on
 * the thread count: every (sample, tile) task draws from its own
 * counter-based RNG stream (sc::detail::CounterStream) whose 8-byte
 * seed mixes one root draw per sample (taken from the caller's Rng in
 * sample order) with the tile coordinates. Consequences:
 *
 *  - any thread count, pool sharing arrangement, and SIMD dispatch arm
 *    produces bit-identical outputs, and
 *  - a batched forward of N samples is bit-identical to N consecutive
 *    single-sample forwards from the same starting Rng state (each
 *    single forward consumes exactly one root draw).
 *
 * Forward passes can additionally report their observed hardware
 * activity (tile cycles, Bernoulli draws, APC merges, serialization
 * steps, buffer traffic) into an aqfp::HardwareLedger, which
 * aqfp::energy prices with the Table-1 cost model — the instrumented
 * counterpart of the analytic energy estimator. Ledger totals obey the
 * same determinism contract as the outputs.
 */

#ifndef SUPERBNN_CROSSBAR_TILE_EXECUTOR_H
#define SUPERBNN_CROSSBAR_TILE_EXECUTOR_H

#include <cstddef>
#include <memory>
#include <vector>

#include "aqfp/ledger.h"
#include "crossbar/mapper.h"
#include "sc/accumulation.h"
#include "sc/bitstream_batch.h"
#include "util/thread_pool.h"

namespace superbnn::crossbar {

/** Executes MappedLayers on the simulated hardware. */
class TileExecutor
{
  public:
    /**
     * @param window         SC observation window length L
     * @param use_exact_apc  ablation: exact instead of approximate APC
     * @param drop_fraction  APC approximation aggressiveness
     * @param threads        executor concurrency: 0 (default) shares
     *                       the process-wide pool, shard 0 of
     *                       util::ShardedExecutorPool (sized from
     *                       SUPERBNN_THREADS / hardware concurrency
     *                       when that pool is first created);
     *                       1 = sequential; N > 1 = a private pool of
     *                       N threads
     */
    explicit TileExecutor(std::size_t window, bool use_exact_apc = false,
                          double drop_fraction = 0.25,
                          std::size_t threads = 0);

    /**
     * Full stochastic forward pass of one layer.
     *
     * @param layer        the mapped layer (with thresholds installed)
     * @param activations  +/-1 inputs, length layer.fanIn
     * @param rng          randomness source (device noise); exactly one
     *                     raw draw is consumed as the per-sample root
     *                     seed
     * @param ledger       optional hardware-activity ledger: when
     *                     non-null the pass reports observed tile
     *                     cycles, Bernoulli draws, APC merges,
     *                     column-group serialization steps and buffer
     *                     traffic into it (see aqfp::HardwareLedger;
     *                     totals are bit-identical across thread
     *                     counts, SIMD arms, and batch splits)
     * @return +/-1 outputs, length layer.fanOut
     */
    std::vector<int> forward(const MappedLayer &layer,
                             const std::vector<int> &activations,
                             Rng &rng,
                             aqfp::HardwareLedger *ledger = nullptr) const;

    /**
     * Batched forward: programmed tiles are mapped once and reused for
     * every sample; tile observations for all (sample, rowTile,
     * colTile) combinations run as one parallel phase. Bit-identical to
     * calling forward() per sample with the same starting @p rng state.
     *
     * @param layer   the mapped layer
     * @param batch   +/-1 input vectors, each of length layer.fanIn
     * @param rng     root-seed source; consumes batch.size() raw draws
     * @param ledger  optional hardware-activity ledger (see the
     *                single-sample overload)
     * @return one +/-1 output vector (length layer.fanOut) per sample
     */
    std::vector<std::vector<int>>
    forward(const MappedLayer &layer,
            const std::vector<std::vector<int>> &batch, Rng &rng,
            aqfp::HardwareLedger *ledger = nullptr) const;

    /**
     * Batched forward with caller-supplied per-sample root draws
     * instead of a shared Rng: @p roots[b] plays the role of the one
     * raw draw the Rng overload takes for sample b, so sample b's
     * outputs depend ONLY on (layer, batch[b], roots[b]) — never on
     * which other samples share the megabatch. This is the
     * request-level determinism hook the inference service layer
     * batches through (see docs/SERVING.md): a request coalesced into
     * any batch is bit-identical to the same request run alone with
     * the same root. Passing roots drawn as `rng.raw()()` in sample
     * order reproduces the Rng overload exactly.
     *
     * @param layer   the mapped layer
     * @param batch   +/-1 input vectors, each of length layer.fanIn
     * @param roots   one raw 64-bit root draw per sample
     * @param ledger  optional hardware-activity ledger
     * @throws std::invalid_argument when roots.size() != batch.size()
     */
    std::vector<std::vector<int>>
    forwardSeeded(const MappedLayer &layer,
                  const std::vector<std::vector<int>> &batch,
                  const std::vector<std::uint64_t> &roots,
                  aqfp::HardwareLedger *ledger = nullptr) const;

    /**
     * Multi-bit readout used for the classifier head: instead of the
     * final comparator, the APC count register is read out directly and
     * decoded to the accumulated bipolar value (minus the installed
     * thresholds). Still fully stochastic — it runs on the same observed
     * bitstreams.
     */
    std::vector<double>
    forwardDecoded(const MappedLayer &layer,
                   const std::vector<int> &activations, Rng &rng,
                   aqfp::HardwareLedger *ledger = nullptr) const;

    /** Batched forwardDecoded (same exactness contract as forward). */
    std::vector<std::vector<double>>
    forwardDecoded(const MappedLayer &layer,
                   const std::vector<std::vector<int>> &batch, Rng &rng,
                   aqfp::HardwareLedger *ledger = nullptr) const;

    /**
     * Batched forwardDecoded with caller-supplied per-sample roots
     * (same per-request determinism contract as forwardSeeded).
     * @throws std::invalid_argument when roots.size() != batch.size()
     */
    std::vector<std::vector<double>>
    forwardDecodedSeeded(const MappedLayer &layer,
                         const std::vector<std::vector<int>> &batch,
                         const std::vector<std::uint64_t> &roots,
                         aqfp::HardwareLedger *ledger = nullptr) const;

    /**
     * Latent pre-binarization sums: sum_i a_i * w_ij - vth_j, the ideal
     * (noise-free) value each output's comparison is centred on. Used by
     * tests to verify the stochastic path converges to the ideal one.
     */
    std::vector<double>
    latentSums(const MappedLayer &layer,
               const std::vector<int> &activations) const;

    /**
     * Exact probability that each output fires +1 when the window is 1
     * (single-shot mode): the product law of the per-tile neuron
     * probabilities reduces to the accumulate threshold; computed by
     * exhaustive expectation over tiles via normal approximation is not
     * used — for window 1 and a single row tile it is the neuron
     * probability itself, which tests exercise.
     */
    std::vector<double>
    singleTileProbabilities(const MappedLayer &layer,
                            const std::vector<int> &activations) const;

    std::size_t window() const { return window_; }
    bool usesExactApc() const { return useExact; }

    /** Effective concurrency (1 when running sequentially). */
    std::size_t threads() const;

    /**
     * Reconfigure concurrency: 1 drops the pool (pure sequential
     * path); 0 attaches to shard 0 of the process-wide
     * util::ShardedExecutorPool — acquiring whatever pool exists *at
     * this call*, so a SUPERBNN_THREADS change after the shared pool
     * was first created is ignored until ShardedExecutorPool::reset()
     * (the documented resolution point); N > 1 allocates a private
     * N-thread pool. Outputs are bit-identical across all settings.
     */
    void setThreads(std::size_t threads);

    /**
     * Attach this executor to an explicit pool handle — the sharded
     * executor layer passes one NUMA shard's pool so this executor's
     * tile loops (and the tile buffers they touch) stay node-local.
     * Unlike setThreads(0), an explicitly attached pool is *not*
     * rerouted by util::ShardBinding; null detaches (sequential).
     * Outputs are bit-identical regardless of the attached pool.
     */
    void attachPool(std::shared_ptr<util::ThreadPool> shard_pool);

  private:
    std::size_t window_;
    bool useExact;
    double dropFraction;
    /// The executor's pool — by default shard 0 of the process-wide
    /// ShardedExecutorPool; null = sequential. Sharing is safe: a parallelFor
    /// issued while another executor's loop is in flight runs inline
    /// rather than racing or blocking (see ThreadPool::parallelFor).
    std::shared_ptr<util::ThreadPool> pool;
    /// True when `pool` came from setThreads(0) (the shared pool). A
    /// live util::ShardBinding on the calling thread then reroutes
    /// runParallel to the bound shard, keeping nested work node-local;
    /// private pools (setThreads(N), attachPool) are never rerouted.
    bool sharedPool = false;

    /** parallelFor through the pool, or a plain loop without one. */
    void runParallel(std::size_t n,
                     const std::function<void(std::size_t)> &task) const;

    /**
     * Phase 1 of a (batched) forward: observe every (rowTile, colTile)
     * tile for every sample into the scratch table, one task per tile.
     * observed[rt * colTiles + ct][c] holds column c's BitstreamBatch.
     * @p roots carries one pre-drawn per-sample root (the Rng-based
     * overloads draw them in sample order before any parallel work).
     */
    void
    observeTiles(const MappedLayer &layer,
                 const std::vector<std::vector<int>> &batch,
                 const std::vector<std::uint64_t> &roots,
                 std::vector<std::vector<sc::BitstreamBatch>> &observed,
                 aqfp::HardwareLedger *ledger) const;

    /**
     * Phase 2: per-(sample, column group) accumulation merge shared by
     * forward and forwardDecoded; @p emit consumes each merged column.
     * Reports merge activity and buffer traffic into @p ledger.
     */
    void
    mergeColumns(const MappedLayer &layer, std::size_t samples,
                 const std::vector<std::vector<sc::BitstreamBatch>>
                     &observed,
                 const sc::AccumulationModule &accum,
                 aqfp::HardwareLedger *ledger,
                 const std::function<void(
                     std::size_t b, std::size_t col,
                     const std::vector<sc::StreamView> &streams)> &emit)
        const;
};

} // namespace superbnn::crossbar

#endif // SUPERBNN_CROSSBAR_TILE_EXECUTOR_H
