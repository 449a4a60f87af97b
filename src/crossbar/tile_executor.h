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
 * util::ExecutorPool, so any number of executors reuse one set of
 * worker threads — each writing its streams into its own slot of a
 * preallocated scratch table; the pool's
 * barrier then separates observation from the (also parallel)
 * per-column-group accumulation merge. Every (sample, tile) task draws
 * from its own counter-based RNG stream (sc::detail::CounterStream)
 * whose 8-byte seed mixes the sample's 64-bit root with the tile
 * coordinates, so a sample's outputs depend only on (layer, input,
 * root). Consequences:
 *
 *  - any thread count, pool sharing arrangement, and SIMD dispatch arm
 *    produces bit-identical outputs, and
 *  - a sample's outputs do not depend on which other samples share its
 *    batch, nor on their order: a batch of N is bit-identical to N
 *    single-sample forwards with the same roots.
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
#include <cstdint>
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
     *                       the process-wide util::ExecutorPool
     *                       (sized from SUPERBNN_THREADS / hardware
     *                       concurrency when that pool is first
     *                       created);
     *                       1 = sequential; N > 1 = a private pool of
     *                       N threads
     */
    explicit TileExecutor(std::size_t window, bool use_exact_apc = false,
                          double drop_fraction = 0.25,
                          std::size_t threads = 0);

    /**
     * Full stochastic forward pass of one layer over a batch:
     * programmed tiles are mapped once and reused for every sample,
     * and the tile observations for all (sample, rowTile, colTile)
     * combinations run as one parallel phase. Sample b's outputs depend
     * only on (layer, batch[b], roots[b]) — never on the thread count
     * or on which other samples share the batch — so a request
     * coalesced into any batch is bit-identical to the same request
     * run alone with the same root (the request-level determinism the
     * inference service batches through, see docs/SERVING.md).
     *
     * @param layer   the mapped layer (with thresholds installed)
     * @param batch   +/-1 input vectors, each of length layer.fanIn
     * @param roots   one 64-bit root seed per sample (its device noise)
     * @param ledger  optional hardware-activity ledger: when non-null
     *                the pass reports observed tile cycles, Bernoulli
     *                draws, APC merges, column-group serialization
     *                steps and buffer traffic into it (see
     *                aqfp::HardwareLedger; totals are bit-identical
     *                across thread counts, SIMD arms, and batch splits)
     * @return one +/-1 output vector (length layer.fanOut) per sample
     * @throws std::invalid_argument when roots.size() != batch.size()
     *         or a sample's length is not layer.fanIn
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
     * bitstreams, under the same contract and checks as forwardSeeded.
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
     * Exact per-output probability that the crossbar neuron reads '1'
     * (the Eq.-1 column probabilities) for a layer with a single row
     * tile (asserted). With one row tile and a window of 1 this is the
     * probability that the output fires +1.
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
     * path); 0 attaches to the process-wide util::ExecutorPool —
     * acquiring whatever pool exists *at this call*, so a
     * SUPERBNN_THREADS change after the shared pool was first
     * created is ignored until ExecutorPool::reset()
     * (the documented resolution point); N > 1 allocates a private
     * N-thread pool. Outputs are bit-identical across all settings.
     */
    void setThreads(std::size_t threads);

  private:
    std::size_t window_;
    bool useExact;
    double dropFraction;
    /// The executor's pool — by default the process-wide
    /// util::ExecutorPool; null = sequential. Sharing is safe: a
    /// parallelFor issued while another executor's loop is in flight
    /// runs inline rather than racing or blocking (see
    /// ThreadPool::parallelFor).
    std::shared_ptr<util::ThreadPool> pool;

    /** parallelFor through the pool, or a plain loop without one. */
    void runParallel(std::size_t n,
                     const std::function<void(std::size_t)> &task) const;

    /**
     * Phase 1 of a forward: observe every (rowTile, colTile) tile for
     * every sample into the scratch table, one task per tile.
     * observed[rt * colTiles + ct][c] holds column c's BitstreamBatch.
     */
    void
    observeTiles(const MappedLayer &layer,
                 const std::vector<std::vector<int>> &batch,
                 const std::vector<std::uint64_t> &roots,
                 std::vector<std::vector<sc::BitstreamBatch>> &observed,
                 aqfp::HardwareLedger *ledger) const;

    /**
     * The body both readouts share: checks the batch, observes the
     * tiles, then merges each (sample, column group) in parallel and
     * reads every merged column out through @p readout (the
     * comparator or the decoded count). Reports merge activity and
     * buffer traffic into @p ledger.
     */
    template <typename T, typename Readout>
    std::vector<std::vector<T>>
    forwardWith(const MappedLayer &layer,
                const std::vector<std::vector<int>> &batch,
                const std::vector<std::uint64_t> &roots,
                aqfp::HardwareLedger *ledger, Readout readout) const;
};

} // namespace superbnn::crossbar

#endif // SUPERBNN_CROSSBAR_TILE_EXECUTOR_H
