#include "crossbar/tile_executor.h"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/executor_pool.h"

namespace superbnn::crossbar {

namespace {

/** SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Seed of the RNG stream that tile (rt, ct) uses for one sample. Mixing
 * the per-sample root with the tile coordinates decorrelates the
 * streams and — because the seed depends only on (root, rt, ct), never
 * on execution order — makes the forward pass independent of the
 * thread count.
 */
inline std::uint64_t
tileSeed(std::uint64_t root, std::size_t rt, std::size_t ct)
{
    return splitmix64(
        root
        ^ splitmix64((static_cast<std::uint64_t>(rt) << 32)
                     ^ (static_cast<std::uint64_t>(ct) + 1)));
}

} // namespace

TileExecutor::TileExecutor(std::size_t window, bool use_exact_apc,
                           double drop_fraction, std::size_t threads)
    : window_(window), useExact(use_exact_apc), dropFraction(drop_fraction)
{
    assert(window >= 1);
    setThreads(threads);
}

std::size_t
TileExecutor::threads() const
{
    return pool ? pool->threadCount() : 1;
}

void
TileExecutor::setThreads(std::size_t threads)
{
    if (threads == 1) {
        pool.reset();
        return;
    }
    if (threads == 0) {
        // Attach to the process-wide pool. Its size was resolved
        // (from SUPERBNN_THREADS) when the pool was first created —
        // see util::ExecutorPool::shared() for the resolution-point
        // contract.
        pool = util::ExecutorPool::shared();
        return;
    }
    // An explicit count is a request for a private pool of that size
    // (thread-count sweeps, tests pinning concurrency).
    pool = std::make_shared<util::ThreadPool>(threads);
}

void
TileExecutor::runParallel(
    std::size_t n, const std::function<void(std::size_t)> &task) const
{
    if (pool) {
        pool->parallelFor(n, task);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            task(i);
    }
}

namespace {

void
checkBatch(const MappedLayer &layer,
           const std::vector<std::vector<int>> &batch,
           std::size_t roots)
{
    if (batch.size() != roots)
        throw std::invalid_argument(
            "TileExecutor: per-sample root count ("
            + std::to_string(roots) + ") must match the batch size ("
            + std::to_string(batch.size()) + ")");
    for (std::size_t b = 0; b < batch.size(); ++b)
        if (batch[b].size() != layer.fanIn)
            throw std::invalid_argument(
                "TileExecutor: sample " + std::to_string(b)
                + " has length " + std::to_string(batch[b].size())
                + ", the layer's fan-in is "
                + std::to_string(layer.fanIn));
}

} // namespace

void
TileExecutor::observeTiles(
    const MappedLayer &layer, const std::vector<std::vector<int>> &batch,
    const std::vector<std::uint64_t> &roots,
    std::vector<std::vector<sc::BitstreamBatch>> &observed,
    aqfp::HardwareLedger *ledger) const
{
    const std::size_t samples = batch.size();
    if (ledger)
        ledger->beginForward(layer.rowTiles, layer.colTiles, samples);

    observed.assign(layer.rowTiles * layer.colTiles, {});
    runParallel(layer.rowTiles * layer.colTiles, [&](std::size_t t) {
        const std::size_t rt = t / layer.colTiles;
        const std::size_t ct = t % layer.colTiles;
        const std::size_t r0 = rt * layer.cs;
        const std::size_t rows = std::min(layer.cs, layer.fanIn - r0);
        std::vector<std::vector<int>> slices(samples);
        std::vector<std::uint64_t> seeds(samples);
        for (std::size_t b = 0; b < samples; ++b) {
            slices[b].assign(batch[b].begin() + r0,
                             batch[b].begin() + r0 + rows);
            seeds[b] = tileSeed(roots[b], rt, ct);
        }
        // Each task owns its scratch slot: no synchronization needed.
        aqfp::TileCounts counts;
        observed[t] = layer.tile(rt, ct).observeBatchSeeded(
            slices, window_, seeds, ledger ? &counts : nullptr);
        // This task is the only writer of slot (rt, ct) this pass.
        if (ledger)
            ledger->recordTile(rt, ct, counts);
    });
}

template <typename T, typename Readout>
std::vector<std::vector<T>>
TileExecutor::forwardWith(const MappedLayer &layer,
                          const std::vector<std::vector<int>> &batch,
                          const std::vector<std::uint64_t> &roots,
                          aqfp::HardwareLedger *ledger,
                          Readout readout) const
{
    checkBatch(layer, batch, roots.size());
    const std::size_t samples = batch.size();
    std::vector<std::vector<T>> out(samples,
                                    std::vector<T>(layer.fanOut));
    if (samples == 0)
        return out;

    std::vector<std::vector<sc::BitstreamBatch>> observed;
    observeTiles(layer, batch, roots, observed, ledger); // barrier inside

    const sc::AccumulationModule accum(layer.rowTiles, window_, useExact,
                                       dropFraction);
    // One task per (sample, column group); each writes a disjoint
    // slice of the output.
    runParallel(samples * layer.colTiles, [&](std::size_t t) {
        const std::size_t b = t / layer.colTiles;
        const std::size_t ct = t % layer.colTiles;
        const std::size_t c0 = ct * layer.cs;
        const std::size_t cols = std::min(layer.cs, layer.fanOut - c0);
        std::vector<sc::StreamView> column(layer.rowTiles);
        for (std::size_t c = 0; c < cols; ++c) {
            for (std::size_t rt = 0; rt < layer.rowTiles; ++rt)
                column[rt] =
                    observed[rt * layer.colTiles + ct][c].view(b);
            out[b][c0 + c] = readout(accum, column);
        }
        // Only real columns are merged (a partial tail group merges
        // fewer than Cs); the group still serializes for one full
        // window of cycles.
        if (ledger)
            ledger->recordMerge(cols, cols * accum.mergeInputBits(),
                                window_);
    });
    if (ledger)
        ledger->recordBuffer(
            static_cast<std::uint64_t>(samples) * layer.fanIn,
            static_cast<std::uint64_t>(samples) * layer.fanOut);
    return out;
}

std::vector<std::vector<int>>
TileExecutor::forwardSeeded(const MappedLayer &layer,
                            const std::vector<std::vector<int>> &batch,
                            const std::vector<std::uint64_t> &roots,
                            aqfp::HardwareLedger *ledger) const
{
    return forwardWith<int>(
        layer, batch, roots, ledger,
        [](const sc::AccumulationModule &accum,
           const std::vector<sc::StreamView> &column) {
            return accum.accumulate(column);
        });
}

std::vector<std::vector<double>>
TileExecutor::forwardDecodedSeeded(
    const MappedLayer &layer,
    const std::vector<std::vector<int>> &batch,
    const std::vector<std::uint64_t> &roots,
    aqfp::HardwareLedger *ledger) const
{
    return forwardWith<double>(
        layer, batch, roots, ledger,
        [](const sc::AccumulationModule &accum,
           const std::vector<sc::StreamView> &column) {
            return accum.decodedSum(column);
        });
}

std::vector<double>
TileExecutor::latentSums(const MappedLayer &layer,
                         const std::vector<int> &activations) const
{
    assert(activations.size() == layer.fanIn);
    std::vector<double> out(layer.fanOut, 0.0);
    for (std::size_t ct = 0; ct < layer.colTiles; ++ct) {
        const std::size_t c0 = ct * layer.cs;
        const std::size_t cols = std::min(layer.cs, layer.fanOut - c0);
        for (std::size_t rt = 0; rt < layer.rowTiles; ++rt) {
            const std::size_t r0 = rt * layer.cs;
            const std::size_t rows = std::min(layer.cs, layer.fanIn - r0);
            std::vector<int> slice(activations.begin() + r0,
                                   activations.begin() + r0 + rows);
            const std::vector<int> sums =
                layer.tile(rt, ct).columnSums(slice);
            for (std::size_t c = 0; c < cols; ++c)
                out[c0 + c] += sums[c];
        }
    }
    for (std::size_t o = 0; o < layer.fanOut; ++o)
        out[o] -= layer.thresholds[o];
    return out;
}

std::vector<double>
TileExecutor::singleTileProbabilities(
    const MappedLayer &layer, const std::vector<int> &activations) const
{
    assert(layer.rowTiles == 1);
    assert(activations.size() == layer.fanIn);
    std::vector<double> out(layer.fanOut, 0.0);
    for (std::size_t ct = 0; ct < layer.colTiles; ++ct) {
        const std::size_t c0 = ct * layer.cs;
        const std::size_t cols = std::min(layer.cs, layer.fanOut - c0);
        const auto probs = layer.tile(0, ct).columnProbabilities(
            activations);
        for (std::size_t c = 0; c < cols; ++c)
            out[c0 + c] = probs[c];
    }
    return out;
}

} // namespace superbnn::crossbar
