/**
 * @file
 * Topology-aware sharding of the process-wide executor pool.
 *
 * The process keeps one lazily constructed pool, and executors
 * constructed with `threads == 0` (the default) share its shard 0, so
 * a many-executor sweep neither pays thread spawn + teardown per
 * configuration nor oversubscribes the machine when several executors
 * run at once.
 *
 * A single flat pool's workers would migrate freely across sockets,
 * so on multi-node hosts a tile buffer allocated on node 0 would
 * routinely be consumed on node 1. ShardedExecutorPool therefore
 * keeps one ThreadPool *per NUMA node* (a "shard"), optionally pins
 * each shard's workers to its node's CPUs, and offers
 * parallelForSharded() — a round-robin striping of loop indices across
 * shards so (corner, chip) and candidate sweeps spread node-locally.
 * Consumers that serve requests (InferenceService) instead bind a
 * thread to a shard with ShardBinding and run a whole sub-batch there.
 *
 * **Knobs** (resolved at first shared() call, warn-once on invalid,
 * re-read after reset()):
 *  - `SUPERBNN_NUMA=auto|off|<n>` — `auto` (default) shards per
 *    detected node (1 shard on single-node hosts, so behavior is
 *    bit-and-perf identical to the flat pool); `off` forces one
 *    shard; `<n>` forces n shards regardless of topology (testing /
 *    cache-partitioning experiments).
 *  - `SUPERBNN_PIN=0|1` — `1` pins each shard's workers to its node's
 *    CPU list; default `0` leaves scheduling to the kernel. Driver
 *    and caller threads are never pinned.
 *  - `SUPERBNN_THREADS` — total concurrency, divided as evenly as
 *    possible across shards (every shard gets at least 1).
 *
 * **Determinism.** Sharding never changes results: every parallel
 * consumer derives its randomness from per-(sample, tile) counter
 * streams, so which shard (or thread, or socket) runs an index is
 * unobservable in the output. The determinism suite pins this across
 * `SUPERBNN_NUMA` x `SUPERBNN_PIN` x thread counts.
 */

#ifndef SUPERBNN_UTIL_SHARDED_EXECUTOR_POOL_H
#define SUPERBNN_UTIL_SHARDED_EXECUTOR_POOL_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "util/cpu_topology.h"
#include "util/thread_pool.h"

namespace superbnn::util {

/** A set of per-NUMA-node ThreadPools plus the striped loop driver. */
class ShardedExecutorPool
{
  public:
    /**
     * Explicit construction for tests and benches (no environment
     * reads). @p shard_count is clamped to >= 1; @p threads_total (0
     * selects ThreadPool::defaultThreadCount()) is split evenly across
     * shards with every shard getting at least one thread. When @p pin
     * is true, shard i's workers are pinned to @p topo node (i mod
     * nodes) — with more shards than nodes, shards cycle over nodes.
     */
    ShardedExecutorPool(std::size_t shard_count,
                        std::size_t threads_total, bool pin,
                        const CpuTopology &topo);

    /**
     * The process-wide sharded pool, built on first call from
     * CpuTopology::detect() and the SUPERBNN_NUMA / SUPERBNN_PIN /
     * SUPERBNN_THREADS environment (the resolution point — changing
     * the environment later has no effect until reset()). Never null.
     * Thread-safe.
     */
    static std::shared_ptr<ShardedExecutorPool> shared();

    /**
     * Drop the current shared instance so the next shared() re-reads
     * the environment and re-detects the topology. Holders of the old
     * instance (or of its shard pools) keep it alive until they let
     * go. Thread-safe, but callers must not race reset() against
     * executors *acquiring* the pool if they need those executors on
     * the new one.
     */
    static void reset();

    /** Number of shards (>= 1). */
    std::size_t shardCount() const { return shards_.size(); }

    /** Shard @p i's pool; i is taken modulo shardCount(). Never null. */
    const std::shared_ptr<ThreadPool> &shard(std::size_t i) const
    {
        return shards_[i % shards_.size()];
    }

    /** Total concurrency summed over shards. */
    std::size_t threadCount() const;

    /**
     * Run body(i) for every i in [0, n) with indices striped
     * round-robin across shards (shard j executes j, j+k, j+2k, ...
     * for k = shardCount()), one driver thread per shard — the caller
     * drives shard 0 — each holding a ShardBinding so nested
     * shared-pool work stays on the same shard. A barrier, like
     * ThreadPool::parallelFor, with the same exception contract:
     * every index runs, the first exception rethrows. With one shard
     * this is exactly shard(0)->parallelFor(n, body).
     */
    void parallelForSharded(
        std::size_t n, const std::function<void(std::size_t)> &body);

  private:
    std::vector<std::shared_ptr<ThreadPool>> shards_;
};

/**
 * RAII thread-local binding of the current thread to one shard's
 * pool. While a binding is live, executors attached to the *shared*
 * pool route their loops to the bound pool instead — that is how an
 * InferenceService sub-batch or a parallelForSharded task keeps every
 * nested tile loop on its own node. Bindings nest (inner wins) and
 * are strictly per-thread; explicitly configured private pools and
 * threads==1 executors ignore them.
 */
class ShardBinding
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    ShardBinding(std::size_t shard, std::shared_ptr<ThreadPool> pool);
    ~ShardBinding();
    ShardBinding(const ShardBinding &) = delete;
    ShardBinding &operator=(const ShardBinding &) = delete;

    /** The current thread's bound shard index, or npos. */
    static std::size_t currentShard();

    /** The current thread's bound pool, or nullptr when unbound. */
    static const std::shared_ptr<ThreadPool> &currentPool();

  private:
    std::size_t shard_;
    std::shared_ptr<ThreadPool> pool_;
    ShardBinding *prev_;
};

} // namespace superbnn::util

#endif // SUPERBNN_UTIL_SHARDED_EXECUTOR_POOL_H
