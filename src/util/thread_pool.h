/**
 * @file
 * A minimal std::thread worker pool for data-parallel loops.
 *
 * The pool is deliberately work-stealing-free: parallelFor() hands out
 * contiguous *chunks* of loop indices from a single shared atomic
 * counter. Chunking amortizes the counter traffic over many indices
 * (important for the tiny tiles of small crossbars) while the shared
 * counter still load-balances ragged tasks; the chunk size adapts to
 * the loop length so short loops degrade to one index per claim.
 * Determinism is the caller's job — tile-executor tasks derive their
 * randomness from per-task seeds, so results do not depend on which
 * worker runs which index (see docs/ARCHITECTURE.md, "Threading &
 * determinism").
 */

#ifndef SUPERBNN_UTIL_THREAD_POOL_H
#define SUPERBNN_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace superbnn::util {

/**
 * Persistent worker threads executing index-parallel loops.
 *
 * One pool runs one parallelFor() at a time; the calling thread
 * participates in the loop, so a pool constructed with N threads runs
 * loop bodies on up to N concurrent threads (N-1 workers + caller).
 * parallelFor() is a barrier: it returns only after every index has
 * been executed.
 */
class ThreadPool
{
  public:
    /**
     * @param threads  total concurrency including the calling thread;
     *                 0 selects defaultThreadCount()
     */
    explicit ThreadPool(std::size_t threads = 0);

    /** Joins all workers (any in-flight parallelFor must have returned). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency of the pool, including the calling thread. */
    std::size_t threadCount() const { return workers.size() + 1; }

    /**
     * Run body(i) for every i in [0, n), distributing chunked index
     * ranges over the pool's threads, and return when all are done (a
     * barrier).
     *
     * Each index is executed exactly once; distinct indices may run
     * concurrently, so the body must not write shared state without
     * its own synchronization (writing to index-distinct slots of a
     * pre-sized buffer is the intended pattern). If one or more bodies
     * throw, the loop still completes every remaining index and the
     * first exception is rethrown to the caller.
     *
     * Calls from inside one of *this* pool's bodies run inline on the
     * current thread (no same-pool nesting, no deadlock); a call on a
     * *different* pool from inside a body dispatches normally, so
     * independent executors nest in parallel. When another thread
     * already has a loop in flight on this pool, the call runs inline
     * instead of blocking — two pools never wait on each other, so
     * cross-pool nesting cannot deadlock.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Default concurrency: the SUPERBNN_THREADS environment variable
     * when set to a positive integer, otherwise
     * std::thread::hardware_concurrency() (at least 1). A set-but-
     * invalid value (0, garbage, trailing junk) is ignored with a
     * one-time notice on stderr, mirroring how SUPERBNN_SIMD reports
     * unusable overrides.
     */
    static std::size_t defaultThreadCount();

  private:
    void workerLoop();
    /** Claim and run index chunks of the current job until exhausted. */
    void runIndices(const std::function<void(std::size_t)> &body,
                    std::size_t n, std::size_t chunk);

    std::vector<std::thread> workers;
    std::mutex mutex_;
    std::mutex submitMutex;         ///< held by the thread driving a job
    std::condition_variable wake;   ///< signals workers: new job / stop
    std::condition_variable done;   ///< signals caller: workers finished
    const std::function<void(std::size_t)> *jobBody = nullptr;
    std::size_t jobSize = 0;
    std::size_t jobChunk = 1;
    std::atomic<std::size_t> nextIndex{0};
    std::size_t activeWorkers = 0;
    std::uint64_t generation = 0;   ///< bumped once per job
    bool stopping = false;
    std::exception_ptr firstError;
};

} // namespace superbnn::util

#endif // SUPERBNN_UTIL_THREAD_POOL_H
