/**
 * @file
 * The process-wide executor pool.
 *
 * The process keeps one lazily constructed ThreadPool, and executors
 * constructed with `threads == 0` (the default) share it, so a
 * many-executor sweep neither pays thread spawn + teardown per
 * configuration nor oversubscribes the machine when several executors
 * run at once. Which worker runs an index never changes a result:
 * every parallel consumer derives its randomness from per-(sample,
 * tile) counter streams.
 */

#ifndef SUPERBNN_UTIL_EXECUTOR_POOL_H
#define SUPERBNN_UTIL_EXECUTOR_POOL_H

#include <memory>

#include "util/thread_pool.h"

namespace superbnn::util {

/** Owner of the process-wide ThreadPool. */
class ExecutorPool
{
  public:
    /**
     * The process-wide pool, built on first call with
     * ThreadPool::defaultThreadCount() threads — SUPERBNN_THREADS is
     * read at that call (the resolution point; changing the
     * environment later has no effect until reset()). Never null.
     * Thread-safe.
     */
    static std::shared_ptr<ThreadPool> shared();

    /**
     * Drop the current shared pool so the next shared() re-reads the
     * environment. Holders of the old pool keep it alive until they
     * let go. Thread-safe, but callers must not race reset() against
     * executors *acquiring* the pool if they need those executors on
     * the new one.
     */
    static void reset();
};

} // namespace superbnn::util

#endif // SUPERBNN_UTIL_EXECUTOR_POOL_H
