/**
 * @file
 * The old name of the process-wide executor pool.
 */

#ifndef SUPERBNN_UTIL_EXECUTOR_POOL_H
#define SUPERBNN_UTIL_EXECUTOR_POOL_H

#include "util/sharded_executor_pool.h"

namespace superbnn::util {

// Kept only because perfbench/ spells this name and must compile
// unchanged; new code uses ShardedExecutorPool.
using ExecutorPool = ShardedExecutorPool;

} // namespace superbnn::util

#endif // SUPERBNN_UTIL_EXECUTOR_POOL_H
