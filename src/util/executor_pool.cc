#include "util/executor_pool.h"

#include <mutex>

namespace superbnn::util {

namespace {

std::mutex &
poolMutex()
{
    static std::mutex m;
    return m;
}

std::shared_ptr<ThreadPool> &
poolSlot()
{
    static std::shared_ptr<ThreadPool> slot;
    return slot;
}

} // namespace

std::shared_ptr<ThreadPool>
ExecutorPool::shared()
{
    const std::lock_guard<std::mutex> lock(poolMutex());
    std::shared_ptr<ThreadPool> &slot = poolSlot();
    if (!slot)
        slot = std::make_shared<ThreadPool>(
            ThreadPool::defaultThreadCount());
    return slot;
}

void
ExecutorPool::reset()
{
    const std::lock_guard<std::mutex> lock(poolMutex());
    poolSlot().reset();
}

} // namespace superbnn::util
