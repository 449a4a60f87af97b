#include "util/thread_pool.h"

#include <algorithm>

#include "util/env.h"

namespace superbnn::util {

namespace {

/**
 * Stack of pools the current thread is executing a body of. The guard
 * is scoped to the *owning* pool: a nested parallelFor on the same
 * pool runs inline (no deadlock), while a parallelFor on a different
 * pool from inside a body dispatches to that pool's workers. A
 * process-global flag here used to serialize independent executors
 * whenever one ran inside another's body.
 */
struct InsideFrame
{
    const ThreadPool *pool;
    InsideFrame *next;
};

thread_local InsideFrame *tls_inside = nullptr;

bool
insidePool(const ThreadPool *pool)
{
    for (const InsideFrame *f = tls_inside; f != nullptr; f = f->next)
        if (f->pool == pool)
            return true;
    return false;
}

/** RAII frame push/pop around body execution. */
class InsideScope
{
  public:
    explicit InsideScope(const ThreadPool *pool)
        : frame{pool, tls_inside}
    {
        tls_inside = &frame;
    }
    ~InsideScope() { tls_inside = frame.next; }
    InsideScope(const InsideScope &) = delete;
    InsideScope &operator=(const InsideScope &) = delete;

  private:
    InsideFrame frame;
};

/**
 * Chunks handed out per claim: enough claims per thread that ragged
 * bodies still balance, few enough that the atomic counter is off the
 * profile for tiny tiles.
 */
constexpr std::size_t kClaimsPerThread = 8;

} // namespace

std::size_t
ThreadPool::defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t fallback =
        hw == 0 ? 1 : static_cast<std::size_t>(hw);
    return envSize("SUPERBNN_THREADS", fallback, /*min_value=*/1);
}

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t total =
        threads == 0 ? defaultThreadCount() : threads;
    if (total > 1) {
        workers.reserve(total - 1);
        for (std::size_t i = 0; i + 1 < total; ++i)
            workers.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping = true;
    }
    wake.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ThreadPool::runIndices(const std::function<void(std::size_t)> &body,
                       std::size_t n, std::size_t chunk)
{
    const InsideScope scope(this);
    for (;;) {
        const std::size_t begin =
            nextIndex.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n)
            return;
        const std::size_t end = std::min(begin + chunk, n);
        for (std::size_t i = begin; i < end; ++i) {
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex_);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake.wait(lock,
                  [&] { return stopping || generation != seen; });
        if (stopping)
            return;
        seen = generation;
        const std::function<void(std::size_t)> *body = jobBody;
        const std::size_t n = jobSize;
        const std::size_t chunk = jobChunk;
        lock.unlock();
        runIndices(*body, n, chunk);
        lock.lock();
        if (--activeWorkers == 0)
            done.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Inline when there is nothing to dispatch to, when the current
    // thread is already executing one of this pool's bodies (same-pool
    // reentrancy), or when another thread has a job in flight on this
    // pool (a second caller never blocks — that lets any number of
    // executors share one pool without a cross-pool deadlock cycle).
    // The inline path honors the same exception contract as the
    // dispatched one: every index runs, the first exception rethrows.
    if (workers.empty() || n == 1 || insidePool(this)
        || !submitMutex.try_lock()) {
        const InsideScope scope(this);
        std::exception_ptr error;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                body(i);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }
    const std::lock_guard<std::mutex> submitted(submitMutex,
                                                std::adopt_lock);
    const std::size_t chunk = std::max<std::size_t>(
        1, n / (threadCount() * kClaimsPerThread));
    std::unique_lock<std::mutex> lock(mutex_);
    firstError = nullptr;
    jobBody = &body;
    jobSize = n;
    jobChunk = chunk;
    nextIndex.store(0, std::memory_order_relaxed);
    activeWorkers = workers.size();
    ++generation;
    lock.unlock();
    wake.notify_all();
    // The caller is a full participant, then waits out the stragglers.
    runIndices(body, n, chunk);
    lock.lock();
    done.wait(lock, [&] { return activeWorkers == 0; });
    if (firstError) {
        const std::exception_ptr err = firstError;
        firstError = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

} // namespace superbnn::util
