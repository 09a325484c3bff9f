#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>

namespace madmax
{

int
ThreadPool::defaultConcurrency()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
{
    int n = threads > 0 ? threads : defaultConcurrency();
    threads_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(fn));
    }
    work_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained.
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            // parallelFor records exceptions in its batch state;
            // bare submit() tasks must not tear down the pool.
        }
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (n == 1) {
        fn(0);
        return;
    }

    struct BatchState
    {
        std::atomic<size_t> next{0};
        std::mutex mutex;
        std::condition_variable done;
        size_t live = 0;
        std::exception_ptr error;
    };
    auto state = std::make_shared<BatchState>();

    // One driver task per worker; each drains the shared index. This
    // gives dynamic load balancing without per-iteration task cost.
    size_t drivers = std::min(n, threads_.size());
    state->live = drivers;
    for (size_t d = 0; d < drivers; ++d) {
        submit([state, n, &fn] {
            size_t i;
            while ((i = state->next.fetch_add(1)) < n) {
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state->mutex);
                    if (!state->error)
                        state->error = std::current_exception();
                    // Let remaining iterations run: partial results
                    // are discarded by the rethrow below anyway, and
                    // skipping them would need another flag check.
                }
            }
            std::lock_guard<std::mutex> lock(state->mutex);
            if (--state->live == 0)
                state->done.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&] { return state->live == 0; });
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace madmax
