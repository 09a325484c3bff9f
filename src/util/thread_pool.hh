/**
 * @file
 * Fixed-size thread pool over one mutex-guarded FIFO queue: tasks
 * start in submission order, oldest first. It runs the EvalEngine's
 * batches (src/engine/) and the HTTP server's handlers
 * (src/serve/http_server.hh), each on its own instance.
 *
 * Deliberately dependency-free and blocking-wait based — tasks run for
 * micro- to milliseconds, and parallelFor submits at most one driver
 * per worker, so a single queue is never contended enough for
 * per-worker deques or lock-free structures to pay.
 */

#ifndef MADMAX_UTIL_THREAD_POOL_HH
#define MADMAX_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace madmax
{

class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 selects defaultConcurrency().
     *        A pool always has at least one worker — callers that
     *        want strictly serial execution should not construct a
     *        pool at all.
     */
    explicit ThreadPool(int threads = 0);

    /**
     * Joins all workers; pending tasks are DRAINED, never abandoned.
     * The destructor raises stop_ and wakes every worker; a worker
     * exits only once it sees stop_ with an empty queue. A task that
     * submits another while the drain runs is itself running on a
     * live worker, which takes the new task before it can exit — so
     * every task submitted before or during destruction runs.
     *
     * Consequently destruction cannot deadlock on pending work, but
     * it DOES wait for it: a wedged task wedges the destructor (the
     * serving stack bounds this with its own watchdog/deadline layer
     * — see docs/resilience.md). Submitting from another thread
     * concurrently with destruction is a caller bug, as with any
     * standard container.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int size() const { return static_cast<int>(threads_.size()); }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int defaultConcurrency();

    /** Enqueue one task at the back of the queue. Exceptions it
     *  throws are swallowed; use parallelFor for propagating work,
     *  or mark the task noexcept to make an escape fatal. */
    void submit(std::function<void()> fn);

    /**
     * Run fn(0..n-1), distributing iterations dynamically across the
     * pool, and block until all complete. Iterations may run in any
     * order and on any thread (including none of them on the caller).
     * The first exception thrown by any iteration is rethrown here
     * after the batch drains.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

  private:
    void workerLoop();

    std::mutex mutex_;             ///< Guards queue_ and stop_.
    std::condition_variable work_; ///< Signaled on submit and stop.
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;

    std::vector<std::thread> threads_; ///< Last: workers use the above.
};

} // namespace madmax

#endif // MADMAX_UTIL_THREAD_POOL_HH
