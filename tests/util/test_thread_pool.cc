/**
 * @file
 * ThreadPool tests: coverage and exactly-once execution of
 * parallelFor, exception propagation, FIFO start order, and the
 * drain-on-destruction contract. Run under TSan in CI (see the
 * thread-sanitizer job) to keep the engine's and the HTTP server's
 * concurrency continuously checked.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace madmax
{

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    pool.parallelFor(n, [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForUsesMultipleThreads)
{
    ThreadPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> seen;
    // Tasks long enough that one worker cannot drain the batch before
    // the others wake.
    pool.parallelFor(16, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
    });
    EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPool, ParallelForSmallerThanPool)
{
    ThreadPool pool(8);
    std::atomic<int> ran{0};
    pool.parallelFor(3, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, ParallelForZeroAndOne)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.parallelFor(0, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0);
    pool.parallelFor(1, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(64,
                         [&](size_t i) {
                             if (i == 17)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // Pool stays usable after the failed batch.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, SubmittedTasksStartInSubmissionOrder)
{
    // One worker, held on a latch while the rest queue up behind it:
    // the queue is FIFO, so the oldest task must start first (the
    // HTTP server relies on this to answer the oldest request first).
    constexpr int kTasks = 16;
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    std::vector<int> order;
    {
        ThreadPool pool(1);
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return release; });
        });
        for (int i = 0; i < kTasks; ++i) {
            pool.submit([&, i] {
                std::lock_guard<std::mutex> lock(mu);
                order.push_back(i);
            });
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            release = true;
        }
        cv.notify_all();
    }
    std::vector<int> expected(kTasks);
    for (int i = 0; i < kTasks; ++i)
        expected[static_cast<size_t>(i)] = i;
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, SubmittedBatchRunsConcurrently)
{
    // 16 sleeping tasks across 4 workers: serial execution would take
    // ~160 ms; concurrent execution must land well under that. The
    // pool's destruction at scope exit waits for every task.
    auto start = std::chrono::steady_clock::now();
    std::atomic<int> ran{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 16; ++i) {
            pool.submit([&] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                ran.fetch_add(1);
            });
        }
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    EXPECT_EQ(ran.load(), 16);
    // 40 ms ideal; allow generous CI slack while still ruling out
    // serial execution (160 ms).
    EXPECT_LT(ms, 120.0);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1);
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), ThreadPool::defaultConcurrency());
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, DestructorDrainsTasksSubmittedWhileDraining)
{
    // The documented shutdown contract (see ~ThreadPool): destruction
    // waits for every task, INCLUDING tasks that running tasks submit
    // while the drain is in progress, and cannot deadlock doing so.
    // The parent tasks sleep so the destructor reliably begins while
    // they are still queued or running.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 8; ++i) {
            pool.submit([&ran, &pool] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
                pool.submit([&ran] { ran.fetch_add(1); });
                ran.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(ran.load(), 16);
}

} // namespace madmax
