#include "serve/batch_dispatcher.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "engine/eval_engine.hh"
#include "serve/errors.hh"
#include "util/logging.hh"

namespace madmax
{

BatchDispatcher::BatchDispatcher(EvalEngine &engine,
                                 BatchDispatcherOptions options)
    : engine_(engine), options_(options)
{
    if (options_.windowMicros < 0)
        fatal("BatchDispatcher: windowMicros must be >= 0");
    if (options_.maxBatch < 1)
        fatal("BatchDispatcher: maxBatch must be >= 1");
    if (options_.watchdogMicros < 0)
        fatal("BatchDispatcher: watchdogMicros must be >= 0");
}

void
BatchDispatcher::runBatch(std::unique_lock<std::mutex> &lock)
{
    std::vector<std::shared_ptr<Pending>> batch(queue_.begin(),
                                                queue_.end());
    queue_.clear();
    if (batch.empty())
        return; // Raced another leader to an emptied queue.
    ++stats_.windows;
    stats_.maxOccupancy = std::max(stats_.maxOccupancy,
                                   static_cast<long>(batch.size()));
    if (batch.size() > 1)
        stats_.coalesced += static_cast<long>(batch.size());
    lock.unlock();

    std::vector<PlanRequest> points;
    points.reserve(batch.size());
    for (const auto &p : batch) {
        PlanRequest point;
        point.model = &p->triple->perf;
        point.desc = &p->triple->model;
        point.task = &p->triple->task;
        point.plan = p->plan;
        points.push_back(std::move(point));
    }
    // Per-request failures come back as failure reports (engine
    // exception isolation); this catch only fires on catastrophic
    // engine errors, which then fail the whole batch.
    std::vector<PerfReport> reports;
    std::exception_ptr error;
    try {
        reports = engine_.evaluateAll(points);
    } catch (...) {
        error = std::current_exception();
    }

    lock.lock();
    for (size_t i = 0; i < batch.size(); ++i) {
        if (error)
            batch[i]->error = error;
        else
            batch[i]->report = std::move(reports[i]);
        batch[i]->done = true;
    }
    cv_.notify_all();
}

bool
BatchDispatcher::tryMemo(const CachedRequest &request, MemoEntry &out)
{
    // The cached report is ready; a window would be pure added
    // latency.
    if (!engine_.tryCached(request.engineKey, out))
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.memoFastPath;
    return true;
}

PerfReport
BatchDispatcher::evaluate(const CachedRequest &request,
                          long deadlineMicros)
{
    const bool hasDeadline = deadlineMicros > 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::microseconds(deadlineMicros);
    const auto watchdog =
        std::chrono::microseconds(options_.watchdogMicros);

    auto mine = std::make_shared<Pending>();
    mine->triple = request.triple;
    mine->plan = request.plan;
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(mine);
    ++stats_.requests;
    cv_.notify_all(); // A window-waiting leader may now be full.

    while (!mine->done) {
        Clock::time_point now = Clock::now();
        if (hasDeadline && now >= deadline) {
            // Abandon: if still queued we can withdraw cleanly; if a
            // leader already took us into a batch, the shared slot
            // stays writable for it and we just stop waiting.
            auto it = std::find(queue_.begin(), queue_.end(), mine);
            const char *stage = "evaluating";
            if (it != queue_.end()) {
                queue_.erase(it);
                stage = "queued";
            }
            ++stats_.deadlineTimeouts;
            long waitedMs =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - start)
                    .count();
            throw DeadlineError(waitedMs, stage);
        }
        if (leaderBusy_) {
            if (options_.watchdogMicros > 0 && !queue_.empty() &&
                now - leaderSince_ >= watchdog) {
                // The leader has been busy past the watchdog with
                // work queued behind it: become a rescue leader for
                // the queued requests. The wedged leader's own batch
                // still completes whenever it returns; bumping
                // leaderSince_ throttles takeovers to one per period.
                ++stats_.watchdogTakeovers;
                leaderSince_ = now;
                runBatch(lock);
                continue;
            }
            if (hasDeadline || options_.watchdogMicros > 0) {
                Clock::time_point until = Clock::time_point::max();
                if (hasDeadline)
                    until = deadline;
                if (options_.watchdogMicros > 0)
                    until = std::min(until, leaderSince_ + watchdog);
                cv_.wait_until(lock, until);
            } else {
                cv_.wait(lock);
            }
            continue;
        }
        // Become the window leader. `mine` is still queued (it is not
        // done, and a leader marks everything it takes done before
        // clearing leaderBusy_), so the batch below includes it.
        leaderBusy_ = true;
        leaderSince_ = Clock::now();
        if (options_.windowMicros > 0 &&
            queue_.size() < options_.maxBatch)
            cv_.wait_for(
                lock, std::chrono::microseconds(options_.windowMicros),
                [this] { return queue_.size() >= options_.maxBatch; });

        runBatch(lock);
        leaderBusy_ = false;
        cv_.notify_all();
    }

    if (mine->error)
        std::rethrow_exception(mine->error);
    return std::move(mine->report);
}

BatchDispatcherStats
BatchDispatcher::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace madmax
