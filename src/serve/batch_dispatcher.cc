#include "serve/batch_dispatcher.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "engine/eval_engine.hh"
#include "serve/errors.hh"
#include "util/logging.hh"

namespace madmax
{

BatchDispatcher::BatchDispatcher(EvalEngine &engine, long watchdogMicros)
    : engine_(engine), watchdogMicros_(watchdogMicros)
{
    if (watchdogMicros_ < 0)
        fatal("BatchDispatcher: watchdogMicros must be >= 0");
}

void
BatchDispatcher::runBatch(std::unique_lock<std::mutex> &lock)
{
    std::vector<std::shared_ptr<Pending>> batch(queue_.begin(),
                                                queue_.end());
    queue_.clear();
    for (const auto &p : batch)
        p->taken = true;
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
        point.keyPrefix = p->triple->keyPrefix;
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
    // The cached report is ready; queueing would be pure added
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
    const auto watchdog = std::chrono::microseconds(watchdogMicros_);

    auto mine = std::make_shared<Pending>();
    mine->triple = request.triple;
    mine->plan = request.plan;
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(mine);
    ++stats_.requests;

    while (!mine->done) {
        Clock::time_point now = Clock::now();
        if (hasDeadline && now >= deadline) {
            // Abandon: if still queued we can withdraw cleanly; if a
            // leader already took us into a batch, the shared slot
            // stays writable for it and we just stop waiting.
            const char *stage = "evaluating";
            if (!mine->taken) {
                queue_.erase(
                    std::find(queue_.begin(), queue_.end(), mine));
                stage = "queued";
            }
            ++stats_.deadlineTimeouts;
            long waitedMs =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - start)
                    .count();
            throw DeadlineError(waitedMs, stage);
        }
        if (!mine->taken && !leaderBusy_) {
            // Become the batch leader and submit at once: the batch
            // is `mine` plus everything that queued behind the
            // previous one.
            leaderBusy_ = true;
            leaderSince_ = now;
            runBatch(lock);
            leaderBusy_ = false;
            cv_.notify_all();
            continue;
        }
        // Queued behind a busy leader, or riding a taken batch — maybe
        // a rescue batch, which can outlive the wedged leader that
        // clears leaderBusy_. Only a queued request may lead or
        // rescue; a rider just waits for its batch.
        const bool canRescue = !mine->taken && watchdogMicros_ > 0;
        if (canRescue && now - leaderSince_ >= watchdog) {
            // The leader has been busy past the watchdog with work
            // queued behind it: become a rescue leader for the queued
            // requests. The wedged leader's own batch still completes
            // whenever it returns; bumping leaderSince_ throttles
            // takeovers to one per period.
            ++stats_.watchdogTakeovers;
            leaderSince_ = now;
            runBatch(lock);
            continue;
        }
        if (hasDeadline || canRescue) {
            Clock::time_point until = Clock::time_point::max();
            if (hasDeadline)
                until = deadline;
            if (canRescue)
                until = std::min(until, leaderSince_ + watchdog);
            cv_.wait_until(lock, until);
        } else {
            cv_.wait(lock);
        }
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
