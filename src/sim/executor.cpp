#include "sim/executor.hpp"

#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <span>
#include <stdexcept>
#include <thread>

#include "obs/obs.hpp"
#include "trace/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"

namespace tsched::sim {

namespace {

// All shared execution state, previously a bundle of locals captured by
// reference in worker lambdas, lives here as members so the lock ownership
// is expressible: everything mutable is GUARDED_BY(mutex_), helpers that
// assume the lock carry _locked names and TSCHED_REQUIRES.  Behaviour is
// identical to the pre-refactor function — same lock, same condition
// variable, same wake predicate (spelled as an explicit wait loop).
class ExecContext {
public:
    ExecContext(const Schedule& schedule, const Dag& dag, const TaskBody& body,
                const ExecutorOptions& options)
        : dag_(dag), body_(body), options_(options) {
        const std::size_t n = schedule.num_tasks();
        procs_ = schedule.num_procs();
        done_.assign(n, false);
        completion_.assign(n, -1.0);
        quarantined_.assign(procs_, false);
        report_.placements_run.assign(procs_, 0);
        order_off_.assign(procs_ + 1, 0);
        for (std::size_t p = 0; p < procs_; ++p) {
            const auto timeline = schedule.processor_timeline(static_cast<ProcId>(p));
            orders_.insert(orders_.end(), timeline.begin(), timeline.end());
            order_off_[p + 1] = orders_.size();
        }
        remaining_ = orders_.size();
    }

    ExecutionReport run() TSCHED_EXCLUDES(mutex_) {
        start_time_ = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        threads.reserve(procs_);
        for (std::size_t p = 0; p < procs_; ++p) {
            threads.emplace_back([this, p] { worker(p); });
        }
        for (auto& t : threads) t.join();

        // Workers have exited; the lock is still taken so the annotated
        // members are read with the discipline the analysis can check.
        LockGuard lock(mutex_);
        if (first_error_) std::rethrow_exception(first_error_);
        report_.wall_seconds = elapsed();
        report_.task_completion = std::move(completion_);
        report_.worker_quarantined = std::move(quarantined_);
        return std::move(report_);
    }

private:
    [[nodiscard]] double elapsed() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_)
            .count();
    }

    [[nodiscard]] bool preds_done_locked(TaskId v) const TSCHED_REQUIRES(mutex_) {
        for (const AdjEdge& e : dag_.predecessors(v)) {
            if (!done_[static_cast<std::size_t>(e.task)]) return false;
        }
        return true;
    }

    /// First overflow placement whose predecessors are all done.
    [[nodiscard]] std::deque<Placement>::iterator runnable_overflow_locked()
        TSCHED_REQUIRES(mutex_) {
        for (auto it = overflow_.begin(); it != overflow_.end(); ++it) {
            if (preds_done_locked(it->task)) return it;
        }
        return overflow_.end();
    }

    /// Processor p's placements in start order.
    [[nodiscard]] std::span<const Placement> order(std::size_t p) const {
        return std::span<const Placement>(orders_).subspan(order_off_[p],
                                                           order_off_[p + 1] - order_off_[p]);
    }

    /// Worker p's next own placement is ready to run.
    [[nodiscard]] bool own_next_runnable_locked(std::size_t p, std::size_t idx) const
        TSCHED_REQUIRES(mutex_) {
        return !quarantined_[p] && idx < order(p).size() &&
               preds_done_locked(order(p)[idx].task);
    }

    /// Run one placement through the attempt ladder.  Returns the error that
    /// exhausted the attempts, or nullptr on success.  Called unlocked; the
    /// body runs outside any lock.
    [[nodiscard]] std::exception_ptr attempt_all(const Placement& pl, std::size_t p)
        TSCHED_EXCLUDES(mutex_) {
        for (std::size_t attempt = 1;; ++attempt) {
            try {
                const Stopwatch attempt_watch;
                body_(pl.task, static_cast<ProcId>(p));
                TSCHED_OBS_RECORD("executor/attempt_ms", attempt_watch.elapsed_ms());
                return nullptr;
            } catch (...) {
                if (attempt >= options_.max_attempts) return std::current_exception();
                {
                    LockGuard lock(mutex_);
                    ++report_.retries;
                }
                TSCHED_COUNT("executor_retries");
                if (options_.retry_backoff.count() > 0) {
                    const auto backoff =
                        options_.retry_backoff * (std::int64_t{1} << (attempt - 1));
                    // Record the *planned* backoff (the retry ladder's shape);
                    // the sleep itself may overshoot under load.
                    using BackoffMs = std::chrono::duration<double, std::milli>;
                    TSCHED_OBS_RECORD("executor/retry_backoff_ms",
                                      BackoffMs(backoff).count());
                    std::this_thread::sleep_for(backoff);
                }
            }
        }
    }

    void worker(std::size_t p) TSCHED_EXCLUDES(mutex_) {
        std::size_t idx = 0;
        while (true) {
            Placement pl{};
            bool from_overflow = false;
            {
                UniqueLock lock(mutex_);
                while (!(failed_ || remaining_ == 0 || own_next_runnable_locked(p, idx) ||
                         runnable_overflow_locked() != overflow_.end())) {
                    cv_.wait(lock);
                }
                if (failed_ || remaining_ == 0) return;
                if (own_next_runnable_locked(p, idx)) {
                    pl = order(p)[idx++];
                } else {
                    const auto it = runnable_overflow_locked();
                    pl = *it;
                    overflow_.erase(it);
                    from_overflow = true;
                }
            }

            const std::exception_ptr err = attempt_all(pl, p);
            if (!err) {
                {
                    LockGuard lock(mutex_);
                    if (!done_[static_cast<std::size_t>(pl.task)]) {
                        done_[static_cast<std::size_t>(pl.task)] = true;
                        completion_[static_cast<std::size_t>(pl.task)] = elapsed();
                    }
                    ++report_.placements_run[p];
                    if (from_overflow) {
                        ++report_.migrations;
                        TSCHED_COUNT("executor_migrations");
                    }
                    --remaining_;
                }
                cv_.notify_all();
                continue;
            }

            UniqueLock lock(mutex_);
            if (!from_overflow && options_.reassign_on_failure) {
                bool other_alive = false;
                for (std::size_t q = 0; q < procs_; ++q) {
                    if (q != p && !quarantined_[q]) other_alive = true;
                }
                if (other_alive) {
                    // Quarantine: hand this and every remaining own placement
                    // to the surviving workers and exit the thread.
                    quarantined_[p] = true;
                    TSCHED_COUNT("executor_quarantines");
                    overflow_.push_back(pl);
                    for (; idx < order(p).size(); ++idx) overflow_.push_back(order(p)[idx]);
                    lock.unlock();
                    cv_.notify_all();
                    return;
                }
            }
            if (!first_error_) first_error_ = err;
            failed_ = true;
            lock.unlock();
            cv_.notify_all();
            return;
        }
    }

    // Immutable after construction (workers only read them).
    const Dag& dag_;
    const TaskBody& body_;
    const ExecutorOptions& options_;
    std::size_t procs_ = 0;
    std::vector<Placement> orders_;       // every processor's timeline, by processor
    std::vector<std::size_t> order_off_;  // procs_ + 1 offsets into orders_
    std::chrono::steady_clock::time_point start_time_;

    Mutex mutex_;
    CondVar cv_;
    std::vector<bool> done_ TSCHED_GUARDED_BY(mutex_);
    bool failed_ TSCHED_GUARDED_BY(mutex_) = false;
    std::exception_ptr first_error_ TSCHED_GUARDED_BY(mutex_);
    /// Placements abandoned by quarantined workers, in their original order;
    /// any idle worker may pick up any runnable entry.
    std::deque<Placement> overflow_ TSCHED_GUARDED_BY(mutex_);
    std::vector<bool> quarantined_ TSCHED_GUARDED_BY(mutex_);
    std::size_t remaining_ TSCHED_GUARDED_BY(mutex_) = 0;
    ExecutionReport report_ TSCHED_GUARDED_BY(mutex_);
    std::vector<double> completion_ TSCHED_GUARDED_BY(mutex_);
};

}  // namespace

ExecutionReport execute_threaded(const Schedule& schedule, const Dag& dag,
                                 const TaskBody& body, const ExecutorOptions& options) {
    if (!schedule.complete()) {
        throw std::invalid_argument("execute_threaded: schedule is incomplete");
    }
    if (schedule.num_tasks() != dag.num_tasks()) {
        throw std::invalid_argument("execute_threaded: schedule does not match dag");
    }
    if (options.max_attempts == 0) {
        throw std::invalid_argument("execute_threaded: max_attempts must be >= 1");
    }
    ExecContext context(schedule, dag, body, options);
    return context.run();
}

ExecutionReport execute_threaded(const Schedule& schedule, const Dag& dag,
                                 const TaskBody& body) {
    return execute_threaded(schedule, dag, body, ExecutorOptions{});
}

}  // namespace tsched::sim
