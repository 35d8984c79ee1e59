// Fixed-size thread pool.
//
// Two consumers in this repository:
//   * the benchmark harness, which fans independent trials out across cores
//     via parallel_for;
//   * sim::ThreadedExecutor, which pins one worker per simulated processor to
//     actually run a static schedule's tasks as real closures.
//
// Lock discipline (checked by clang thread-safety analysis, DESIGN §13):
// every piece of queue/lifecycle state is guarded by `mutex_`; workers and
// producers communicate only through that lock plus the two condition
// variables.  `workers_` itself is written during construction and shutdown
// only, both of which happen on the owning thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace tsched {

/// Point-in-time pool telemetry (obs layer, DESIGN §14).  queue_depth and
/// active are instantaneous; tasks_run and the task-run histogram are
/// cumulative.
struct PoolMetrics {
    std::size_t workers = 0;
    std::size_t queue_depth = 0;
    std::size_t active = 0;
    std::uint64_t tasks_run = 0;
    obs::HistogramSnapshot task_run_ms;
};

class ThreadPool {
public:
    /// Create `num_threads` workers (>= 1).  0 means hardware_concurrency.
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueue a task; the future reports completion / exceptions.
    template <typename F>
    std::future<std::invoke_result_t<F>> submit(F&& fn) TSCHED_EXCLUDES(mutex_) {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        {
            LockGuard lock(mutex_);
            if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
            queue_.emplace_back([task]() { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    /// Block until all currently enqueued tasks finish.
    void wait_idle() TSCHED_EXCLUDES(mutex_);

    /// Bounded wait_idle: true if the pool went idle within `timeout_ms`,
    /// false on timeout (work still queued or running).  `timeout_ms <= 0`
    /// degenerates to wait_idle() and always returns true.  This is the
    /// drain hook shutdown sequencing builds on (ServeEngine::drain bounds
    /// its teardown with it instead of blocking forever on a wedged task).
    [[nodiscard]] bool wait_idle_for(double timeout_ms) TSCHED_EXCLUDES(mutex_);

    /// Snapshot of queue depth, worker occupancy, and task-run timings.
    [[nodiscard]] PoolMetrics metrics() const TSCHED_EXCLUDES(mutex_);

    /// Drain the queue and join every worker.  Idempotent; the destructor
    /// calls it.  Explicit shutdown lets owners of borrowed-pool consumers
    /// (ServeEngine) sequence teardown deliberately — after shutdown,
    /// submit() throws instead of enqueueing work that would never run.
    /// Must not be called from inside a pool task (a worker cannot join
    /// itself).
    void shutdown() TSCHED_EXCLUDES(mutex_);

private:
    void worker_loop() TSCHED_EXCLUDES(mutex_);

    std::vector<std::thread> workers_;
    mutable Mutex mutex_;
    CondVar cv_;
    CondVar idle_cv_;
    std::deque<std::function<void()>> queue_ TSCHED_GUARDED_BY(mutex_);
    std::size_t active_ TSCHED_GUARDED_BY(mutex_) = 0;
    bool stopping_ TSCHED_GUARDED_BY(mutex_) = false;
    // Cumulative telemetry.
    std::atomic<std::uint64_t> tasks_run_{0};
    obs::LatencyHistogram task_run_ms_;
};

/// Run fn(i) for i in [0, count), chunked across the pool; blocks until done.
/// Exceptions from iterations are propagated (first one wins).
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace tsched
