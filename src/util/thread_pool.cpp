#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/stopwatch.hpp"

namespace tsched {

ThreadPool::ThreadPool(std::size_t num_threads) {
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
    {
        LockGuard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    // Joined threads stay in workers_ (joinable() is false afterwards) so
    // size() keeps reporting the pool's width and a second shutdown() — e.g.
    // the destructor after an explicit call — is a no-op walk.
    for (auto& t : workers_) {
        if (t.joinable()) t.join();
    }
    // Workers drain the queue before exiting, so any wait_idle() caller's
    // condition now holds; wake it in case the final notify raced its wait.
    idle_cv_.notify_all();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            UniqueLock lock(mutex_);
            while (!stopping_ && queue_.empty()) cv_.wait(lock);
            if (queue_.empty()) {
                if (stopping_) return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        {
            Stopwatch watch;
            task();
            task_run_ms_.record(watch.elapsed_ms());
        }
        tasks_run_.fetch_add(1, std::memory_order_relaxed);
        {
            LockGuard lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
        }
    }
}

void ThreadPool::wait_idle() {
    UniqueLock lock(mutex_);
    while (!queue_.empty() || active_ != 0) idle_cv_.wait(lock);
}

bool ThreadPool::wait_idle_for(double timeout_ms) {
    if (timeout_ms <= 0.0) {
        wait_idle();
        return true;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double, std::milli>(timeout_ms);
    UniqueLock lock(mutex_);
    while (!queue_.empty() || active_ != 0) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) return false;
        idle_cv_.wait_for(lock, deadline - now);
    }
    return true;
}

PoolMetrics ThreadPool::metrics() const {
    PoolMetrics out;
    out.workers = workers_.size();
    {
        LockGuard lock(mutex_);
        out.queue_depth = queue_.size();
        out.active = active_;
    }
    out.tasks_run = tasks_run_.load(std::memory_order_relaxed);
    out.task_run_ms = task_run_ms_.snapshot();
    return out;
}

namespace {

/// First-exception slot shared by parallel_for chunks; a named struct (not
/// captured locals) so the guarded_by relation is expressible.
struct ErrorSlot {
    Mutex mutex;
    std::exception_ptr first TSCHED_GUARDED_BY(mutex);

    void record(std::exception_ptr error) TSCHED_EXCLUDES(mutex) {
        LockGuard lock(mutex);
        if (!first) first = std::move(error);
    }
    [[nodiscard]] std::exception_ptr take() TSCHED_EXCLUDES(mutex) {
        LockGuard lock(mutex);
        return first;
    }
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    const std::size_t workers = pool.size();
    const std::size_t chunks = std::min(count, workers * 4);
    const std::size_t chunk_size = (count + chunks - 1) / chunks;

    std::atomic<bool> failed{false};
    ErrorSlot error;

    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * chunk_size;
        const std::size_t end = std::min(count, begin + chunk_size);
        if (begin >= end) break;
        futures.push_back(pool.submit([&, begin, end] {
            for (std::size_t i = begin; i < end && !failed.load(std::memory_order_relaxed); ++i) {
                try {
                    fn(i);
                } catch (...) {
                    error.record(std::current_exception());
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }));
    }
    for (auto& f : futures) f.get();
    // f.get() on every chunk orders all record() calls before this read.
    if (auto first = error.take()) std::rethrow_exception(first);
}

}  // namespace tsched
