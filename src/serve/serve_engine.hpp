// ServeEngine: the batched scheduling service core.
//
// Turns the one-shot library ("call make_scheduler, call schedule()") into a
// request-serving layer: ScheduleRequest streams are fanned out onto a
// ThreadPool, and every scheduler is front-ended by the content-addressed
// ScheduleCache so fingerprint-identical requests share one computation.
//
// Request lifecycle (submit):
//   1. fingerprint the request (serve/request.hpp canonicalization);
//   2. cache lookup — a hit resolves the future immediately with the cached
//      immutable Schedule (bit-identical to the cold result: it *is* the
//      cold result);
//   3. miss — the AdmissionController (serve/admission.hpp) decides: run
//      now (a ticket-keyed in-flight entry is created and the computation
//      enqueued on the pool), coalesce onto an identical in-flight entry,
//      park in the bounded pending queue, or shed per the configured
//      ShedPolicy; every answer carries a typed ServeOutcome;
//   4. completion retires the ticket, publishes to the cache, resolves
//      every waiter parked on the entry (owner included — waiters[0] *is*
//      the owner), and promotes the next viable pending request.
//
// Descriptor entry point (submit_descriptor — the wire server's path): a
// request given as a workload descriptor (serve/request_trace.hpp) is first
// looked up in a bounded *descriptor index* keyed by descriptor_key(), a
// hash of the descriptor's exact field bits plus the option string.  The
// index maps the key to {descriptor, options, fingerprint}.  A hit compares
// the stored descriptor in full (a key collision can never serve another
// problem's answer) and then makes the request's one counted cache lookup
// by the stored fingerprint, so a repeat costs a ~60-byte hash and two map
// lookups — no DAG/cost-matrix materialization and no O(n·P + E) problem
// fingerprint.  An index miss, or a fingerprint evicted from the cache,
// materializes, fingerprints, records the index entry and continues into
// the same core as submit() (same admission path, same hit accounting,
// still one counted cache operation per request).  The index reuses the
// cache's ShardedLru with the cache's capacity and shard count and is
// consulted only when the cache is on.  The key is process-local: it never
// reaches the wire or the fingerprint, so neither kFingerprintVersion nor
// net::kCodecVersion covers it.  Under TSCHED_DEBUG_CHECKS an index hit
// still materializes and re-validates the cached schedule.
//
// Overload discipline (DESIGN §16): max_inflight bounds concurrent
// computations, max_pending bounds the backlog, and the shed policy picks
// who pays when both are full.  deadline_ms is enforced at dequeue (expired
// work is never started) and at completion (late results resolve as
// kTimedOut, still carrying the schedule).  With the default config
// (max_inflight == 0) none of this machinery engages and serving semantics
// are byte-for-byte the pre-overload engine's.
//
// Lifecycle: drain() stops admission, flushes the pending queue as
// kDraining, waits (bounded by drain_timeout_ms; <= 0 waits forever) for
// in-flight computations, and on timeout forcibly resolves every remaining
// waiter as kDraining.  The destructor drains with the configured timeout
// and then waits for *this engine's own* pool closures only — never the
// borrowed pool's global idle, so two engines sharing a pool tear down
// independently.
//
// Concurrency notes (clang thread-safety checked, DESIGN §13): all waiter /
// pending / inflight bookkeeping lives behind the AdmissionController's
// single inflight_mutex_; promises are always resolved *outside* that lock.
// Lock order is inflight -> cache shard, never the reverse.  Scheduler
// instances are resolved through core/registry once per algorithm and
// shared; Scheduler::schedule() is const and safe to run concurrently.  If
// handing a computation to the pool fails (pool already shut down), the
// ticket is retired and every parked waiter fails with the pool's error
// before it propagates, so later identical requests cannot coalesce onto an
// entry nobody will ever resolve.
//
// Determinism: schedulers are pure functions of the Problem, so cache-off
// and cache-on serving return identical schedules; with TSCHED_DEBUG_CHECKS
// every cache hit is re-validated against the incoming request's problem.
// Under a chaos gate (serve/chaos.hpp) admission decisions during a burst
// are a pure function of submission order, which is what makes the overload
// batteries bit-identical across pool widths.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "serve/admission.hpp"
#include "serve/chaos.hpp"
#include "serve/request.hpp"
#include "serve/request_trace.hpp"
#include "serve/schedule_cache.hpp"
#include "serve/sharded_lru.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace tsched::serve {

struct ServeConfig {
    /// Result sharing: the content-addressed cache and the coalescing of
    /// concurrent identical requests.  Off = every request computes.
    bool enable_cache = true;
    std::size_t cache_capacity = 1024;
    std::size_t cache_shards = 8;

    // --- overload protection (all off by default = legacy semantics) ---
    std::size_t max_inflight = 0;  ///< concurrent computations; 0 = unbounded
    std::size_t max_pending = 0;   ///< pending-queue capacity when saturated
    ShedPolicy shed_policy = ShedPolicy::kRejectNew;
    std::string degrade_algo = "heft";  ///< substitute under ShedPolicy::kDegrade
    double drain_timeout_ms = 0.0;      ///< drain()/dtor bound; <= 0 waits forever
    /// Deterministic fault injection (tests and the chaos battery only).
    std::shared_ptr<ChaosHook> chaos;
};

struct EngineStats {
    std::uint64_t requests = 0;    ///< total submitted
    std::uint64_t computed = 0;    ///< cold scheduler runs actually executed
    std::uint64_t coalesced = 0;   ///< requests resolved by an in-flight twin
    std::uint64_t cache_hits = 0;  ///< requests answered from the completed cache

    // Outcome accounting: every promise resolves with exactly one of these
    // (ok / shed / degraded / timed_out / draining) or fails (failed), so
    // once all futures are resolved the six sum to `requests`.  The
    // overload, deadline, drain and fault-storm tests in
    // tests/test_serve.cpp assert exactly that.
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t draining = 0;
    std::uint64_t failed = 0;  ///< resolved with an exception

    AdmissionStats admission;  ///< queue/promotion counters, peaks
    CacheStats cache;          ///< raw cache-operation counters

    /// Request-level hit rate (cache_hits / requests).
    [[nodiscard]] double hit_rate() const noexcept {
        return requests > 0 ? static_cast<double>(cache_hits) / static_cast<double>(requests)
                            : 0.0;
    }
};

/// What drain() did (serving telemetry + teardown assertions).
struct DrainReport {
    bool clean = true;                ///< all in-flight work retired within the timeout
    std::size_t flushed_pending = 0;  ///< pending requests resolved kDraining
    std::size_t forced_waiters = 0;   ///< waiters forcibly resolved on timeout
};

class ServeEngine {
public:
    /// The pool is borrowed and must outlive the engine.  `on_closure_done`
    /// (may be empty) runs on the pool thread at the end of every closure
    /// this engine puts on the pool — after the closure resolved whatever it
    /// resolves, on every exit path, and before the destructor's own-task
    /// wait can return.  The socket front-end passes a hook that wakes its
    /// event loop, so a computed reply is sent without waiting for a poll
    /// timeout; replies resolved on the submitting thread never run it.
    ServeEngine(ServeConfig config, ThreadPool& pool,
                std::function<void()> on_closure_done = {});

    /// Drains with the configured drain_timeout_ms, then waits for this
    /// engine's *own* outstanding pool closures (never the borrowed pool's
    /// global idle).  Every future this engine handed out is resolved by
    /// the time the destructor returns.
    ~ServeEngine();

    ServeEngine(const ServeEngine&) = delete;
    ServeEngine& operator=(const ServeEngine&) = delete;

    /// Asynchronous entry point; the future reports the result (whose
    /// ServeOutcome says how it was answered) or rethrows the scheduler's
    /// exception.  Throws std::invalid_argument up front for a null problem
    /// (unknown algorithm names surface through the future); rethrows the
    /// pool's error if the pool was already shut down, after resolving every
    /// parked waiter with that error.
    [[nodiscard]] std::future<ServeResult> submit(ScheduleRequest request);

    /// Serve the request `descriptor` materializes to, with `options` and
    /// `deadline_ms` as in ScheduleRequest.  Answers exactly what
    /// submit(materialize(descriptor) + options + deadline) would, and
    /// counts the same stats; a repeated descriptor whose answer is still
    /// cached skips materialization and fingerprinting (file header).
    /// Materialization errors throw before the request is counted.
    [[nodiscard]] std::future<ServeResult> submit_descriptor(const TraceRequest& descriptor,
                                                             std::string options = {},
                                                             double deadline_ms = 0.0);

    /// Submit a whole batch, then block for all of it; results come back in
    /// request order.  `wait_budget_ms > 0` bounds the *total* wait: futures
    /// not ready when the budget runs out yield synthetic kTimedOut results
    /// (no schedule, fingerprint 0) instead of hanging the caller; their
    /// computations still retire normally in the background.
    [[nodiscard]] std::vector<ServeResult> run_batch(std::vector<ScheduleRequest> batch,
                                                     double wait_budget_ms = 0.0);

    /// Synchronous convenience: submit + get, with the same optional wait
    /// budget as run_batch.
    [[nodiscard]] ServeResult serve(ScheduleRequest request, double wait_budget_ms = 0.0);

    /// Stop admission (new submits resolve kDraining), flush the pending
    /// queue, and wait up to timeout_ms (<= 0 = forever) for in-flight
    /// computations and this engine's pool closures; on timeout every
    /// still-parked waiter is resolved kDraining so no future is ever
    /// leaked.  After a clean drain, stats() counts every resolved waiter.
    /// Idempotent.
    DrainReport drain(double timeout_ms);
    DrainReport drain() { return drain(config_.drain_timeout_ms); }

    [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
    [[nodiscard]] EngineStats stats() const;

    /// Full obs document for this engine (DESIGN §14): the per-request
    /// latency histograms (serve/latency/{total,queue_wait,cache_lookup,
    /// compute,deadline_slack}_ms and serve/queue_depth), the engine's
    /// request and outcome counters plus serve/queued (AdmissionStats), the
    /// admission gauges (inflight, pending depth), the cache fragment and
    /// the borrowed pool's fragment, merged and sorted.  These atomics and
    /// the cache's per-shard counts are the serve layer's only live counts
    /// (no process-wide trace counter mirrors them).  Each engine owns its
    /// own MetricsRegistry, so two engines in one process never mix streams
    /// and teardown cannot leave dangling instrument references.
    [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

private:
    /// A descriptor-index value: what the descriptor materialized to.
    struct DescriptorEntry {
        TraceRequest descriptor;
        std::string options;
        std::uint64_t fp = 0;

        /// Full comparison (doubles by bit pattern, like descriptor_key).
        [[nodiscard]] bool matches(const TraceRequest& other,
                                   std::string_view other_options) const noexcept;
    };

    /// Shared core of both entry points: the counted cache lookup (unless
    /// the caller already made it — `looked_up`), hit resolution, then
    /// admission.  The caller has counted the request.
    [[nodiscard]] std::future<ServeResult> submit_fingerprinted(ScheduleRequest request,
                                                                std::uint64_t fp,
                                                                Stopwatch submitted,
                                                                bool looked_up);

    void count_request();
    /// The request's one counted cache operation, timed into cache_lookup_ms.
    [[nodiscard]] std::shared_ptr<const Schedule> lookup(std::uint64_t fp);
    /// An already-resolved future for a cache hit, with the hit accounting.
    [[nodiscard]] std::future<ServeResult> ready_hit(std::shared_ptr<const Schedule> hit,
                                                     std::uint64_t fp,
                                                     const Stopwatch& submitted);

    /// Resolve (and memoize) a scheduler instance by registry name.
    [[nodiscard]] const Scheduler& scheduler_for(const std::string& algo)
        TSCHED_EXCLUDES(schedulers_mutex_);

    /// Hand a ticket's computation to the pool; on submit failure retires
    /// the ticket (waiters fail with the error) and keeps promoting pending
    /// successors until one launches or the queue is empty.  Rethrows the
    /// first error only when `rethrow` (direct submit() path).
    void launch_chain(Ticket ticket, ScheduleRequest request, std::uint64_t fp,
                      Stopwatch submitted, bool rethrow);

    /// Pool-side body: dequeue deadline check, bounded-mode cache re-peek,
    /// chaos hooks, scheduler run, publish, retire, promote.
    void run_computation(Ticket ticket, ScheduleRequest request, std::uint64_t fp,
                         Stopwatch submitted) TSCHED_EXCLUDES(schedulers_mutex_);

    /// Answer an over-budget request inline on the caller's thread: stale-ok
    /// cache peek of the original fingerprint, then the degrade algorithm
    /// (cached under the *degraded* request's fingerprint).  Never consumes
    /// pool budget.
    void degrade_inline(ScheduleRequest request, std::uint64_t fp, Waiter owner)
        TSCHED_EXCLUDES(schedulers_mutex_);

    // Promise-resolution helpers; each resolves exactly one waiter, outside
    // every lock, and does the outcome accounting.
    void resolve_ready(Waiter& waiter, const std::shared_ptr<const Schedule>& schedule,
                       bool cache_hit);
    void resolve_outcome(Waiter& waiter, ServeOutcome outcome);
    void resolve_error(Waiter& waiter, const std::exception_ptr& error);
    void resolve_shed_list(std::vector<ShedWaiter>& list);

    /// Resolve a CompleteResult's tail: dequeue-expired pendings, then
    /// launch the promoted successor (if any).
    void finish_tail(CompleteResult& result);

    // Own-task accounting: drain() and the destructor join exactly the
    // closures this engine put on the borrowed pool, nothing else.
    // wait_own_tasks: timeout_ms <= 0 waits forever; false on timeout.
    void own_task_begin() TSCHED_EXCLUDES(own_mutex_);
    void own_task_end() TSCHED_EXCLUDES(own_mutex_);
    bool wait_own_tasks(double timeout_ms) TSCHED_EXCLUDES(own_mutex_);

    ServeConfig config_;
    ThreadPool& pool_;
    std::unique_ptr<ScheduleCache> cache_;
    /// Descriptor key -> DescriptorEntry; internally synchronized (each
    /// shard's map and LRU list are GUARDED_BY the shard mutex).
    ShardedLru<DescriptorEntry> descriptors_;
    AdmissionController admission_;
    std::shared_ptr<ChaosHook> chaos_;  ///< copy of config_.chaos (hot-path load)
    std::function<void()> on_closure_done_;

    // Engine-local instrument registry plus cached references into it (the
    // references stay valid for the registry's lifetime, metrics.hpp), so
    // recording on the hot path is a lock-free histogram hit, not a lookup.
    // Members exist in every build (ODR safety); recording sites are gated.
    obs::MetricsRegistry metrics_;
    obs::LatencyHistogram& lat_total_ms_;
    obs::LatencyHistogram& lat_queue_wait_ms_;
    obs::LatencyHistogram& lat_cache_lookup_ms_;
    obs::LatencyHistogram& lat_compute_ms_;
    obs::LatencyHistogram& lat_deadline_slack_ms_;
    obs::LatencyHistogram& queue_depth_;

    Mutex schedulers_mutex_;
    std::unordered_map<std::string, SchedulerPtr> schedulers_
        TSCHED_GUARDED_BY(schedulers_mutex_);

    Mutex own_mutex_;
    CondVar own_cv_;
    std::size_t own_tasks_ TSCHED_GUARDED_BY(own_mutex_) = 0;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> computed_{0};
    std::atomic<std::uint64_t> coalesced_{0};
    std::atomic<std::uint64_t> cache_hits_{0};
    std::atomic<std::uint64_t> ok_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> degraded_{0};
    std::atomic<std::uint64_t> timed_out_{0};
    std::atomic<std::uint64_t> draining_{0};
    std::atomic<std::uint64_t> failed_{0};
};

}  // namespace tsched::serve
