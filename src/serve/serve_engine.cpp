#include "serve/serve_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/registry.hpp"
#include "serve/request_trace.hpp"

#ifdef TSCHED_DEBUG_CHECKS
#include "sched/validate.hpp"
#endif

namespace tsched::serve {

namespace {

void debug_check_hit([[maybe_unused]] const Schedule& hit,
                     [[maybe_unused]] const Problem& problem) {
#ifdef TSCHED_DEBUG_CHECKS
    // A fingerprint collision would serve a schedule for a *different*
    // problem; under debug checks every hit must validate against the
    // problem that asked for it.
    const auto result = validate(hit, problem);
    if (!result.ok)
        throw std::logic_error(
            "serve: cache hit failed validation (fingerprint collision?):\n" + result.message());
#endif
}

}  // namespace

bool ServeEngine::DescriptorEntry::matches(const TraceRequest& other,
                                           std::string_view other_options) const noexcept {
    // Doubles compare by bit pattern, like descriptor_key hashes them.
    return descriptor.algo == other.algo && descriptor.shape == other.shape &&
           descriptor.size == other.size && descriptor.procs == other.procs &&
           descriptor.net == other.net &&
           std::bit_cast<std::uint64_t>(descriptor.ccr) ==
               std::bit_cast<std::uint64_t>(other.ccr) &&
           std::bit_cast<std::uint64_t>(descriptor.beta) ==
               std::bit_cast<std::uint64_t>(other.beta) &&
           descriptor.seed == other.seed && options == other_options;
}

ServeEngine::ServeEngine(ServeConfig config, ThreadPool& pool)
    : config_(std::move(config)),
      pool_(pool),
      cache_(std::make_unique<ScheduleCache>(config_.cache_capacity, config_.cache_shards)),
      descriptors_(config_.cache_capacity, config_.cache_shards),
      admission_(AdmissionOptions{config_.max_inflight, config_.max_pending,
                                  config_.shed_policy, config_.enable_dedup}),
      chaos_(config_.chaos),
      lat_total_ms_(metrics_.histogram("serve/latency/total_ms")),
      lat_queue_wait_ms_(metrics_.histogram("serve/latency/queue_wait_ms")),
      lat_cache_lookup_ms_(metrics_.histogram("serve/latency/cache_lookup_ms")),
      lat_compute_ms_(metrics_.histogram("serve/latency/compute_ms")),
      lat_deadline_slack_ms_(metrics_.histogram("serve/latency/deadline_slack_ms")),
      queue_depth_(metrics_.histogram("serve/queue_depth")) {}

ServeEngine::~ServeEngine() {
    // Bounded drain (config_.drain_timeout_ms; <= 0 waits forever) resolves
    // every outstanding future, then the unbounded own-task wait guarantees
    // no pool closure still touches `this`.  Only this engine's closures are
    // joined — never the borrowed pool's global idle.
    drain(config_.drain_timeout_ms);
    wait_own_tasks();
}

const Scheduler& ServeEngine::scheduler_for(const std::string& algo) {
    LockGuard lock(schedulers_mutex_);
    auto it = schedulers_.find(algo);
    if (it == schedulers_.end()) it = schedulers_.emplace(algo, make_scheduler(algo)).first;
    return *it->second;
}

std::future<ServeResult> ServeEngine::submit(ScheduleRequest request) {
    if (!request.problem) throw std::invalid_argument("ServeEngine::submit: null problem");
    const Stopwatch submitted;
    count_request();
    const std::uint64_t fp = fingerprint_request(request);
    return submit_fingerprinted(std::move(request), fp, submitted, /*looked_up=*/false);
}

std::future<ServeResult> ServeEngine::submit_descriptor(const TraceRequest& descriptor,
                                                        std::string options,
                                                        double deadline_ms) {
    const Stopwatch submitted;
    const std::uint64_t key = descriptor_key(descriptor, options);
    std::shared_ptr<const DescriptorEntry> entry;
    if (config_.enable_cache) {
        entry = descriptors_.find(key, /*counted=*/false);
        if (entry && !entry->matches(descriptor, options)) entry = nullptr;  // key collision
    }
    if (entry) {
        if (auto hit = lookup(entry->fp)) {
            count_request();
#ifdef TSCHED_DEBUG_CHECKS
            debug_check_hit(*hit, *materialize(descriptor).problem);
#endif
            return ready_hit(std::move(hit), entry->fp, submitted);
        }
    }

    // Unknown descriptor, or its answer was evicted: the full path.  A
    // throwing materialize() leaves the request uncounted, exactly as when
    // a caller's own materialize() throws before submit().
    ScheduleRequest request = materialize(descriptor);
    request.options = std::move(options);
    request.deadline_ms = deadline_ms;
    const std::uint64_t fp = fingerprint_request(request);
    if (config_.enable_cache) {
        descriptors_.insert(key, std::make_shared<const DescriptorEntry>(
                                     DescriptorEntry{descriptor, request.options, fp}));
    }
    count_request();
    return submit_fingerprinted(std::move(request), fp, submitted,
                                /*looked_up=*/entry != nullptr);
}

void ServeEngine::count_request() {
    requests_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const Schedule> ServeEngine::lookup(std::uint64_t fp) {
    const Stopwatch timer;
    auto hit = cache_->get(fp);
    lat_cache_lookup_ms_.record(timer.elapsed_ms());
    return hit;
}

std::future<ServeResult> ServeEngine::ready_hit(std::shared_ptr<const Schedule> hit,
                                                std::uint64_t fp, const Stopwatch& submitted) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    ok_.fetch_add(1, std::memory_order_relaxed);
    std::promise<ServeResult> ready;
    ServeResult result{std::move(hit), fp, true, false, submitted.elapsed_ms()};
    lat_total_ms_.record(result.latency_ms);
    ready.set_value(std::move(result));
    return ready.get_future();
}

std::future<ServeResult> ServeEngine::submit_fingerprinted(ScheduleRequest request,
                                                           std::uint64_t fp,
                                                           Stopwatch submitted, bool looked_up) {
    if (config_.enable_cache && !looked_up) {
        if (auto hit = lookup(fp)) {
            debug_check_hit(*hit, *request.problem);
            return ready_hit(std::move(hit), fp, submitted);
        }
    }

    Waiter owner;
    owner.submitted = submitted;
    owner.fp = fp;
    owner.deadline_ms = request.deadline_ms;
    std::future<ServeResult> future = owner.promise.get_future();

    std::function<std::shared_ptr<const Schedule>()> peek;
    if (config_.enable_cache) {
        peek = [this, fp] { return cache_->peek(fp); };
    }

    AdmitDecision decision = admission_.admit(fp, std::move(request), std::move(owner), peek);

    // Shed/draining owners and drop-oldest victims first: they must resolve
    // even if launching the admitted computation throws below.
    resolve_shed_list(decision.to_resolve);

    switch (decision.action) {
        case AdmitAction::kRun:
            launch_chain(decision.ticket, std::move(*decision.request), fp, submitted,
                         /*rethrow=*/true);
            break;
        case AdmitAction::kCoalesced:
            coalesced_.fetch_add(1, std::memory_order_relaxed);
            break;
        case AdmitAction::kQueued:
            queue_depth_.record(static_cast<double>(decision.pending_depth));
            break;
        case AdmitAction::kCacheHit:
            debug_check_hit(*decision.hit, *decision.request->problem);
            cache_hits_.fetch_add(1, std::memory_order_relaxed);
            resolve_ready(*decision.owner, decision.hit, /*cache_hit=*/true);
            break;
        case AdmitAction::kDegrade:
            degrade_inline(std::move(*decision.request), fp, std::move(*decision.owner));
            break;
        case AdmitAction::kShed:
        case AdmitAction::kDraining:
            break;  // owner already resolved via to_resolve
    }
    return future;
}

void ServeEngine::launch_chain(Ticket ticket, ScheduleRequest request, std::uint64_t fp,
                               Stopwatch submitted, bool rethrow) {
    std::exception_ptr first_error;
    std::optional<Promoted> current;
    current.emplace();
    current->ticket = ticket;
    current->fp = fp;
    current->request = std::move(request);
    current->submitted = submitted;

    while (current) {
        const Ticket t = current->ticket;
        const std::uint64_t f = current->fp;
        own_task_begin();
        try {
            if (chaos_) chaos_->on_pool_submit(f);
            pool_.submit([this, t, f, req = std::move(current->request),
                          sub = current->submitted]() mutable {
                // The guard (not a tail call) ends the own-task scope, so an
                // exception escaping run_computation cannot leak the count.
                struct OwnTaskScope {
                    ServeEngine* engine;
                    ~OwnTaskScope() { engine->own_task_end(); }
                } scope{this};
                run_computation(t, std::move(req), f, sub);
            });
            break;  // handed off; completion drives further promotions
        } catch (...) {
            // The pool (or the chaos hook standing in for it) refused the
            // work: retire the ticket so nobody can coalesce onto an entry
            // no computation will ever resolve, fail every parked waiter
            // with the error, and keep promoting successors — each one gets
            // its own launch attempt.
            own_task_end();
            const std::exception_ptr error = std::current_exception();
            if (!first_error) first_error = error;
            CompleteResult done = admission_.complete(t);
            for (Waiter& waiter : done.waiters) resolve_error(waiter, error);
            resolve_shed_list(done.to_resolve);
            current = std::move(done.next);
        }
    }
    if (rethrow && first_error) std::rethrow_exception(first_error);
}

void ServeEngine::run_computation(Ticket ticket, ScheduleRequest request, std::uint64_t fp,
                                  Stopwatch submitted) {
    // Dequeue-time deadline check: if every waiter's budget is already blown
    // (or drain expropriated the entry), the work is never started.
    if (admission_.skip_at_dequeue(ticket)) {
        CompleteResult done = admission_.complete(ticket);
        for (Waiter& waiter : done.waiters) resolve_outcome(waiter, ServeOutcome::kTimedOut);
        finish_tail(done);
        return;
    }

    // Bounded mode only: a twin may have computed and published while this
    // request sat in the pending queue (pending requests do not coalesce),
    // so re-peek before paying for a duplicate scheduler run.  Off in the
    // default config to keep legacy cache-counter parity.
    if (config_.max_inflight > 0 && config_.enable_cache) {
        if (auto hit = cache_->peek(fp)) {
            debug_check_hit(*hit, *request.problem);
            CompleteResult done = admission_.complete(ticket);
            for (Waiter& waiter : done.waiters) {
                cache_hits_.fetch_add(1, std::memory_order_relaxed);
                resolve_ready(waiter, hit, /*cache_hit=*/true);
            }
            finish_tail(done);
            return;
        }
    }

    // Submit-to-compute-start: time the owning request spent queued behind
    // the pool (plus the fingerprint/lookup prologue, which is noise next to
    // a scheduler run).
    lat_queue_wait_ms_.record(submitted.elapsed_ms());
    std::shared_ptr<const Schedule> result;
    std::exception_ptr error;
    try {
        const Scheduler& scheduler = scheduler_for(request.algo);
        if (chaos_) chaos_->on_compute(fp);
        const Stopwatch compute;
        result = std::make_shared<const Schedule>(scheduler.schedule(*request.problem));
        lat_compute_ms_.record(compute.elapsed_ms());
        computed_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
        error = std::current_exception();
    }

    if (result && config_.enable_cache) cache_->put(fp, result);

    CompleteResult done = admission_.complete(ticket);
    for (Waiter& waiter : done.waiters) {
        if (error) {
            resolve_error(waiter, error);
        } else {
            resolve_ready(waiter, result, /*cache_hit=*/false);
        }
    }
    finish_tail(done);
}

void ServeEngine::degrade_inline(ScheduleRequest request, std::uint64_t fp, Waiter owner) {
    // Stale-ok peek of the full answer first: when dedup is off the admit
    // path never peeked, and even with dedup the publish may have landed
    // since.  A hit here is the real answer, so it resolves kOk.
    if (config_.enable_cache) {
        if (auto hit = cache_->peek(fp)) {
            debug_check_hit(*hit, *request.problem);
            cache_hits_.fetch_add(1, std::memory_order_relaxed);
            resolve_ready(owner, hit, /*cache_hit=*/true);
            return;
        }
    }

    // Substitute the cheap algorithm, computed inline on the caller's thread
    // (bounded work, no pool budget), cached under the *degraded* request's
    // fingerprint so repeat over-budget traffic hits instead of recomputing.
    ScheduleRequest degraded = std::move(request);
    degraded.algo = config_.degrade_algo;
    const std::uint64_t degraded_fp = fingerprint_request(degraded);
    std::shared_ptr<const Schedule> result;
    if (config_.enable_cache) result = cache_->peek(degraded_fp);
    if (!result) {
        try {
            const Scheduler& scheduler = scheduler_for(degraded.algo);
            result = std::make_shared<const Schedule>(scheduler.schedule(*degraded.problem));
        } catch (...) {
            resolve_error(owner, std::current_exception());
            return;
        }
        computed_.fetch_add(1, std::memory_order_relaxed);
        if (config_.enable_cache) cache_->put(degraded_fp, result);
    }
    degraded_.fetch_add(1, std::memory_order_relaxed);
    const double latency_ms = owner.submitted.elapsed_ms();
    lat_total_ms_.record(latency_ms);
    owner.promise.set_value(ServeResult{std::move(result), degraded_fp, false, false, latency_ms,
                                        ServeOutcome::kDegraded});
}

void ServeEngine::resolve_ready(Waiter& waiter, const std::shared_ptr<const Schedule>& schedule,
                                bool cache_hit) {
    const double latency_ms = waiter.submitted.elapsed_ms();
    ServeOutcome outcome = ServeOutcome::kOk;
    if (waiter.deadline_ms > 0.0) {
        lat_deadline_slack_ms_.record(std::max(0.0, waiter.deadline_ms - latency_ms));
        if (latency_ms > waiter.deadline_ms) outcome = ServeOutcome::kTimedOut;
    }
    if (outcome == ServeOutcome::kOk) {
        ok_.fetch_add(1, std::memory_order_relaxed);
    } else {
        // Late completion: the answer is real but the budget is blown — the
        // schedule is still attached (request.hpp outcome contract).
        timed_out_.fetch_add(1, std::memory_order_relaxed);
    }
    lat_total_ms_.record(latency_ms);
    waiter.promise.set_value(
        ServeResult{schedule, waiter.fp, cache_hit, waiter.coalesced, latency_ms, outcome});
}

void ServeEngine::resolve_outcome(Waiter& waiter, ServeOutcome outcome) {
    switch (outcome) {
        case ServeOutcome::kShed:
            shed_.fetch_add(1, std::memory_order_relaxed);
            break;
        case ServeOutcome::kDraining:
            draining_.fetch_add(1, std::memory_order_relaxed);
            break;
        case ServeOutcome::kTimedOut:
            timed_out_.fetch_add(1, std::memory_order_relaxed);
            break;
        default:
            break;
    }
    waiter.promise.set_value(ServeResult{nullptr, waiter.fp, false, waiter.coalesced,
                                         waiter.submitted.elapsed_ms(), outcome});
}

void ServeEngine::resolve_error(Waiter& waiter, const std::exception_ptr& error) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    waiter.promise.set_exception(error);
}

void ServeEngine::resolve_shed_list(std::vector<ShedWaiter>& list) {
    for (ShedWaiter& shed : list) resolve_outcome(shed.waiter, shed.outcome);
    list.clear();
}

void ServeEngine::finish_tail(CompleteResult& result) {
    resolve_shed_list(result.to_resolve);
    if (result.next) {
        Promoted next = std::move(*result.next);
        launch_chain(next.ticket, std::move(next.request), next.fp, next.submitted,
                     /*rethrow=*/false);
    }
}

DrainReport ServeEngine::drain(double timeout_ms) {
    DrainReport report;
    std::vector<ShedWaiter> flushed = admission_.begin_drain();
    report.flushed_pending = flushed.size();
    resolve_shed_list(flushed);
    if (!admission_.await_idle(timeout_ms)) {
        std::vector<Waiter> forced = admission_.expropriate();
        report.forced_waiters = forced.size();
        report.clean = forced.empty();
        for (Waiter& waiter : forced) resolve_outcome(waiter, ServeOutcome::kDraining);
    }
    return report;
}

std::vector<ServeResult> ServeEngine::run_batch(std::vector<ScheduleRequest> batch,
                                                double wait_budget_ms) {
    std::vector<std::future<ServeResult>> futures;
    futures.reserve(batch.size());
    for (ScheduleRequest& request : batch) futures.push_back(submit(std::move(request)));
    std::vector<ServeResult> results;
    results.reserve(futures.size());
    const Stopwatch waited;
    for (auto& future : futures) {
        if (wait_budget_ms > 0.0) {
            const double remaining_ms = wait_budget_ms - waited.elapsed_ms();
            const auto budget =
                std::chrono::duration<double, std::milli>(std::max(0.0, remaining_ms));
            if (future.wait_for(budget) != std::future_status::ready) {
                // Synthetic caller-side timeout: the computation still
                // retires in the background and its promise-side accounting
                // stands; this caller just stops waiting (fingerprint 0, no
                // schedule).
                ServeResult timed_out;
                timed_out.outcome = ServeOutcome::kTimedOut;
                timed_out.latency_ms = waited.elapsed_ms();
                results.push_back(std::move(timed_out));
                continue;
            }
        }
        results.push_back(future.get());
    }
    return results;
}

ServeResult ServeEngine::serve(ScheduleRequest request, double wait_budget_ms) {
    std::future<ServeResult> future = submit(std::move(request));
    if (wait_budget_ms > 0.0) {
        const auto budget = std::chrono::duration<double, std::milli>(wait_budget_ms);
        if (future.wait_for(budget) != std::future_status::ready) {
            ServeResult timed_out;
            timed_out.outcome = ServeOutcome::kTimedOut;
            timed_out.latency_ms = wait_budget_ms;
            return timed_out;
        }
    }
    return future.get();
}

void ServeEngine::own_task_begin() {
    LockGuard lock(own_mutex_);
    ++own_tasks_;
}

void ServeEngine::own_task_end() {
    // Notify under the lock: once the count reads 0 the destructor may
    // return and destroy own_cv_, so no touch of it may follow the unlock.
    LockGuard lock(own_mutex_);
    if (--own_tasks_ == 0) own_cv_.notify_all();
}

void ServeEngine::wait_own_tasks() {
    UniqueLock lock(own_mutex_);
    while (own_tasks_ != 0) own_cv_.wait(lock);
}

EngineStats ServeEngine::stats() const {
    EngineStats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.computed = computed_.load(std::memory_order_relaxed);
    s.coalesced = coalesced_.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    s.ok = ok_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.degraded = degraded_.load(std::memory_order_relaxed);
    s.timed_out = timed_out_.load(std::memory_order_relaxed);
    s.draining = draining_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.admission = admission_.stats();
    s.cache = cache_->stats();
    return s;
}

obs::MetricsSnapshot ServeEngine::metrics_snapshot() const {
    obs::MetricsSnapshot out = metrics_.snapshot();

    out.counters.push_back(
        {"serve/requests", {}, requests_.load(std::memory_order_relaxed)});
    out.counters.push_back(
        {"serve/computed", {}, computed_.load(std::memory_order_relaxed)});
    out.counters.push_back(
        {"serve/coalesced", {}, coalesced_.load(std::memory_order_relaxed)});
    // "served_from_cache", not "cache_hits": the cache fragment exports serve/cache/hits, which sanitizes to the same
    // Prometheus name as serve/cache_hits would — and the two counters mean
    // different things (requests answered from cache vs raw cache-op hits).
    out.counters.push_back(
        {"serve/served_from_cache", {}, cache_hits_.load(std::memory_order_relaxed)});
    out.counters.push_back({"serve/shed", {}, shed_.load(std::memory_order_relaxed)});
    out.counters.push_back({"serve/degraded", {}, degraded_.load(std::memory_order_relaxed)});
    out.counters.push_back({"serve/timed_out", {}, timed_out_.load(std::memory_order_relaxed)});
    out.counters.push_back({"serve/draining", {}, draining_.load(std::memory_order_relaxed)});
    out.counters.push_back({"serve/failed", {}, failed_.load(std::memory_order_relaxed)});
    out.counters.push_back({"serve/queued", {}, admission_.stats().queued});
    out.gauges.push_back({"serve/hit_rate", {}, stats().hit_rate()});
    out.gauges.push_back(
        {"serve/inflight", {}, static_cast<double>(admission_.inflight())});
    out.gauges.push_back(
        {"serve/pending_depth", {}, static_cast<double>(admission_.pending_depth())});

    cache_->metrics_into(out);

    const PoolMetrics pool = pool_.metrics();
    out.gauges.push_back({"pool/workers", {}, static_cast<double>(pool.workers)});
    out.gauges.push_back(
        {"pool/queue_depth", {}, static_cast<double>(pool.queue_depth)});
    out.gauges.push_back({"pool/active", {}, static_cast<double>(pool.active)});
    out.counters.push_back({"pool/tasks_run", {}, pool.tasks_run});
    out.histograms.push_back({"pool/task_run_ms", {}, pool.task_run_ms});

    out.sort();
    return out;
}

}  // namespace tsched::serve
