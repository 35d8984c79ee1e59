// AdmissionController: bounded-inflight bookkeeping for the ServeEngine.
//
// The controller is the serving plane's single source of truth for "who is
// waiting on what": every admitted computation is a *ticket-keyed entry*
// whose waiter list holds the owning request's promise at index 0 plus any
// coalesced twins, and every over-budget request either parks in a bounded
// pending queue or is handed back to the engine tagged with the shed
// decision.  Keying entries by ticket (not fingerprint) is what makes
// drain() able to resolve *owner* promises too — whoever erases an entry
// takes its whole waiter list and owns resolving each promise exactly once.
//
// Division of labor (DESIGN §16): the controller is a pure state machine —
// it moves waiters between maps under one mutex and returns them to the
// caller; it never resolves a promise, runs a scheduler, or touches the
// pool.  The ServeEngine resolves every promise *outside* the lock, so a
// waiter's continuation can re-enter submit() without deadlocking.  Lock
// order is inflight_mutex_ -> cache shard (admit() may peek the result
// cache under its lock to close the publish/coalesce race); the reverse
// order never occurs.
//
// Shed policies when the inflight budget and pending queue are both full:
//   reject-new  — the incoming request is shed (kShed);
//   drop-oldest — the oldest *pending* request is shed to make room; with
//                 no queue configured this degenerates to reject-new;
//   degrade     — the incoming request is handed back for an inline cheap
//                 answer (stale cache peek or substitute algorithm).
//
// max_inflight == 0 disables admission control entirely: every request is
// admitted immediately and the pending queue is never used — byte-for-byte
// the pre-overload engine semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/request.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"

namespace tsched::serve {

/// What to do with a request that arrives while the inflight budget and the
/// pending queue are both exhausted.
enum class ShedPolicy : std::uint8_t {
    kRejectNew = 0,
    kDropOldest = 1,
    kDegrade = 2,
};

/// Stable lower-case policy names for config surfaces and reports.
[[nodiscard]] inline const char* shed_policy_name(ShedPolicy policy) noexcept {
    switch (policy) {
        case ShedPolicy::kRejectNew: return "reject-new";
        case ShedPolicy::kDropOldest: return "drop-oldest";
        case ShedPolicy::kDegrade: return "degrade";
    }
    return "unknown";
}

[[nodiscard]] inline std::optional<ShedPolicy> shed_policy_from_name(std::string_view name) noexcept {
    if (name == "reject-new") return ShedPolicy::kRejectNew;
    if (name == "drop-oldest") return ShedPolicy::kDropOldest;
    if (name == "degrade") return ShedPolicy::kDegrade;
    return std::nullopt;
}

/// Identifies one admitted computation for its whole lifetime.  Never reused.
using Ticket = std::uint64_t;

/// One parked request-side promise.  The Stopwatch is the request's own
/// latency clock (started in submit()); the deadline is checked against it.
struct Waiter {
    std::promise<ServeResult> promise;
    Stopwatch submitted;
    std::uint64_t fp = 0;
    double deadline_ms = 0.0;  ///< <= 0 means no deadline
    bool coalesced = false;

    [[nodiscard]] bool expired() const noexcept {
        return deadline_ms > 0.0 && submitted.elapsed_ms() > deadline_ms;
    }
};

/// A waiter the controller decided must be answered *without* a schedule,
/// tagged with why (kShed, kDraining, or kTimedOut for dequeue expiry).
/// The engine resolves these outside the lock.
struct ShedWaiter {
    Waiter waiter;
    ServeOutcome outcome = ServeOutcome::kShed;
};

enum class AdmitAction : std::uint8_t {
    kRun,       ///< entry created; caller must launch the computation (ticket set)
    kCoalesced, ///< parked on an identical in-flight entry
    kQueued,    ///< parked in the pending queue (to_resolve may hold a drop-oldest victim)
    kCacheHit,  ///< the under-lock cache peek answered it (hit + owner returned)
    kDegrade,   ///< caller must answer inline via the degrade path (owner + request returned)
    kShed,      ///< refused; owner is in to_resolve tagged kShed
    kDraining,  ///< engine shutting down; owner is in to_resolve tagged kDraining
};

struct AdmitDecision {
    AdmitAction action = AdmitAction::kRun;
    Ticket ticket = 0;                       ///< valid for kRun
    std::shared_ptr<const Schedule> hit;     ///< valid for kCacheHit
    std::optional<Waiter> owner;             ///< returned for kCacheHit and kDegrade
    std::optional<ScheduleRequest> request;  ///< returned for kRun, kCacheHit, kDegrade
    std::vector<ShedWaiter> to_resolve;      ///< shed/draining owner, drop-oldest victims
    std::size_t pending_depth = 0;           ///< queue depth after this decision
};

/// A pending request promoted into a freed inflight slot; the caller must
/// launch it (its owner waiter already lives in the new entry).
struct Promoted {
    Ticket ticket = 0;
    std::uint64_t fp = 0;
    ScheduleRequest request;
    Stopwatch submitted;
};

struct CompleteResult {
    std::vector<Waiter> waiters;          ///< everyone parked on the completed entry
    std::vector<ShedWaiter> to_resolve;   ///< pending requests that expired at dequeue
    std::optional<Promoted> next;         ///< promoted successor, if any
};

struct AdmissionOptions {
    std::size_t max_inflight = 0;  ///< 0 = unbounded (admission control off)
    std::size_t max_pending = 0;   ///< pending-queue capacity (used only when bounded)
    ShedPolicy policy = ShedPolicy::kRejectNew;
    bool coalesce = true;          ///< coalesce identical in-flight requests
};

struct AdmissionStats {
    std::uint64_t queued = 0;          ///< requests that waited in the pending queue
    std::uint64_t promoted = 0;        ///< pending requests promoted into a freed slot
    std::size_t inflight_peak = 0;     ///< high-water inflight entry count
    std::size_t pending_peak = 0;      ///< high-water pending queue depth
};

class AdmissionController {
public:
    explicit AdmissionController(AdmissionOptions options) : options_(options) {}

    AdmissionController(const AdmissionController&) = delete;
    AdmissionController& operator=(const AdmissionController&) = delete;

    /// Decide one incoming request.  `peek_cache` (nullable) is called at
    /// most once, under the lock, to close the publish/coalesce race the
    /// same way the pre-overload engine did (lock order: inflight -> cache
    /// shard).  The caller resolves decision.to_resolve outside the lock.
    [[nodiscard]] AdmitDecision admit(
        std::uint64_t fp, ScheduleRequest request, Waiter owner,
        const std::function<std::shared_ptr<const Schedule>()>& peek_cache)
        TSCHED_EXCLUDES(inflight_mutex_);

    /// Retire a ticket: claims its waiter list (empty if drain already
    /// expropriated it) and, when a pending request can use the freed slot,
    /// promotes it — flushing any dequeue-expired predecessors into
    /// to_resolve as kTimedOut (expired work is never started).
    [[nodiscard]] CompleteResult complete(Ticket ticket) TSCHED_EXCLUDES(inflight_mutex_);

    /// Dequeue-time check for a computation about to start: true when there
    /// is nothing left to compute for — the entry is gone (drained) or every
    /// waiter's deadline has already expired.
    [[nodiscard]] bool skip_at_dequeue(Ticket ticket) const TSCHED_EXCLUDES(inflight_mutex_);

    /// Stop admission and flush the pending queue (returned tagged
    /// kDraining).  Idempotent.
    [[nodiscard]] std::vector<ShedWaiter> begin_drain() TSCHED_EXCLUDES(inflight_mutex_);

    /// Wait until every inflight entry retired.  timeout_ms <= 0 waits
    /// forever; returns false on timeout.
    [[nodiscard]] bool await_idle(double timeout_ms) TSCHED_EXCLUDES(inflight_mutex_);

    /// Forcibly claim every remaining entry's waiters (drain timeout path).
    /// Computations still running later find their ticket gone and resolve
    /// nothing — each promise is resolved exactly once, here.
    [[nodiscard]] std::vector<Waiter> expropriate() TSCHED_EXCLUDES(inflight_mutex_);

    [[nodiscard]] AdmissionStats stats() const TSCHED_EXCLUDES(inflight_mutex_);
    [[nodiscard]] std::size_t inflight() const TSCHED_EXCLUDES(inflight_mutex_);
    [[nodiscard]] std::size_t pending_depth() const TSCHED_EXCLUDES(inflight_mutex_);
    [[nodiscard]] bool draining() const TSCHED_EXCLUDES(inflight_mutex_);
    [[nodiscard]] const AdmissionOptions& options() const noexcept { return options_; }

private:
    struct Entry {
        std::uint64_t fp = 0;
        /// waiters[0] is the owning request.  Touched only under
        /// inflight_mutex_ (a nested struct cannot name the outer class's
        /// capability; the contract is enforced at the access sites).
        std::vector<Waiter> waiters;
    };
    struct PendingRequest {
        std::uint64_t fp = 0;
        ScheduleRequest request;
        Waiter owner;
    };

    [[nodiscard]] Ticket create_entry_locked(std::uint64_t fp, Waiter owner)
        TSCHED_REQUIRES(inflight_mutex_);

    AdmissionOptions options_;

    mutable Mutex inflight_mutex_;
    CondVar idle_cv_;
    std::unordered_map<Ticket, Entry> entries_ TSCHED_GUARDED_BY(inflight_mutex_);
    /// fp -> running ticket; maintained only when coalescing is on.  First entry
    /// wins when two entries compute one fp (possible in bounded mode when a
    /// twin queues while no entry runs; see complete()).
    std::unordered_map<std::uint64_t, Ticket> coalesce_ TSCHED_GUARDED_BY(inflight_mutex_);
    std::deque<PendingRequest> pending_ TSCHED_GUARDED_BY(inflight_mutex_);
    Ticket next_ticket_ TSCHED_GUARDED_BY(inflight_mutex_) = 1;
    bool draining_ TSCHED_GUARDED_BY(inflight_mutex_) = false;
    AdmissionStats stats_ TSCHED_GUARDED_BY(inflight_mutex_);
};

}  // namespace tsched::serve
