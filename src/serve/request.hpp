// Scheduling-as-a-service request/result types and the canonical request
// fingerprint.
//
// A ScheduleRequest is the unit of traffic the serving layer handles: one
// (problem, algorithm, options) triple whose answer is an immutable
// Schedule.  Requests are content-addressed by a 64-bit FNV-1a fingerprint
// over the *canonicalized* request so that fingerprint-identical requests
// can share one cached computation (see serve_engine.hpp).
//
// Canonicalization rules (DESIGN §12; append-only — revving any rule must
// bump kFingerprintVersion so stale caches cannot alias):
//   graph     — task count, then per task (in id order): work and the
//               successor list in insertion order as (dst, data) pairs.
//               Task *names are excluded*: they are cosmetic and never
//               influence a scheduling decision.
//   costs     — the full execution-cost matrix, row-major.
//   machine   — processor count, speeds, and the link model canonicalized
//               *behaviorally*: comm_time(0, p, q) and comm_time(1, p, q)
//               for every ordered pair p != q plus mean_comm_time(1, P).
//               Every link model in the tree is affine in the data volume
//               (t = L(p,q) + data / B(p,q)), so the two sample volumes pin
//               the whole function; hashing behaviour instead of the
//               concrete class means a TopologyLinkModel::fully_connected
//               and a UniformLinkModel with equal parameters hash equal —
//               and schedule identically.
//   algo      — the registry name, length-prefixed.
//   options   — the canonical option string, length-prefixed ("" today;
//               forward-compatible hook for per-request knobs).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "platform/problem.hpp"
#include "sched/schedule.hpp"

namespace tsched::serve {

/// Bump whenever a canonicalization rule above changes.
inline constexpr std::uint64_t kFingerprintVersion = 1;

struct ScheduleRequest {
    std::shared_ptr<const Problem> problem;
    std::string algo = "heft";
    /// Canonical option string (free-form, hashed into the fingerprint).
    std::string options;
    /// Latency budget in wall milliseconds; <= 0 means no deadline.  The
    /// deadline is *excluded from the fingerprint* on purpose: two requests
    /// for the same (problem, algo, options) share one cached computation no
    /// matter how patient their callers are.  The serving layer checks the
    /// budget at dequeue (expired work is never started) and at completion
    /// (late results resolve as kTimedOut); see serve_engine.hpp.
    double deadline_ms = 0.0;
};

/// How the serving layer answered a request (DESIGN §16).  Anything other
/// than kOk is an overload- or lifecycle-degraded answer; exceptions (a
/// throwing scheduler, a failed pool handoff) propagate through the future
/// instead of appearing here.
enum class ServeOutcome : std::uint8_t {
    kOk = 0,        ///< full answer (computed, coalesced, or cache hit)
    kShed = 1,      ///< refused by the admission controller (budget exhausted)
    kDegraded = 2,  ///< answered by the cheap substitute algorithm
    kTimedOut = 3,  ///< deadline expired before (or by the time) the answer was ready
    kDraining = 4,  ///< engine was shutting down; request not served
};

/// Stable lower-case name ("ok", "shed", "degraded", "timed_out",
/// "draining") for reports and JSON.
[[nodiscard]] const char* outcome_name(ServeOutcome outcome) noexcept;

struct ServeResult {
    std::shared_ptr<const Schedule> schedule;
    std::uint64_t fingerprint = 0;
    bool cache_hit = false;   ///< served from a completed cache entry
    bool coalesced = false;   ///< waited on an identical in-flight computation
    double latency_ms = 0.0;  ///< submit -> result-ready wall time
    /// How the request was answered.  kOk and kDegraded carry a schedule;
    /// kShed and kDraining never do; kTimedOut carries one only when the
    /// computation finished (late) — a dequeue-time expiry never starts it.
    ServeOutcome outcome = ServeOutcome::kOk;
};

/// Canonical fingerprint of the graph + cost matrix + machine (rules above):
/// Problem::content_fingerprint(), which hashes each Problem object once and
/// memoizes the result, so resubmitting one Problem costs no rehash.
[[nodiscard]] std::uint64_t fingerprint_problem(const Problem& problem);

/// Canonical fingerprint of a full request: version tag, problem, algo,
/// options.
[[nodiscard]] std::uint64_t fingerprint_request(const ScheduleRequest& request);

}  // namespace tsched::serve
