#include "serve/request.hpp"

#include "util/fingerprint.hpp"

namespace tsched::serve {

std::uint64_t fingerprint_problem(const Problem& problem) {
    return problem.content_fingerprint();
}

std::uint64_t fingerprint_request(const ScheduleRequest& request) {
    // deadline_ms is deliberately not absorbed: a latency budget is caller
    // state, not content, and must never split the cache key space.
    Fnv1a h;
    h.u64(kFingerprintVersion);
    h.u64(fingerprint_problem(*request.problem));
    h.str(request.algo);
    h.str(request.options);
    return h.value();
}

const char* outcome_name(ServeOutcome outcome) noexcept {
    switch (outcome) {
        case ServeOutcome::kOk: return "ok";
        case ServeOutcome::kShed: return "shed";
        case ServeOutcome::kDegraded: return "degraded";
        case ServeOutcome::kTimedOut: return "timed_out";
        case ServeOutcome::kDraining: return "draining";
    }
    return "unknown";
}

}  // namespace tsched::serve
