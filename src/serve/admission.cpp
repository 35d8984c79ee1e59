#include "serve/admission.hpp"

#include <chrono>
#include <utility>

namespace tsched::serve {

Ticket AdmissionController::create_entry_locked(std::uint64_t fp, Waiter owner) {
    const Ticket ticket = next_ticket_++;
    Entry entry;
    entry.fp = fp;
    entry.waiters.push_back(std::move(owner));
    entries_.emplace(ticket, std::move(entry));
    // emplace (not operator[]): when a second entry for one fp appears —
    // possible in bounded mode when a twin queued while none ran — the first
    // registration keeps the coalesce slot and the duplicate computes alone.
    if (options_.coalesce) coalesce_.emplace(fp, ticket);
    if (entries_.size() > stats_.inflight_peak) stats_.inflight_peak = entries_.size();
    return ticket;
}

AdmitDecision AdmissionController::admit(
    std::uint64_t fp, ScheduleRequest request, Waiter owner,
    const std::function<std::shared_ptr<const Schedule>()>& peek_cache) {
    AdmitDecision decision;
    LockGuard lock(inflight_mutex_);

    if (draining_) {
        decision.action = AdmitAction::kDraining;
        decision.to_resolve.push_back({std::move(owner), ServeOutcome::kDraining});
        return decision;
    }

    if (options_.coalesce) {
        if (const auto it = coalesce_.find(fp); it != coalesce_.end()) {
            owner.coalesced = true;
            entries_[it->second].waiters.push_back(std::move(owner));
            decision.action = AdmitAction::kCoalesced;
            return decision;
        }
        // Double-check the cache under the in-flight lock: the computation
        // this request just missed may have completed and published between
        // the caller's lookup and here (lock order inflight -> cache shard).
        if (peek_cache) {
            if (auto hit = peek_cache()) {
                decision.action = AdmitAction::kCacheHit;
                decision.hit = std::move(hit);
                decision.owner = std::move(owner);
                decision.request = std::move(request);
                return decision;
            }
        }
    }

    const bool bounded = options_.max_inflight > 0;
    if (!bounded || entries_.size() < options_.max_inflight) {
        decision.action = AdmitAction::kRun;
        decision.ticket = create_entry_locked(fp, std::move(owner));
        decision.request = std::move(request);
        return decision;
    }

    if (pending_.size() < options_.max_pending) {
        pending_.push_back({fp, std::move(request), std::move(owner)});
        ++stats_.queued;
        if (pending_.size() > stats_.pending_peak) stats_.pending_peak = pending_.size();
        decision.action = AdmitAction::kQueued;
        decision.pending_depth = pending_.size();
        return decision;
    }

    switch (options_.policy) {
        case ShedPolicy::kRejectNew:
            break;  // shed the newcomer below
        case ShedPolicy::kDropOldest:
            if (options_.max_pending == 0) break;  // nothing to drop: reject-new
            decision.to_resolve.push_back(
                {std::move(pending_.front().owner), ServeOutcome::kShed});
            pending_.pop_front();
            pending_.push_back({fp, std::move(request), std::move(owner)});
            ++stats_.queued;
            decision.action = AdmitAction::kQueued;
            decision.pending_depth = pending_.size();
            return decision;
        case ShedPolicy::kDegrade:
            decision.action = AdmitAction::kDegrade;
            decision.owner = std::move(owner);
            decision.request = std::move(request);
            return decision;
    }

    decision.action = AdmitAction::kShed;
    decision.to_resolve.push_back({std::move(owner), ServeOutcome::kShed});
    return decision;
}

CompleteResult AdmissionController::complete(Ticket ticket) {
    CompleteResult result;
    LockGuard lock(inflight_mutex_);
    const auto it = entries_.find(ticket);
    if (it == entries_.end()) return result;  // drain already expropriated it
    result.waiters = std::move(it->second.waiters);
    if (options_.coalesce) {
        const auto c = coalesce_.find(it->second.fp);
        if (c != coalesce_.end() && c->second == ticket) coalesce_.erase(c);
    }
    entries_.erase(it);

    // A slot freed: promote the first still-viable pending request.  Expired
    // ones are flushed as kTimedOut without ever starting (dequeue check);
    // a pending twin of a *running* fp coalesces onto it instead, keeping
    // the slot free for the next candidate.
    while (!draining_ && !pending_.empty() && entries_.size() < options_.max_inflight) {
        PendingRequest pending = std::move(pending_.front());
        pending_.pop_front();
        if (pending.owner.expired()) {
            result.to_resolve.push_back({std::move(pending.owner), ServeOutcome::kTimedOut});
            continue;
        }
        if (options_.coalesce) {
            if (const auto c = coalesce_.find(pending.fp); c != coalesce_.end()) {
                pending.owner.coalesced = true;
                entries_[c->second].waiters.push_back(std::move(pending.owner));
                continue;
            }
        }
        Promoted promoted;
        promoted.fp = pending.fp;
        promoted.submitted = pending.owner.submitted;
        promoted.ticket = create_entry_locked(pending.fp, std::move(pending.owner));
        promoted.request = std::move(pending.request);
        ++stats_.promoted;
        result.next = std::move(promoted);
        break;
    }

    if (entries_.empty()) idle_cv_.notify_all();
    return result;
}

bool AdmissionController::skip_at_dequeue(Ticket ticket) const {
    LockGuard lock(inflight_mutex_);
    const auto it = entries_.find(ticket);
    if (it == entries_.end()) return true;  // drained away; nothing to serve
    for (const Waiter& waiter : it->second.waiters) {
        if (!waiter.expired()) return false;
    }
    return true;  // every deadline already blown: never start the work
}

std::vector<ShedWaiter> AdmissionController::begin_drain() {
    std::vector<ShedWaiter> flushed;
    LockGuard lock(inflight_mutex_);
    draining_ = true;
    while (!pending_.empty()) {
        flushed.push_back({std::move(pending_.front().owner), ServeOutcome::kDraining});
        pending_.pop_front();
    }
    if (entries_.empty()) idle_cv_.notify_all();
    return flushed;
}

bool AdmissionController::await_idle(double timeout_ms) {
    UniqueLock lock(inflight_mutex_);
    if (timeout_ms <= 0.0) {
        while (!entries_.empty()) idle_cv_.wait(lock);
        return true;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double, std::milli>(timeout_ms);
    while (!entries_.empty()) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) return false;
        idle_cv_.wait_for(lock, deadline - now);
    }
    return true;
}

std::vector<Waiter> AdmissionController::expropriate() {
    std::vector<Waiter> claimed;
    LockGuard lock(inflight_mutex_);
    for (auto& [ticket, entry] : entries_) {
        for (Waiter& waiter : entry.waiters) claimed.push_back(std::move(waiter));
    }
    entries_.clear();
    coalesce_.clear();
    idle_cv_.notify_all();
    return claimed;
}

AdmissionStats AdmissionController::stats() const {
    LockGuard lock(inflight_mutex_);
    return stats_;
}

std::size_t AdmissionController::inflight() const {
    LockGuard lock(inflight_mutex_);
    return entries_.size();
}

std::size_t AdmissionController::pending_depth() const {
    LockGuard lock(inflight_mutex_);
    return pending_.size();
}

bool AdmissionController::draining() const {
    LockGuard lock(inflight_mutex_);
    return draining_;
}

}  // namespace tsched::serve
