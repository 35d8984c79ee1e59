#include "sched/builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#ifdef TSCHED_DEBUG_CHECKS
#include "analysis/schedule_lints.hpp"
#endif

#include "platform/link_model.hpp"
#include "trace/trace.hpp"

namespace tsched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ScheduleBuilder::ScheduleBuilder(const Problem& problem)
    : problem_(&problem),
      csr_(&problem.dag().csr()),
      links_(&problem.machine().links()),
      procs_(problem.num_procs()),
      task_modified_(problem.num_tasks(), 0),
      preds_modified_(problem.num_tasks(), 0),
      ready_cache_(problem.num_tasks() * problem.num_procs(), 0.0),
      ready_stamp_(problem.num_tasks(), 0),
      ready_binding_(problem.num_tasks() * problem.num_procs(), kInvalidTask),
      primary_start_(problem.num_tasks(), 0.0),
      primary_finish_(problem.num_tasks(), 0.0),
      primary_proc_(problem.num_tasks(), kInvalidProc),
      first_dup_(problem.num_tasks(), kNoDup),
      last_dup_(problem.num_tasks(), kNoDup) {
    busy_.resize(procs_);

    // Uniform-links fast path (single-proc machines stay on the generic
    // path: every transfer is local there anyway).
    if (procs_ >= 2 && dynamic_cast<const UniformLinkModel*>(links_) != nullptr) {
        uniform_links_ = true;
        const auto data = csr_->edge_data();
        pred_remote_.resize(csr_->num_edges());
        for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
            const auto edges = csr_->pred_edges(static_cast<TaskId>(v));
            double* remote = pred_remote_.data() + csr_->pred_begin(static_cast<TaskId>(v));
            for (std::size_t i = 0; i < edges.size(); ++i) {
                remote[i] = links_->comm_time(data[edges[i]], 0, 1);
            }
        }
    }
}

ScheduleBuilder::~ScheduleBuilder() {
    if (eft_evals_pending_.n != 0) TSCHED_COUNT_ADD("eft_evaluations", eft_evals_pending_.n);
    if (cache_hits_pending_.n != 0) {
        TSCHED_COUNT_ADD("data_ready_cache_hits", cache_hits_pending_.n);
    }
    if (cache_misses_pending_.n != 0) {
        TSCHED_COUNT_ADD("data_ready_cache_misses", cache_misses_pending_.n);
    }
}

bool ScheduleBuilder::is_placed(TaskId v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= primary_proc_.size()) {
        throw std::out_of_range("ScheduleBuilder::is_placed: task out of range");
    }
    return primary_proc_[static_cast<std::size_t>(v)] != kInvalidProc;
}

double ScheduleBuilder::finish_time(TaskId v) const {
    if (!is_placed(v)) throw std::out_of_range("ScheduleBuilder::finish_time: task is unplaced");
    return primary_finish_[static_cast<std::size_t>(v)];
}

ScheduleBuilder::PlacementRange ScheduleBuilder::placements(TaskId v) const {
    (void)is_placed(v);  // range check
    return {this, v};
}

double ScheduleBuilder::data_available(TaskId u, ProcId p, double data) const {
    double best = kInf;
    for (const Placement& pl : placements(u)) {
        best = std::min(best, pl.finish + links_->comm_time(data, pl.proc, p));
    }
    return best;
}

void ScheduleBuilder::check_task_proc(TaskId v, ProcId p, const char* what) const {
    if (v < 0 || static_cast<std::size_t>(v) >= primary_proc_.size()) {
        throw std::out_of_range(std::string("ScheduleBuilder::") + what + ": task out of range");
    }
    if (p < 0 || static_cast<std::size_t>(p) >= procs_) {
        throw std::out_of_range(std::string("ScheduleBuilder::") + what +
                                ": processor out of range");
    }
}

bool ScheduleBuilder::ready_row_valid(TaskId v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    const std::uint64_t stamp = ready_stamp_[i];
    return stamp != 0 && preds_modified_[i] <= stamp;
}

double ScheduleBuilder::data_ready(TaskId v, ProcId p) const {
    check_task_proc(v, p, "data_ready");
    const std::size_t idx =
        static_cast<std::size_t>(v) * procs_ + static_cast<std::size_t>(p);
    if (ready_row_valid(v)) {
        cache_hits_pending_ += 1;
        return ready_cache_[idx];
    }
    cache_misses_pending_ += 1;
    fill_ready_row(v);
    return ready_cache_[idx];
}

void ScheduleBuilder::fill_ready_row(TaskId v) const {
    const auto preds = csr_->pred_tasks(v);
    const std::size_t base = static_cast<std::size_t>(v) * procs_;
    double* row = ready_cache_.data() + base;
    TaskId* args = ready_binding_.data() + base;
    for (std::size_t q = 0; q < procs_; ++q) {
        row[q] = 0.0;
        // `args[q]` tracks the first predecessor whose arrival achieves the
        // running max — strict > reproduces binding_remote_pred's first-wins
        // tie-break, and an arrival of exactly 0 keeps it invalid, matching
        // its not-communication-bound rejection.
        args[q] = kInvalidTask;
    }
    // Per processor q the comparison chain visits predecessors in CSR order
    // with the same per-predecessor arrival expression the old scalar loop
    // used, so every row value is bit-identical to an independent
    // data_ready(v, q) computation — the walk is merely transposed so the
    // predecessor state (placed flag, finish, proc, remote cost) is loaded
    // once instead of once per processor.
    bool blocked = false;
    if (uniform_links_) {
        const double* remote = pred_remote_.data() + csr_->pred_begin(v);
        for (std::size_t i = 0; i < preds.size(); ++i) {
            const std::size_t u = static_cast<std::size_t>(preds[i]);
            if (primary_proc_[u] == kInvalidProc) {
                blocked = true;
                break;
            }
            if (first_dup_[u] == kNoDup) {
                const double f = primary_finish_[u];
                const auto pp = static_cast<std::size_t>(primary_proc_[u]);
                const double fr = f + remote[i];  // same add the scalar path did
                for (std::size_t q = 0; q < procs_; ++q) {
                    const double best = (q == pp) ? f : fr;
                    if (best > row[q]) {
                        row[q] = best;
                        args[q] = preds[i];
                    }
                }
            } else {
                for (std::size_t q = 0; q < procs_; ++q) {
                    double best = kInf;
                    for (const Placement& pl : placements(preds[i])) {
                        const auto qp = static_cast<ProcId>(q);
                        best = std::min(best, pl.finish + (pl.proc == qp ? 0.0 : remote[i]));
                    }
                    if (best > row[q]) {
                        row[q] = best;
                        args[q] = preds[i];
                    }
                }
            }
        }
    } else {
        const auto edges = csr_->pred_edges(v);
        const auto data = csr_->edge_data();
        for (std::size_t i = 0; i < preds.size(); ++i) {
            if (primary_proc_[static_cast<std::size_t>(preds[i])] == kInvalidProc) {
                blocked = true;
                break;
            }
            for (std::size_t q = 0; q < procs_; ++q) {
                const double avail =
                    data_available(preds[i], static_cast<ProcId>(q), data[edges[i]]);
                if (avail > row[q]) {
                    row[q] = avail;
                    args[q] = preds[i];
                }
            }
        }
    }
    if (blocked) {
        // The scalar loop returned +inf from the first unplaced predecessor
        // onward for *every* processor, so the whole row is +inf (the argmax
        // entries keep whatever accumulated before the break; every consumer
        // guards them behind std::isfinite of the cached value).
        for (std::size_t q = 0; q < procs_; ++q) {
            row[q] = kInf;
        }
    }
    ready_stamp_[static_cast<std::size_t>(v)] = epoch_;
    if (speculating()) ready_log_.push_back(static_cast<std::size_t>(v));
}

double ScheduleBuilder::data_ready_peek(TaskId v, ProcId p) const {
    check_task_proc(v, p, "data_ready_peek");
    if (ready_row_valid(v)) {
        cache_hits_pending_ += 1;
        return ready_cache_[static_cast<std::size_t>(v) * procs_ + static_cast<std::size_t>(p)];
    }
    cache_misses_pending_ += 1;
    return ready_entry(v, p, /*skip_unplaced=*/false);
}

double ScheduleBuilder::data_ready_partial(TaskId v, ProcId p) const {
    check_task_proc(v, p, "data_ready_partial");
    return ready_entry(v, p, /*skip_unplaced=*/true);
}

double ScheduleBuilder::ready_entry(TaskId v, ProcId p, bool skip_unplaced) const {
    // fill_ready_row's comparison chain for column p alone: same CSR order,
    // same arrival expressions, same strict > from 0.
    const auto preds = csr_->pred_tasks(v);
    double ready = 0.0;
    if (uniform_links_) {
        const double* remote = pred_remote_.data() + csr_->pred_begin(v);
        for (std::size_t i = 0; i < preds.size(); ++i) {
            const std::size_t u = static_cast<std::size_t>(preds[i]);
            if (primary_proc_[u] == kInvalidProc) {
                if (skip_unplaced) continue;
                return kInf;
            }
            double best;
            if (first_dup_[u] == kNoDup) {
                const double f = primary_finish_[u];
                best = (primary_proc_[u] == p) ? f : f + remote[i];
            } else {
                best = kInf;
                for (const Placement& pl : placements(preds[i])) {
                    best = std::min(best, pl.finish + (pl.proc == p ? 0.0 : remote[i]));
                }
            }
            if (best > ready) ready = best;
        }
    } else {
        const auto edges = csr_->pred_edges(v);
        const auto data = csr_->edge_data();
        for (std::size_t i = 0; i < preds.size(); ++i) {
            if (primary_proc_[static_cast<std::size_t>(preds[i])] == kInvalidProc) {
                if (skip_unplaced) continue;
                return kInf;
            }
            const double avail = data_available(preds[i], p, data[edges[i]]);
            if (avail > ready) ready = avail;
        }
    }
    return ready;
}

TaskId ScheduleBuilder::binding_remote_pred(TaskId v, ProcId p, double eps) const {
    check_task_proc(v, p, "binding_remote_pred");
    const auto preds = csr_->pred_tasks(v);
    TaskId binding = kInvalidTask;
    double worst = -1.0;
    // A valid data_ready cache entry already holds the argmax this walk
    // would recompute (the duplication loops always probe data_ready first,
    // so this hits nearly every call).  The finite guard keeps the
    // unplaced-predecessor corner on the exhaustive walk, whose early break
    // makes its argmax diverge from the full scan's.
    const std::size_t idx =
        static_cast<std::size_t>(v) * procs_ + static_cast<std::size_t>(p);
    if (ready_row_valid(v) && std::isfinite(ready_cache_[idx])) {
        binding = ready_binding_[idx];
        worst = ready_cache_[idx];
    } else if (uniform_links_) {
        const double* remote = pred_remote_.data() + csr_->pred_begin(v);
        for (std::size_t i = 0; i < preds.size(); ++i) {
            const std::size_t u = static_cast<std::size_t>(preds[i]);
            double avail;
            if (primary_proc_[u] != kInvalidProc && first_dup_[u] == kNoDup) {
                avail = primary_finish_[u] + (primary_proc_[u] == p ? 0.0 : remote[i]);
            } else {
                avail = kInf;
                for (const Placement& pl : placements(preds[i])) {
                    avail = std::min(avail, pl.finish + (pl.proc == p ? 0.0 : remote[i]));
                }
            }
            if (avail > worst) {
                worst = avail;
                binding = preds[i];
            }
        }
    } else {
        const auto edges = csr_->pred_edges(v);
        const auto data = csr_->edge_data();
        for (std::size_t i = 0; i < preds.size(); ++i) {
            const double avail = data_available(preds[i], p, data[edges[i]]);
            if (avail > worst) {
                worst = avail;
                binding = preds[i];
            }
        }
    }
    if (binding == kInvalidTask || worst <= 0.0) return kInvalidTask;
    const auto b = static_cast<std::size_t>(binding);
    if (primary_proc_[b] != kInvalidProc && first_dup_[b] == kNoDup) {
        if (primary_proc_[b] == p && primary_finish_[b] <= worst + eps) return kInvalidTask;
    } else {
        for (const Placement& pl : placements(binding)) {
            if (pl.proc == p && pl.finish <= worst + eps) return kInvalidTask;
        }
    }
    return binding;
}

double ScheduleBuilder::earliest_start(ProcId p, double ready, double duration,
                                       bool insertion) const {
    const BusyTimeline& timeline = busy_.at(static_cast<std::size_t>(p));
    if (!insertion) return std::max(timeline.last_finish(), ready);
    return timeline.earliest_start(ready, duration);
}

double ScheduleBuilder::est(TaskId v, ProcId p, bool insertion) const {
    eft_evals_pending_ += 1;
    const double ready = data_ready(v, p);
    if (!std::isfinite(ready)) return kInf;
    return earliest_start(p, ready, problem_->exec_time(v, p), insertion);
}

double ScheduleBuilder::eft(TaskId v, ProcId p, bool insertion) const {
    return est(v, p, insertion) + problem_->exec_time(v, p);
}

std::optional<double> ScheduleBuilder::find_slot_before(ProcId p, double ready, double duration,
                                                        double deadline, bool insertion) const {
    // earliest_start never returns a start before `ready`, and rounded fp
    // addition is monotone, so start + duration <= deadline is impossible
    // when even ready + duration misses it — the duplication loops reject
    // most probes here without scanning the timeline at all.
    if (ready + duration > deadline) return std::nullopt;
    const double start = earliest_start(p, ready, duration, insertion);
    if (start + duration <= deadline) return start;
    return std::nullopt;
}

double ScheduleBuilder::proc_available(ProcId p) const {
    return busy_.at(static_cast<std::size_t>(p)).last_finish();
}

Placement ScheduleBuilder::place(TaskId v, ProcId p, bool insertion) {
    if (is_placed(v)) {
        throw std::logic_error("ScheduleBuilder::place: task already placed");
    }
    const double ready = data_ready(v, p);
    if (!std::isfinite(ready)) {
        throw std::logic_error("ScheduleBuilder::place: a predecessor is unplaced");
    }
    const double start = earliest_start(p, ready, problem_->exec_time(v, p), insertion);
    return commit(v, p, start, /*duplicate=*/false);
}

Placement ScheduleBuilder::place_at(TaskId v, ProcId p, double start) {
    if (is_placed(v)) {
        throw std::logic_error("ScheduleBuilder::place_at: task already placed");
    }
    return commit(v, p, start, /*duplicate=*/false);
}

Placement ScheduleBuilder::place_duplicate_at(TaskId v, ProcId p, double start) {
    if (!is_placed(v)) {
        throw std::logic_error("ScheduleBuilder::place_duplicate_at: task not yet placed");
    }
    return commit(v, p, start, /*duplicate=*/true);
}

Placement ScheduleBuilder::commit(TaskId v, ProcId p, double start, bool duplicate) {
    const double w = problem_->exec_time(v, p);
    const Placement pl{v, p, start, start + w};
    check_placement(pl, primary_proc_.size(), procs_);
    busy_[static_cast<std::size_t>(p)].insert({pl.start, pl.finish});
    if (speculating()) {
        undo_log_.push_back({v, makespan_, task_modified_[static_cast<std::size_t>(v)],
                             ready_log_.size(), succ_log_.size(), duplicate});
    }
    const auto i = static_cast<std::size_t>(v);
    if (!duplicate) {
        primary_start_[i] = pl.start;
        primary_finish_[i] = pl.finish;
        primary_proc_[i] = p;
    } else {
        const auto d = static_cast<std::uint32_t>(dups_.size());
        dups_.push_back({pl, last_dup_[i], kNoDup});
        if (last_dup_[i] == kNoDup) {
            first_dup_[i] = d;
        } else {
            dups_[last_dup_[i]].next = d;
        }
        last_dup_[i] = d;
    }
    touch(v);
    makespan_ = std::max(makespan_, pl.finish);
    ++num_placements_;
    return pl;
}

ScheduleBuilder::Checkpoint ScheduleBuilder::checkpoint() {
    if (open_marks_.empty() || open_marks_.back() != num_placements_) {
        open_marks_.push_back(num_placements_);
    }
    return num_placements_;
}

std::size_t ScheduleBuilder::log_index(Checkpoint mark, const char* what) const {
    const std::size_t oldest = num_placements_ - undo_log_.size();
    if (mark > num_placements_ || mark < oldest) {
        throw std::logic_error(std::string("ScheduleBuilder::") + what + ": invalid checkpoint");
    }
    return mark - oldest;
}

void ScheduleBuilder::release(Checkpoint mark) {
    while (!open_marks_.empty() && open_marks_.back() >= mark) open_marks_.pop_back();
    if (!speculating()) {
        undo_log_.clear();
        succ_log_.clear();
        ready_log_.clear();
    }
}

void ScheduleBuilder::rollback(Checkpoint mark) {
    const std::size_t keep = log_index(mark, "rollback");
    while (!open_marks_.empty() && open_marks_.back() > mark) open_marks_.pop_back();
    if (keep == undo_log_.size()) return;
    TSCHED_COUNT("speculative_rollbacks");
    TSCHED_COUNT_ADD("rolled_back_placements", undo_log_.size() - keep);
    while (undo_log_.size() > keep) {
        const UndoEntry entry = undo_log_.back();
        undo_log_.pop_back();
        const auto i = static_cast<std::size_t>(entry.task);
        Placement pl{entry.task, primary_proc_[i], primary_start_[i], primary_finish_[i]};
        if (!entry.duplicate) {
            primary_proc_[i] = kInvalidProc;
        } else {
            // LIFO: the newest duplicate overall is this task's last one.
            const Duplicate dup = dups_.back();
            dups_.pop_back();
            pl = dup.pl;
            last_dup_[i] = dup.prev;
            if (dup.prev == kNoDup) {
                first_dup_[i] = kNoDup;
            } else {
                dups_[dup.prev].next = kNoDup;
            }
        }
        if (!busy_[static_cast<std::size_t>(pl.proc)].erase({pl.start, pl.finish})) {
            throw std::logic_error("ScheduleBuilder::rollback: interval not found");
        }
        // Restore the task's modification stamp instead of advancing it:
        // after the rollback the placement state is exactly what the
        // pre-speculation cache entries were computed from, so they stay
        // valid.  The entries written *during* the speculation reflect the
        // rolled-back state; zero-stamp that suffix of the write log.
        task_modified_[static_cast<std::size_t>(entry.task)] = entry.prev_modified;
        while (succ_log_.size() > entry.succ_log_mark) {
            preds_modified_[succ_log_.back().first] = succ_log_.back().second;
            succ_log_.pop_back();
        }
        while (ready_log_.size() > entry.ready_log_mark) {
            ready_stamp_[ready_log_.back()] = 0;
            ready_log_.pop_back();
        }
        makespan_ = entry.prev_makespan;
        --num_placements_;
    }
}

void ScheduleBuilder::duplicates_since(Checkpoint mark, std::vector<Placement>& out) const {
    // Rollback is LIFO, so the duplicates still in place from the commits
    // since `mark` are exactly the tail of dups_, one per duplicate entry.
    std::size_t count = 0;
    for (std::size_t e = log_index(mark, "duplicates_since"); e < undo_log_.size(); ++e) {
        if (undo_log_[e].duplicate) ++count;
    }
    for (std::size_t d = dups_.size() - count; d < dups_.size(); ++d) out.push_back(dups_[d].pl);
}

Schedule ScheduleBuilder::snapshot() const {
    // Each task's group is its primary, then its duplicate chain: commit
    // order, as a ScheduleDraft fed the same commits would pack it.
    const std::size_t n = primary_proc_.size();
    std::vector<std::uint32_t> offsets(n + 1, 0);
    std::vector<Placement> packed;
    packed.reserve(num_placements_);
    for (std::size_t v = 0; v < n; ++v) {
        for (const Placement& pl : placements(static_cast<TaskId>(v))) packed.push_back(pl);
        offsets[v + 1] = static_cast<std::uint32_t>(packed.size());
    }
    return Schedule(procs_, std::move(offsets), std::move(packed));
}

Schedule ScheduleBuilder::take() && {
    Schedule schedule = snapshot();
#ifdef TSCHED_DEBUG_CHECKS
    // With -DTSCHED_DEBUG_CHECKS=ON every schedule leaving a builder is run
    // through the error-severity lint passes, so an invalid placement is
    // caught inside the scheduler that produced it instead of at validation
    // time much later.  Throws std::invalid_argument on violations.
    analysis::run_debug_checks(schedule, *problem_);
#endif
    return schedule;
}

}  // namespace tsched
