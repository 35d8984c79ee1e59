#include "sched/duplication.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sched/builder.hpp"
#include "sched/ranks.hpp"
#include "trace/trace.hpp"
#include "util/stopwatch.hpp"

namespace tsched {

namespace {
constexpr double kEps = 1e-12;

/// DSH inner loop: copy binding predecessors of v onto p while each single
/// copy strictly lowers v's data-ready time.  Returns the number of copies.
std::size_t duplicate_while_improving(ScheduleBuilder& trial, TaskId v, ProcId p,
                                      std::size_t max_dups) {
    const Problem& problem = trial.problem();
    std::size_t dups = 0;
    while (dups < max_dups) {
        const double ready = trial.data_ready(v, p);
        if (ready <= 0.0) break;
        const TaskId u = trial.binding_remote_pred(v, p, kEps);
        if (u == kInvalidTask) break;
        TSCHED_COUNT("duplication_attempts");
        const double u_ready = trial.data_ready(u, p);
        const double u_cost = problem.exec_time(u, p);
        // The copy must finish strictly before the current arrival to help.
        const auto slot = trial.find_slot_before(p, u_ready, u_cost, ready - kEps,
                                                 /*insertion=*/true);
        if (!slot) break;
        trial.place_duplicate_at(u, p, *slot);
        TSCHED_COUNT("duplication_accepted");
        ++dups;
        if (trial.data_ready(v, p) >= ready - kEps) break;  // no progress
    }
    return dups;
}

/// BTDH inner loop: before giving up on copying the binding predecessor u,
/// recursively improve u's own readiness on p by copying *its* binding
/// ancestors (these intermediate copies may not pay off immediately — the
/// caller accepts or rejects the whole trial by final EFT).
void duplicate_chain(ScheduleBuilder& trial, TaskId v, ProcId p, std::size_t max_dups,
                     std::size_t depth) {
    const Problem& problem = trial.problem();
    std::size_t dups = 0;
    while (dups < max_dups) {
        const double ready = trial.data_ready(v, p);
        if (ready <= 0.0) break;
        const TaskId u = trial.binding_remote_pred(v, p, kEps);
        if (u == kInvalidTask) break;
        TSCHED_COUNT("duplication_attempts");
        if (depth > 0) duplicate_chain(trial, u, p, max_dups, depth - 1);
        const double u_ready = trial.data_ready(u, p);
        const double u_cost = problem.exec_time(u, p);
        const auto slot = trial.find_slot_before(p, u_ready, u_cost, ready - kEps, true);
        if (!slot) break;
        trial.place_duplicate_at(u, p, *slot);
        TSCHED_COUNT("duplication_accepted");
        ++dups;
        if (trial.data_ready(v, p) >= ready - kEps) break;
    }
}

/// Shared outer loop: decreasing static level (a topological order since all
/// execution costs are positive); per task, speculate every processor's
/// duplication + placement on the one builder and roll each trial back,
/// keeping a copy of the best trial's surviving duplicates; then re-commit
/// that copy and place v.  `duplicate` leaves its copies on the builder and
/// returns v's earliest start on p with them in place
/// (ScheduleBuilder::est), which the commit uses as is.  Every trial commit
/// is a duplicate, so the copy holds the whole trial state, and
/// re-committing it in order rebuilds exactly what re-running the winning
/// trial would.
template <typename DuplicateFn>
Schedule duplication_schedule(const Problem& problem, DuplicateFn&& duplicate) {
    // One sample per scheduler run: the whole speculate/rollback/commit loop
    // *is* the duplication phase (static_level inside it times its own rank
    // phase separately).
    TSCHED_OBS_PHASE("sched/phase/duplication_ms");
    const auto sl = static_level(problem, RankCost::kMean);
    std::vector<TaskId> order;
    {
        TSCHED_OBS_PHASE("sched/phase/priority_ms");
        order = order_by_decreasing(sl);
    }
    ScheduleBuilder builder(problem);
    std::vector<Placement> best_dups;  // the best trial's duplicates, per task
    // Selection (per-proc speculative trials) and placement (winner
    // re-commit) accumulate across the run into one histogram sample each —
    // the boundary-timestamp pattern HEFT uses, two clock reads per task.
    double selection_ms = 0.0;
    double placement_ms = 0.0;
    const Stopwatch loop_watch;
    double boundary_ms = 0.0;
    for (const TaskId v : order) {
        ProcId best_proc = 0;
        double best_start = std::numeric_limits<double>::infinity();
        double best_finish = std::numeric_limits<double>::infinity();
        // Every trial starts from this mark and is rolled back to it.
        const ScheduleBuilder::Checkpoint mark = builder.checkpoint();
        for (std::size_t p = 0; p < problem.num_procs(); ++p) {
            const auto proc = static_cast<ProcId>(p);
            // start + w is the same data_ready + earliest_start + w
            // computation eft() and commit run, so judging the trial by it
            // (instead of placing v and reading back the finish) spares
            // every trial one timeline insert/erase pair without changing a
            // single compared value.
            const double start = duplicate(builder, v, proc);
            const double finish = start + problem.exec_time(v, proc);
            if (finish < best_finish) {
                best_start = start;
                best_finish = finish;
                best_proc = proc;
                best_dups.clear();
                builder.duplicates_since(mark, best_dups);
            }
            builder.rollback(mark);
        }
        builder.release(mark);  // the winner's commits need no undo history
        const double select_end_ms = loop_watch.elapsed_ms();
        selection_ms += select_end_ms - boundary_ms;
        if (!std::isfinite(best_start)) {
            throw std::logic_error("duplication_schedule: a predecessor is unplaced");
        }
        for (const Placement& d : best_dups) builder.place_duplicate_at(d.task, d.proc, d.start);
        builder.place_at(v, best_proc, best_start);
        boundary_ms = loop_watch.elapsed_ms();
        placement_ms += boundary_ms - select_end_ms;
    }
    TSCHED_OBS_RECORD("sched/phase/selection_ms", selection_ms);
    TSCHED_OBS_RECORD("sched/phase/placement_ms", placement_ms);
    return std::move(builder).take();
}
}  // namespace

Schedule DshScheduler::schedule(const Problem& problem) const {
    return duplication_schedule(problem, [this](ScheduleBuilder& trial, TaskId v, ProcId p) {
        duplicate_while_improving(trial, v, p, max_dups_);
        return trial.est(v, p, /*insertion=*/true);
    });
}

Schedule BtdhScheduler::schedule(const Problem& problem) const {
    return duplication_schedule(problem, [this](ScheduleBuilder& trial, TaskId v, ProcId p) {
        // Evaluate the chain-duplication attempt against the plain placement
        // and keep whichever finishes v earlier (BTDH's end-of-attempt test).
        // The attempt speculates on the builder itself; a nested rollback
        // discards it when it does not pay off.  Each state is probed once:
        // an attempt that committed nothing left the plain state in place,
        // and a rollback restores it exactly, so plain_start stands for both.
        const double w = trial.problem().exec_time(v, p);
        const double plain_start = trial.est(v, p, true);
        const ScheduleBuilder::Checkpoint mark = trial.checkpoint();
        duplicate_chain(trial, v, p, max_dups_, max_depth_);
        if (trial.num_placements() == mark) return plain_start;
        const double chain_start = trial.est(v, p, true);
        if (chain_start + w < plain_start + w) return chain_start;  // compare EFTs
        trial.rollback(mark);
        return plain_start;
    });
}

}  // namespace tsched
