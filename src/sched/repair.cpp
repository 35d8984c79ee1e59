#include "sched/repair.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "sched/builder.hpp"
#include "sched/ranks.hpp"
#include "trace/trace.hpp"

namespace tsched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-task view of the crash split: the pending instances grouped by task
/// (original insertion order, packed like any Schedule), and per task
/// whether some instance executed and how many instances were lost.
struct TaskSplit {
    std::vector<bool> ran;
    Schedule pending;
    std::vector<std::size_t> lost;

    explicit TaskSplit(const RepairContext& ctx)
        : ran(ctx.problem->num_tasks(), false),
          pending(pack_pending(ctx)),
          lost(ctx.problem->num_tasks(), 0) {
        for (const FrozenPlacement& f : ctx.frozen) ran[static_cast<std::size_t>(f.task)] = true;
        for (const Placement& pl : ctx.lost) ++lost[static_cast<std::size_t>(pl.task)];
    }

    static Schedule pack_pending(const RepairContext& ctx) {
        ScheduleDraft draft(ctx.problem->num_tasks(), ctx.num_procs());
        for (const Placement& pl : ctx.pending) draft.add(pl.task, pl.proc, pl.start, pl.finish);
        return std::move(draft).build();
    }

    [[nodiscard]] bool executed(TaskId v) const { return ran[static_cast<std::size_t>(v)]; }
    /// No instance left anywhere: neither executed nor pending on a live proc.
    [[nodiscard]] bool stranded(TaskId v) const {
        return !executed(v) && pending.placements(v).empty();
    }
};

/// Re-record the executed prefix at its realised times.  place_at does not
/// require predecessors to be placed, so frozen replay order is free; the
/// task-major order of ctx.frozen keeps each task's original primary first.
ScheduleBuilder replay_frozen(const RepairContext& ctx) {
    ScheduleBuilder builder(*ctx.problem);
    for (const FrozenPlacement& f : ctx.frozen) {
        if (builder.is_placed(f.task)) {
            builder.place_duplicate_at(f.task, f.proc, f.start);
        } else {
            builder.place_at(f.task, f.proc, f.start);
        }
    }
    return builder;
}

/// Commit v on p no earlier than `floor` (and its data-ready time).  With
/// `insertion` the first sufficient idle gap at/after the floor is used,
/// otherwise the placement is appended after p's last interval.
Placement place_floored(ScheduleBuilder& builder, TaskId v, ProcId p, double floor,
                        bool insertion) {
    const double ready = std::max(builder.data_ready(v, p), floor);
    if (!std::isfinite(ready)) {
        throw std::logic_error("repair: predecessor of task " + std::to_string(v) +
                               " is unplaced");
    }
    const double w = builder.problem().exec_time(v, p);
    const double start = builder.earliest_start(p, ready, w, insertion);
    return builder.is_placed(v) ? builder.place_duplicate_at(v, p, start)
                                : builder.place_at(v, p, start);
}

/// Replay the surviving pending instances of v on their planned processors,
/// floored at the crash time (append mode: an untouched suffix keeps its
/// planned per-processor order and, when its dependencies are unchanged,
/// its planned times).
void replay_pending(ScheduleBuilder& builder, const RepairContext& ctx, const TaskSplit& split,
                    TaskId v) {
    for (const Placement& pl : split.pending.placements(v)) {
        place_floored(builder, v, pl.proc, std::max(pl.start, ctx.crash_time),
                      /*insertion=*/false);
    }
}

/// Min-EFT over live processors via speculative trial commits: each
/// candidate placement is committed, measured, and rolled back, so the
/// winning commit re-runs the identical code path (the PR 3 speculation
/// idiom the duplication heuristics use).
Placement place_best_live(ScheduleBuilder& builder, const RepairContext& ctx, TaskId v,
                          bool insertion) {
    ProcId best_proc = kInvalidProc;
    double best_finish = kInf;
    for (std::size_t p = 0; p < ctx.num_procs(); ++p) {
        if (ctx.dead[p]) continue;
        const auto q = static_cast<ProcId>(p);
        const ScheduleBuilder::Checkpoint mark = builder.checkpoint();
        TSCHED_COUNT("repair_trial_placements");
        const Placement trial = place_floored(builder, v, q, ctx.crash_time, insertion);
        const double finish = trial.finish;
        builder.rollback(mark);
        if (finish < best_finish) {
            best_finish = finish;
            best_proc = q;
        }
    }
    if (best_proc == kInvalidProc) {
        throw std::runtime_error("repair: no live processor left to place task " +
                                 std::to_string(v));
    }
    return place_floored(builder, v, best_proc, ctx.crash_time, insertion);
}

// ---- none ----------------------------------------------------------------

class NonePolicy final : public RepairPolicy {
public:
    [[nodiscard]] std::string name() const override { return "none"; }

    [[nodiscard]] Schedule repair(const RepairContext& ctx) const override {
        const TaskSplit split(ctx);
        ScheduleBuilder builder = replay_frozen(ctx);
        const ProcId fallback = ctx.first_live_proc();
        for (const TaskId v : topological_order(ctx.problem->dag())) {
            replay_pending(builder, ctx, split, v);
            if (split.stranded(v)) {
                // No repair intelligence: serialise the orphaned work onto
                // one surviving processor, appended in topological order.
                place_floored(builder, v, fallback, ctx.crash_time, /*insertion=*/false);
            }
        }
        return std::move(builder).take();
    }
};

// ---- remap-pending -------------------------------------------------------

class RemapPendingPolicy final : public RepairPolicy {
public:
    [[nodiscard]] std::string name() const override { return "remap-pending"; }

    [[nodiscard]] Schedule repair(const RepairContext& ctx) const override {
        const TaskSplit split(ctx);
        ScheduleBuilder builder = replay_frozen(ctx);
        for (const TaskId v : topological_order(ctx.problem->dag())) {
            replay_pending(builder, ctx, split, v);
            // Migrate every lost instance to the live processor that
            // finishes it earliest (duplicates stay duplicates).
            for (std::size_t i = 0; i < split.lost[static_cast<std::size_t>(v)]; ++i) {
                place_best_live(builder, ctx, v, /*insertion=*/true);
            }
        }
        return std::move(builder).take();
    }
};

// ---- reschedule-suffix ---------------------------------------------------

class RescheduleSuffixPolicy final : public RepairPolicy {
public:
    [[nodiscard]] std::string name() const override { return "reschedule-suffix"; }

    [[nodiscard]] Schedule repair(const RepairContext& ctx) const override {
        const TaskSplit split(ctx);
        ScheduleBuilder builder = replay_frozen(ctx);
        // HEFT on the unexecuted subgraph: previous pending assignments
        // (and unexecuted duplicates) are discarded; decreasing upward rank
        // restricted to the unexecuted set is still a topological order.
        const auto ranks = upward_rank(*ctx.problem);
        for (const TaskId v : order_by_decreasing(ranks)) {
            if (split.executed(v)) continue;
            place_best_live(builder, ctx, v, /*insertion=*/true);
        }
        return std::move(builder).take();
    }
};

// ---- use-duplicates ------------------------------------------------------

class UseDuplicatesPolicy final : public RepairPolicy {
public:
    [[nodiscard]] std::string name() const override { return "use-duplicates"; }

    [[nodiscard]] Schedule repair(const RepairContext& ctx) const override {
        const TaskSplit split(ctx);
        ScheduleBuilder builder = replay_frozen(ctx);
        for (const TaskId v : topological_order(ctx.problem->dag())) {
            // Lost instances of a task with a surviving instance (frozen or
            // pending) are simply dropped — the surviving copy serves its
            // consumers.  Only stranded tasks get new work.
            replay_pending(builder, ctx, split, v);
            if (split.stranded(v)) {
                place_best_live(builder, ctx, v, /*insertion=*/true);
            }
        }
        return std::move(builder).take();
    }
};

}  // namespace

std::size_t RepairContext::live_procs() const {
    std::size_t live = 0;
    for (const bool d : dead) {
        if (!d) ++live;
    }
    return live;
}

ProcId RepairContext::first_live_proc() const {
    for (std::size_t p = 0; p < dead.size(); ++p) {
        if (!dead[p]) return static_cast<ProcId>(p);
    }
    throw std::runtime_error("repair: every processor is dead");
}

RepairPolicyPtr make_repair_policy(const std::string& name) {
    if (name == "none") return std::make_unique<NonePolicy>();
    if (name == "remap-pending") return std::make_unique<RemapPendingPolicy>();
    if (name == "reschedule-suffix") return std::make_unique<RescheduleSuffixPolicy>();
    if (name == "use-duplicates") return std::make_unique<UseDuplicatesPolicy>();
    throw std::invalid_argument("unknown repair policy '" + name +
                                "' (expected none, remap-pending, reschedule-suffix, or "
                                "use-duplicates)");
}

std::vector<std::string> repair_policy_names() {
    return {"none", "remap-pending", "reschedule-suffix", "use-duplicates"};
}

}  // namespace tsched
