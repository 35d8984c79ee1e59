// Static schedule representation.
//
// A Schedule maps every task to one or more *placements* (processor, start,
// finish).  More than one placement per task arises only from duplication
// heuristics (DSH, BTDH, ILS-D): a consumer may read a task's output from
// any placement, whichever makes its data available earliest.
//
// The schedule length (makespan) is the latest finish time over all
// placements — the conservative, standard definition: even a useless
// duplicate occupies its processor until it finishes.
//
// A built Schedule is immutable and packed: one flat Placement array grouped
// by task, plus n + 1 offsets into it.  Within a task the placements keep
// insertion order (the primary first, then its duplicates in commit order).
// Placements are recorded on a ScheduleDraft (or by a ScheduleBuilder) and
// packed once; a serving cache holds many schedules, so none keeps a heap
// block per task.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "platform/link_model.hpp"

namespace tsched {

struct Placement {
    TaskId task = kInvalidTask;
    ProcId proc = kInvalidProc;
    double start = 0.0;
    double finish = 0.0;

    [[nodiscard]] double duration() const noexcept { return finish - start; }
    friend bool operator==(const Placement&, const Placement&) = default;
};

/// Throws std::invalid_argument unless pl.task < num_tasks, pl.proc <
/// num_procs and 0 <= pl.start <= pl.finish < inf: the checks every recorded
/// placement passes (overlap/precedence feasibility is the validator's job).
void check_placement(const Placement& pl, std::size_t num_tasks, std::size_t num_procs);

class Schedule {
public:
    /// An empty schedule: `num_tasks` tasks, none placed.  Throws
    /// std::invalid_argument when num_procs is 0 or num_tasks exceeds the
    /// TaskId range.
    Schedule(std::size_t num_tasks, std::size_t num_procs);

    [[nodiscard]] std::size_t num_tasks() const noexcept { return num_tasks_; }
    [[nodiscard]] std::size_t num_procs() const noexcept { return num_procs_; }

    /// All placements of `task` in insertion order (first is the "primary"
    /// placement; duplicates follow).  Empty if the task was never placed.
    [[nodiscard]] std::span<const Placement> placements(TaskId task) const;

    /// Every placement, grouped by task in task order (each group as
    /// placements(task) returns it).
    [[nodiscard]] std::span<const Placement> all_placements() const noexcept {
        return placements_;
    }

    /// The first-recorded placement of `task`; throws std::out_of_range when
    /// the task has none.
    [[nodiscard]] const Placement& primary(TaskId task) const;

    /// True when every task has at least one placement.
    [[nodiscard]] bool complete() const noexcept;

    /// Total number of placements (>= num_tasks when complete; the excess is
    /// the duplicate count).
    [[nodiscard]] std::size_t num_placements() const noexcept { return placements_.size(); }
    [[nodiscard]] std::size_t num_duplicates() const noexcept;

    /// Latest finish over all placements (0 for an empty schedule).
    [[nodiscard]] double makespan() const noexcept;

    /// Placements on processor p sorted by start time.
    [[nodiscard]] std::vector<Placement> processor_timeline(ProcId p) const;

    /// Earliest time task's output is available *on* processor p, i.e.
    /// min over placements q of (finish + comm(data, q.proc, p)).
    /// Returns +inf when the task has no placement.
    [[nodiscard]] double data_available(TaskId task, ProcId p, double data,
                                        const LinkModel& links) const;

    /// Sum of idle time across all processors inside [0, makespan].
    [[nodiscard]] double total_idle_time() const;

    /// Human-readable multi-line rendering (one line per processor).
    [[nodiscard]] std::string to_string() const;

private:
    friend class ScheduleDraft;
    friend class ScheduleBuilder;

    /// Adopt packed storage: `offsets` has num_tasks + 1 entries and task
    /// v's placements are placements[offsets[v], offsets[v + 1]).
    Schedule(std::size_t num_procs, std::vector<std::uint32_t> offsets,
             std::vector<Placement> placements);

    std::size_t num_tasks_;
    std::size_t num_procs_;
    std::vector<std::uint32_t> offsets_;  // num_tasks_ + 1, into placements_
    std::vector<Placement> placements_;   // grouped by task, insertion order within
};

/// Records placements in any order and packs them into a Schedule in one
/// pass.  build() is a stable counting sort by task, so each task keeps its
/// placements in add() order and its first add() is its primary.
class ScheduleDraft {
public:
    /// Throws as the empty Schedule constructor does.
    ScheduleDraft(std::size_t num_tasks, std::size_t num_procs);

    /// Record a placement; throws as check_placement does.
    void add(TaskId task, ProcId proc, double start, double finish);

    /// Pack everything added so far (O(n + placements)).
    [[nodiscard]] Schedule build() &&;

private:
    std::size_t num_tasks_;
    std::size_t num_procs_;
    std::vector<Placement> placements_;  // add() order
};

}  // namespace tsched
