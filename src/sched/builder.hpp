// ScheduleBuilder: the shared machinery of every list scheduler in the
// library — data-ready times, insertion-based earliest-start computation over
// per-processor busy timelines, and placement commits (including duplicates).
//
// All algorithms (HEFT, CPOP, DLS, ETF, MCP, DSH, BTDH, ILS, ...) are thin
// priority/selection policies over this class, which keeps their code close
// to the papers' pseudocode and concentrates the tricky interval bookkeeping
// in one tested place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "platform/problem.hpp"
#include "sched/schedule.hpp"
#include "sched/timeline.hpp"

namespace tsched {

class ScheduleBuilder {
public:
    explicit ScheduleBuilder(const Problem& problem);

    // Copyable (branch-and-bound forks child builders) and movable; the
    // destructor flushes the locally accumulated probe tallies to the global
    // trace counters in one shot — one relaxed atomic add per probe was
    // measurable on 10k-task schedules.  PendingTally's copy/move semantics
    // keep each count owned by exactly one live builder.
    ScheduleBuilder(const ScheduleBuilder&) = default;
    ScheduleBuilder& operator=(const ScheduleBuilder&) = default;
    ScheduleBuilder(ScheduleBuilder&&) = default;
    ScheduleBuilder& operator=(ScheduleBuilder&&) = default;
    ~ScheduleBuilder();

    [[nodiscard]] const Problem& problem() const noexcept { return *problem_; }

    /// The placements of one task committed so far, in commit order (the
    /// primary first, then its duplicates): what the built Schedule's
    /// placements(v) will hold.  Iterates Placement values; a view into the
    /// builder, invalidated by the next commit or rollback.
    class PlacementRange {
    public:
        class iterator {
        public:
            using value_type = Placement;
            using difference_type = std::ptrdiff_t;
            using iterator_concept = std::forward_iterator_tag;

            iterator() = default;
            iterator(const ScheduleBuilder* builder, TaskId v, std::uint32_t at) noexcept
                : builder_(builder), v_(v), at_(at) {}

            Placement operator*() const noexcept {
                if (at_ != kPrimarySlot) return builder_->dups_[at_].pl;
                const auto i = static_cast<std::size_t>(v_);
                return {v_, builder_->primary_proc_[i], builder_->primary_start_[i],
                        builder_->primary_finish_[i]};
            }
            iterator& operator++() noexcept {
                at_ = at_ == kPrimarySlot ? builder_->first_dup_[static_cast<std::size_t>(v_)]
                                          : builder_->dups_[at_].next;
                return *this;
            }
            iterator operator++(int) noexcept {
                iterator old = *this;
                ++*this;
                return old;
            }
            friend bool operator==(const iterator& a, const iterator& b) noexcept {
                return a.at_ == b.at_;
            }

        private:
            const ScheduleBuilder* builder_ = nullptr;
            TaskId v_ = kInvalidTask;
            std::uint32_t at_ = kNoDup;  // kPrimarySlot, a dups_ index, or kNoDup (end)
        };

        PlacementRange(const ScheduleBuilder* builder, TaskId v) noexcept
            : builder_(builder), v_(v) {}

        [[nodiscard]] bool empty() const noexcept {
            return builder_->primary_proc_[static_cast<std::size_t>(v_)] == kInvalidProc;
        }
        [[nodiscard]] iterator begin() const noexcept {
            return {builder_, v_, empty() ? kNoDup : kPrimarySlot};
        }
        [[nodiscard]] iterator end() const noexcept { return {builder_, v_, kNoDup}; }

    private:
        const ScheduleBuilder* builder_;
        TaskId v_;
    };

    /// Throws std::out_of_range for an out-of-range task.
    [[nodiscard]] PlacementRange placements(TaskId v) const;

    /// The partial schedule built so far, packed into a Schedule (the
    /// branch-and-bound incumbent).  O(n + placements).
    [[nodiscard]] Schedule snapshot() const;

    // ---- queries (no mutation) -------------------------------------------

    [[nodiscard]] bool is_placed(TaskId v) const;

    /// Finish time of the primary placement of v; throws if unplaced.
    [[nodiscard]] double finish_time(TaskId v) const;

    /// Earliest time all of v's inputs are available on processor p, taking
    /// the best placement (original or duplicate) of each predecessor.
    /// Unplaced predecessors yield +inf.  Tasks without predecessors: 0.
    /// Like every (task, processor) query below, throws std::out_of_range
    /// for an out-of-range task or processor.
    [[nodiscard]] double data_ready(TaskId v, ProcId p) const;

    /// data_ready(v, p) without touching the cache: a valid cached entry is
    /// returned as is; otherwise just this one entry is computed, with
    /// fill_ready_row's per-predecessor arrival expressions (so the value is
    /// bit-identical to data_ready's), and nothing is written.  For reads
    /// taken under speculation whose row the next rollback would discard
    /// anyway (ILS-D's re-read after each trial duplicate).
    [[nodiscard]] double data_ready_peek(TaskId v, ProcId p) const;

    /// Like data_ready but *ignoring* unplaced predecessors (their arrival
    /// counts as 0).  Used by lookahead policies that must estimate a
    /// successor's start while some of its inputs are still unscheduled.
    [[nodiscard]] double data_ready_partial(TaskId v, ProcId p) const;

    /// The predecessor whose data arrival on p binds v's ready time — the
    /// duplication heuristics' copy candidate — or kInvalidTask when v's
    /// start is not communication-bound: no predecessors, binding arrival at
    /// time 0, or some placement of the binding predecessor already sits on
    /// p and delivers within `eps` of the binding time (a copy cannot help).
    /// Ties keep the first binding predecessor in CSR order, matching the
    /// historical helper the duplication schedulers used.
    [[nodiscard]] TaskId binding_remote_pred(TaskId v, ProcId p, double eps) const;

    /// Earliest start on p at or after `ready` for a task of length
    /// `duration`.  With `insertion` the first sufficient idle gap between
    /// existing placements is used (HEFT's insertion-based policy); without
    /// it the task goes after the last placement.
    [[nodiscard]] double earliest_start(ProcId p, double ready, double duration,
                                        bool insertion) const;

    /// Earliest start time of v on p = earliest_start(data_ready, w(v,p)) —
    /// the start place() would commit.  +inf when some predecessor is
    /// unplaced.  Counts as one EFT evaluation.
    [[nodiscard]] double est(TaskId v, ProcId p, bool insertion) const;

    /// Earliest finish time of v on p = est(v, p) + w(v,p).
    /// +inf when some predecessor is unplaced.
    [[nodiscard]] double eft(TaskId v, ProcId p, bool insertion) const;

    /// Earliest start on p for `duration` that both begins at/after `ready`
    /// and finishes by `deadline`; nullopt when no such slot exists.  Used by
    /// the duplication heuristics to fill idle holes.
    [[nodiscard]] std::optional<double> find_slot_before(ProcId p, double ready, double duration,
                                                         double deadline, bool insertion) const;

    /// Latest finish currently scheduled on p (0 when idle).
    [[nodiscard]] double proc_available(ProcId p) const;

    /// Current partial makespan.
    [[nodiscard]] double current_makespan() const noexcept { return makespan_; }

    // ---- commits ----------------------------------------------------------

    /// Place v on p at its earliest feasible time; returns the placement.
    /// Precondition: all predecessors placed, v not yet placed.
    Placement place(TaskId v, ProcId p, bool insertion);

    /// Place v on p exactly at `start` (caller guarantees feasibility —
    /// the validator will catch violations).  Used by duplication code that
    /// has already located a slot via find_slot_before.
    Placement place_at(TaskId v, ProcId p, double start);

    /// Add a *duplicate* of an already-placed task at `start` on p.
    Placement place_duplicate_at(TaskId v, ProcId p, double start);

    /// Number of placements committed so far (duplicates included).
    [[nodiscard]] std::size_t num_placements() const noexcept { return num_placements_; }

    // ---- speculation (checkpoint / rollback / release) ----------------------
    //
    // Trial-placement loops (ILS-D's duplication probes, Lookahead-HEFT's
    // child probes, DSH/BTDH's per-processor trials) speculate directly on
    // this builder and roll back, instead of deep-copying the whole state
    // once per candidate.  While a checkpoint is open every commit is
    // recorded in an undo log; a checkpoint is just the placement count at
    // the time it was taken, so checkpoints nest freely and cost nothing to
    // take.  With no checkpoint open (HEFT, ILS, and every trial loop
    // between tasks) commits record nothing, and the history of a released
    // speculation is dropped.

    /// Opaque marker for the current state; restore with rollback().  The
    /// mark stays open (commits after it are logged) until release().
    using Checkpoint = std::size_t;

    [[nodiscard]] Checkpoint checkpoint();

    /// Undo every placement (primary or duplicate) committed since `mark`,
    /// restoring per-processor timelines, placed flags, the makespan, and
    /// the placement count to their values at checkpoint time.  `mark`
    /// stays open (it can be rolled back to again); every checkpoint taken
    /// after it is closed.  Throws std::logic_error when `mark` is ahead of
    /// the current state or older than the history kept (a released mark).
    void rollback(Checkpoint mark);

    /// Close `mark` and every checkpoint taken after it: the caller keeps
    /// what was committed since and will not roll back to them.  Once no
    /// checkpoint is open the undo history is dropped.  Checkpoints are
    /// positions, so two marks taken at one state are one mark: releasing
    /// either closes both.
    void release(Checkpoint mark);

    /// Append to `out`, in commit order, every duplicate committed since
    /// `mark` that is still in place (nested rollbacks since `mark` already
    /// removed theirs).  A trial loop keeps its winner this way: copy the
    /// trial's duplicates before rolling it back, then re-commit them with
    /// place_duplicate_at in the same order, which rebuilds the trial's
    /// placement state exactly without re-running the trial.  Throws
    /// std::logic_error when `mark` is not a prior checkpoint.
    void duplicates_since(Checkpoint mark, std::vector<Placement>& out) const;

    /// Pack the finished schedule; the builder must not be used after.
    [[nodiscard]] Schedule take() &&;

private:
    static constexpr std::uint32_t kNoDup = 0xFFFFFFFFu;
    static constexpr std::uint32_t kPrimarySlot = kNoDup - 1;  // PlacementRange cursor

    /// One committed duplicate, linked to the same task's neighbours in
    /// commit order.  Rollback is LIFO, so the duplicate it undoes is
    /// always the last entry of dups_ and the last link of its chain.
    struct Duplicate {
        Placement pl;
        std::uint32_t prev = kNoDup;  // earlier duplicate of pl.task
        std::uint32_t next = kNoDup;  // later duplicate of pl.task
    };

    struct UndoEntry {
        TaskId task = kInvalidTask;
        double prev_makespan = 0.0;       ///< makespan before this commit
        std::uint64_t prev_modified = 0;  ///< task_modified_[task] before it
        std::size_t ready_log_mark = 0;   ///< ready_log_ length at commit
        std::size_t succ_log_mark = 0;    ///< succ_log_ length at commit
        bool duplicate = false;
    };

    Placement commit(TaskId v, ProcId p, double start, bool duplicate);

    /// Throws std::out_of_range naming `what` for a bad task or processor.
    void check_task_proc(TaskId v, ProcId p, const char* what) const;

    /// undo_log_ index of the commit that made placement count `mark`;
    /// throws std::logic_error naming `what` when the log does not reach it.
    [[nodiscard]] std::size_t log_index(Checkpoint mark, const char* what) const;

    /// True while some checkpoint is open, i.e. commits must be undoable.
    [[nodiscard]] bool speculating() const noexcept { return !open_marks_.empty(); }

    /// True when v's cached data-ready row is current (see ready_stamp_).
    [[nodiscard]] bool ready_row_valid(TaskId v) const noexcept;

    /// Schedule::data_available over the placements committed so far.
    [[nodiscard]] double data_available(TaskId u, ProcId p, double data) const;

    /// Compute and cache data_ready(v, q) for *every* processor q in one
    /// predecessor walk.  Every caller that misses on (v, p) probes the
    /// sibling processors too (HEFT evaluates all of them per task; the
    /// trial loops sweep them), so amortising the predecessor-state loads
    /// across the row removes ~(P-1)/P of the walk's memory traffic.  The
    /// per-processor comparison chains run in CSR predecessor order with the
    /// scalar loop's exact arrival expressions, so the cached values are
    /// bit-identical to per-(v, p) computation.
    void fill_ready_row(TaskId v) const;

    /// One data-ready entry, uncached: fill_ready_row's column p, computed
    /// alone and written nowhere.  An unplaced predecessor yields +inf, or
    /// is skipped with `skip_unplaced` (data_ready_partial's contract).
    [[nodiscard]] double ready_entry(TaskId v, ProcId p, bool skip_unplaced) const;

    /// Record that v's placement set changed (a commit): advances the
    /// builder epoch, invalidating every cached data-ready value that
    /// depends on v.  Each successor's preds_modified_ watermark is raised
    /// to the new epoch; while speculating, its prior value is pushed onto
    /// succ_log_ so rollback can restore the watermarks exactly.
    void touch(TaskId v) {
        const std::uint64_t e = ++epoch_;
        task_modified_[static_cast<std::size_t>(v)] = e;
        const bool log = speculating();
        for (const TaskId w : csr_->succ_tasks(v)) {
            const auto wi = static_cast<std::size_t>(w);
            if (log) succ_log_.emplace_back(wi, preds_modified_[wi]);
            preds_modified_[wi] = e;
        }
    }

    const Problem* problem_;
    const CsrAdjacency* csr_;  ///< flat adjacency of problem_->dag(), built once
    const LinkModel* links_;
    std::size_t procs_;
    std::vector<BusyTimeline> busy_;  // per proc, flat-order by start
    // One entry per commit since the oldest open checkpoint, in order, so
    // entry i undoes the commit that made the placement count
    // num_placements_ - undo_log_.size() + i + 1.  Empty, with succ_log_
    // and ready_log_, while no checkpoint is open.
    std::vector<UndoEntry> undo_log_;
    std::vector<Checkpoint> open_marks_;  // strictly increasing
    double makespan_ = 0.0;
    std::size_t num_placements_ = 0;

    // data_ready memoisation keyed on predecessor placement epochs: HEFT
    // probes every (task, proc) pair and the speculative schedulers
    // (ILS-D, DSH/BTDH, lookahead) re-probe the same pair many times between
    // placements; each probe walks the predecessors and pays a virtual
    // LinkModel::comm_time call per placement.  A cached entry written at
    // epoch E stays valid while no predecessor's placement set changed after
    // E.  Commits advance the epoch via touch(); rollback *restores* each
    // popped task's pre-commit stamp — the placement state is back to what
    // the surviving cache entries were computed from, so they become valid
    // again.  The entries written while speculative commits were in effect
    // are the exception (they reflect the rolled-back state); every cache
    // write made while a checkpoint is open is appended to ready_log_, and
    // rollback zero-stamps the suffix written after the restored checkpoint
    // (a row written with no checkpoint open predates every later mark, like
    // a row written before a mark).  Stamp 0 means "never computed"
    // (the epoch counter starts at 1).  fill_ready_row is the only cache
    // writer and always writes a whole row at one epoch, so the stamp and
    // the log are per row (task), not per entry.
    // Validation is O(1), not O(in-degree): preds_modified_[v] caches
    // max over v's predecessors of task_modified_ (the only quantity the
    // per-predecessor walk ever compared against the stamp), maintained by
    // touch() raising each successor's watermark and rollback restoring the
    // logged prior values.  Commits are ~25x rarer than validations in the
    // speculative schedulers, so paying O(out-degree) per commit to make
    // every lookup one comparison is a large net win.
    std::uint64_t epoch_ = 1;
    std::vector<std::uint64_t> task_modified_;        // per task
    std::vector<std::uint64_t> preds_modified_;       // per task (see above)
    mutable std::vector<double> ready_cache_;         // task-major, procs_ wide
    mutable std::vector<std::uint64_t> ready_stamp_;  // per task: its row's epoch
    mutable std::vector<std::size_t> ready_log_;      // rows (tasks) in write order
    // Argmax sibling of ready_cache_: the first predecessor whose arrival
    // achieves the cached ready time (kInvalidTask when none exceeds 0) —
    // exactly the candidate binding_remote_pred would recompute.  Guarded by
    // the same stamp, so it needs no undo bookkeeping of its own.
    mutable std::vector<TaskId> ready_binding_;
    // (succ index, prior watermark) pairs in touch order; UndoEntry marks
    // delimit each commit's span.
    std::vector<std::pair<std::size_t, std::uint64_t>> succ_log_;

    // Uniform-links fast path: with a UniformLinkModel the remote transfer
    // cost of an edge is the same for every distinct processor pair, so it
    // is precomputed once per predecessor edge (CSR pred order, row v from
    // csr_->pred_begin(v)) and the hot data_ready loops skip the virtual
    // comm_time call, its division and the edge-index indirection.  The
    // cached value is exactly comm_time(data, src, dst) for src != dst, so
    // the fast path is bit-identical to the generic one.
    bool uniform_links_ = false;
    std::vector<double> pred_remote_;  // per pred edge, CSR order

    // The placements themselves, with no per-task heap block: each task's
    // primary in flat per-task arrays (the data_ready loops read a
    // predecessor's finish and processor straight from them), and every
    // duplicate in one commit-ordered list chained per task.  take() packs
    // both into the Schedule once.  first_dup_[v] == kNoDup (the common
    // case: duplication heuristics are the only source of extras) keeps a
    // predecessor on the primary-only fast path.  A task is placed exactly
    // when primary_proc_[v] != kInvalidProc.
    std::vector<double> primary_start_;        // valid while v is placed
    std::vector<double> primary_finish_;       // valid while v is placed
    std::vector<ProcId> primary_proc_;         // kInvalidProc while v is unplaced
    std::vector<Duplicate> dups_;              // commit order
    std::vector<std::uint32_t> first_dup_;     // per task, kNoDup when none
    std::vector<std::uint32_t> last_dup_;      // per task, kNoDup when none

    // One locally accumulated trace-counter delta, flushed by the builder's
    // destructor.  A copied tally starts at zero (the counts stay with the
    // builder that did the probing); a moved tally transfers its count and
    // zeroes the source, so every probe is flushed exactly once.
    struct PendingTally {
        std::size_t n = 0;
        PendingTally() = default;
        PendingTally(const PendingTally&) noexcept {}
        PendingTally& operator=(const PendingTally&) noexcept { return *this; }
        PendingTally(PendingTally&& other) noexcept : n(other.n) { other.n = 0; }
        PendingTally& operator=(PendingTally&& other) noexcept {
            std::swap(n, other.n);  // the source flushes our old count
            return *this;
        }
        ~PendingTally() = default;
        void operator+=(std::size_t delta) noexcept { n += delta; }
    };

    mutable PendingTally eft_evals_pending_;
    mutable PendingTally cache_hits_pending_;
    mutable PendingTally cache_misses_pending_;
};

}  // namespace tsched
