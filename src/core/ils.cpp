#include "core/ils.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"
#include "sched/builder.hpp"
#include "sched/ranks.hpp"
#include "trace/decision.hpp"
#include "trace/trace.hpp"
#include "util/stopwatch.hpp"

namespace tsched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;

/// DSH-style improvement pass reused by ILS-D (kept local: the sched/
/// duplication baselines own their variant; ILS-D deliberately uses the
/// cheaper single-parent version).
///
/// Speculates directly on `trial` (the caller checkpoints and rolls back).
/// `ready` must be data_ready(v, p) on entry; the return value is
/// data_ready(v, p) on exit, so the caller never recomputes it.
double duplicate_parents(ScheduleBuilder& trial, TaskId v, ProcId p, std::size_t max_dups,
                         double ready) {
    const Problem& problem = trial.problem();
    for (std::size_t round = 0; round < max_dups; ++round) {
        if (ready <= 0.0) return ready;
        // `ready > 0` makes the binding arrival positive, so the builder's
        // extra worst-arrival-is-zero rejection can never fire here and the
        // shared query matches the inline loop this replaces exactly.
        const TaskId binding = trial.binding_remote_pred(v, p, kEps);
        if (binding == kInvalidTask) return ready;
        TSCHED_COUNT("duplication_attempts");
        const double u_ready = trial.data_ready(binding, p);
        const double u_cost = problem.exec_time(binding, p);
        const auto slot = trial.find_slot_before(p, u_ready, u_cost, ready - kEps, true);
        if (!slot) return ready;
        trial.place_duplicate_at(binding, p, *slot);
        TSCHED_COUNT("duplication_accepted");
        // A peek, not a cached read: under the caller's speculation a filled
        // row would be zero-stamped by the rollback before anyone reread it.
        const double next = trial.data_ready_peek(v, p);
        if (next >= ready - kEps) return next;
        ready = next;
    }
    return ready;
}

/// Predecessor-affinity key: finish time of the latest-finishing predecessor
/// placement hosted on p (-inf when none) — larger is better.
double affinity(const ScheduleBuilder& builder, TaskId v, ProcId p) {
    const CsrAdjacency& csr = builder.problem().dag().csr();
    double best = -kInf;
    for (const TaskId u : csr.pred_tasks(v)) {
        for (const Placement& pl : builder.placements(u)) {
            if (pl.proc == p) best = std::max(best, pl.finish);
        }
    }
    return best;
}
}  // namespace

std::vector<double> IlsScheduler::ils_rank(const Problem& problem, bool variance_rank) {
    TSCHED_OBS_PHASE("sched/phase/rank_ms");
    // The recurrence folds only over each task's own successor list (order
    // fixed by the CSR), so any topological processing order gives
    // bit-identical values — see sched/ranks.cpp for the same argument.
    const CsrAdjacency& csr = problem.dag().csr();
    const std::size_t n = csr.num_tasks();
    std::vector<double> rank(n, 0.0);
    // FIFO Kahn forward order (allocation kept local: ILS ranks once per
    // pass, not in an inner loop).
    std::vector<std::size_t> indeg(n);
    std::vector<TaskId> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        indeg[i] = csr.in_degree(static_cast<TaskId>(i));
        if (indeg[i] == 0) order.push_back(static_cast<TaskId>(i));
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
        for (const TaskId s : csr.succ_tasks(order[head])) {
            if (--indeg[static_cast<std::size_t>(s)] == 0) order.push_back(s);
        }
    }
    if (order.size() != n) throw std::invalid_argument("topological_order: graph has a cycle");
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const TaskId v = *it;
        const auto succs = csr.succ_tasks(v);
        const auto data = csr.succ_data(v);
        double best = 0.0;
        for (std::size_t i = 0; i < succs.size(); ++i) {
            best = std::max(best, problem.mean_comm_data(data[i]) +
                                      rank[static_cast<std::size_t>(succs[i])]);
        }
        const double w = problem.costs().mean(v) +
                         (variance_rank ? problem.costs().stddev(v) : 0.0);
        rank[static_cast<std::size_t>(v)] = w + best;
    }
    return rank;
}

std::vector<double> IlsScheduler::optimistic_cost_table(const Problem& problem) {
    return tsched::optimistic_cost_table(problem);
}

std::string IlsScheduler::name() const {
    std::string n = config_.duplication ? "ils-d" : "ils";
    if (!config_.variance_rank) n += "-novar";
    if (!config_.lookahead) n += "-nola";
    if (!config_.insertion) n += "-noins";
    if (config_.lookahead && config_.lookahead_k > 0) {
        n += "-k" + std::to_string(config_.lookahead_k);
    }
    return n;
}

Schedule IlsScheduler::schedule(const Problem& problem) const { return run(problem, nullptr); }

Schedule IlsScheduler::schedule_traced(const Problem& problem, trace::TraceSink* sink) const {
    return run(problem, sink);
}

Schedule IlsScheduler::run(const Problem& problem, trace::TraceSink* sink) const {
    TSCHED_OBS_PHASE("sched/ils_ms");
    // Greedy-EFT pass (mean upward rank, plain EFT selection): the baseline
    // mode ILS can always fall back on.
    if (sink != nullptr) sink->begin_pass("greedy");
    Schedule greedy = run_pass(problem, /*use_oct=*/false, sink);
    if (!config_.lookahead) {
        if (sink != nullptr) sink->choose_pass("greedy");
        return greedy;
    }
    // Downstream-aware pass; keep whichever schedule is shorter.  The
    // dual-mode structure makes ILS never worse than its own HEFT-equivalent
    // mode on any instance while capturing the OCT mode's wins on
    // communication-dominated graphs.
    if (sink != nullptr) sink->begin_pass("oct");
    Schedule aware = run_pass(problem, /*use_oct=*/true, sink);
    if (aware.makespan() <= greedy.makespan()) {
        TSCHED_COUNT("dual_mode_winner_oct");
        if (sink != nullptr) sink->choose_pass("oct");
        return aware;
    }
    TSCHED_COUNT("dual_mode_winner_greedy");
    if (sink != nullptr) sink->choose_pass("greedy");
    return greedy;
}

Schedule IlsScheduler::run_pass(const Problem& problem, bool use_oct,
                                trace::TraceSink* sink) const {
    const std::size_t procs = problem.num_procs();
    // The greedy pass uses HEFT's mean rank so that it reproduces classic
    // behaviour exactly; the OCT pass uses the variance-aware rank.
    const auto rank = ils_rank(problem, use_oct && config_.variance_rank);
    const auto oct = use_oct ? optimistic_cost_table(problem) : std::vector<double>{};
    std::vector<TaskId> order;
    {
        TSCHED_OBS_PHASE("sched/phase/priority_ms");
        order = order_by_decreasing(rank);
    }

    ScheduleBuilder builder(problem);
    // Scratch reused across the task loop (previously reallocated per task).
    std::vector<double> eft_of(procs, kInf);
    std::vector<double> start_of(procs, 0.0);  // earliest start behind eft_of
    std::vector<std::size_t> cand(procs);
    // ILS-D: every processor's trial duplicates for the current task, in one
    // flat buffer; trial pi's are [dup_off[pi], dup_off[pi + 1]).
    std::vector<Placement> trial_dups;
    std::vector<std::size_t> dup_off(procs + 1, 0);
    // EFT evaluations are tallied locally and flushed once after the loop —
    // one relaxed atomic add per (task, proc) eval was measurable at big n.
    std::size_t eft_evals = 0;
    // Selection (per-proc eval + candidate choice) and placement (winner
    // re-speculation + commit) accumulate across the run into one histogram
    // sample each — the boundary-timestamp pattern HEFT uses, two clock
    // reads per task.
    double selection_ms = 0.0;
    double placement_ms = 0.0;
    const Stopwatch loop_watch;
    double boundary_ms = 0.0;
    for (const TaskId v : order) {
        // Per-processor first-level evaluation.  For ILS-D the duplication
        // pass speculates on the one builder and is rolled back after the
        // EFT is measured, so every candidate is judged with its duplicates
        // in place without cloning the schedule state per processor; the
        // duplicates are copied out first so the winner's can be re-committed.
        trial_dups.clear();
        for (std::size_t pi = 0; pi < procs; ++pi) {
            const auto p = static_cast<ProcId>(pi);
            const double w = problem.exec_time(v, p);
            double ready = builder.data_ready(v, p);
            ScheduleBuilder::Checkpoint mark = 0;
            if (config_.duplication) {
                mark = builder.checkpoint();
                ready = duplicate_parents(builder, v, p, config_.max_dups_per_task, ready);
            }
            ++eft_evals;
            start_of[pi] = builder.earliest_start(p, ready, w, config_.insertion);
            eft_of[pi] = start_of[pi] + w;
            if (config_.duplication) {
                builder.duplicates_since(mark, trial_dups);
                dup_off[pi + 1] = trial_dups.size();
                builder.rollback(mark);
            }
        }
        // Candidate set: the top-k processors by plain EFT (k = all by
        // default); among them the downstream-aware score decides.  The
        // greedy pass (k = 1) is plain argmin EFT, lowest index on ties —
        // the head of the sorted order, found without sorting.
        std::size_t k = 1;
        if (use_oct) {
            std::iota(cand.begin(), cand.end(), 0);
            std::sort(cand.begin(), cand.end(), [&](std::size_t a, std::size_t b) {
                if (eft_of[a] != eft_of[b]) return eft_of[a] < eft_of[b];
                return a < b;
            });
            k = config_.lookahead_k == 0 ? cand.size()
                                         : std::min(config_.lookahead_k, cand.size());
        } else {
            cand[0] = static_cast<std::size_t>(
                std::min_element(eft_of.begin(), eft_of.end()) - eft_of.begin());
        }

        // Affinity is a tiebreak over the un-speculated state, read only
        // when a candidate ties the incumbent within kEps on both score and
        // EFT, so it is computed lazily for exactly those two processors.
        trace::DecisionRecord rec;
        std::size_t best_pi = cand[0];
        double best_score = kInf;
        double best_eft = kInf;
        std::optional<double> best_affinity;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t pi = cand[i];
            const double bias = use_oct ? oct[static_cast<std::size_t>(v) * procs + pi] : 0.0;
            const double score = eft_of[pi] + bias;
            bool better = i == 0 || score < best_score - kEps;
            std::optional<double> aff;
            if (!better && score <= best_score + kEps) {
                better = eft_of[pi] < best_eft - kEps;
                if (!better && eft_of[pi] <= best_eft + kEps) {
                    if (!best_affinity) {
                        best_affinity = affinity(builder, v, static_cast<ProcId>(best_pi));
                    }
                    aff = affinity(builder, v, static_cast<ProcId>(pi));
                    better = *aff > *best_affinity + kEps ||
                             (*aff >= *best_affinity - kEps && pi < best_pi);
                }
            }
            if (better) {
                best_pi = pi;
                best_score = score;
                best_eft = eft_of[pi];
                best_affinity = aff;
            }
        }

        if (sink != nullptr) {
            // Every processor had its EFT measured; only the top-k carry an
            // OCT bias in the selection, so only those show one here.
            std::vector<bool> scored(procs, false);
            for (std::size_t i = 0; i < k; ++i) scored[cand[i]] = true;
            for (std::size_t pi = 0; pi < procs; ++pi) {
                const auto p = static_cast<ProcId>(pi);
                const double bias =
                    (use_oct && scored[pi]) ? oct[static_cast<std::size_t>(v) * procs + pi]
                                            : 0.0;
                rec.candidates.push_back({p, eft_of[pi] - problem.exec_time(v, p), eft_of[pi],
                                          bias, eft_of[pi] + bias});
            }
        }

        // Commit: re-commit the winner's trial duplicates in their commit
        // order (rebuilding the speculated state exactly), then place at the
        // start already computed during evaluation — neither the duplication
        // pass, data_ready nor the insertion scan is re-run.
        const double select_end_ms = loop_watch.elapsed_ms();
        selection_ms += select_end_ms - boundary_ms;
        if (config_.duplication) {
            for (std::size_t d = dup_off[best_pi]; d < dup_off[best_pi + 1]; ++d) {
                const Placement& dup = trial_dups[d];
                builder.place_duplicate_at(dup.task, dup.proc, dup.start);
            }
        }
        const Placement pl = builder.place_at(v, static_cast<ProcId>(best_pi), start_of[best_pi]);
        boundary_ms = loop_watch.elapsed_ms();
        placement_ms += boundary_ms - select_end_ms;
        if (sink != nullptr) {
            rec.task = v;
            rec.rank = rank[static_cast<std::size_t>(v)];
            rec.chosen = static_cast<ProcId>(best_pi);
            rec.start = pl.start;
            rec.finish = pl.finish;
            rec.reason = use_oct ? "min EFT+OCT over top-k EFT candidates, ties by EFT "
                                   "then predecessor affinity"
                                 : "min EFT, ties by predecessor affinity";
            sink->record(std::move(rec));
        }
    }
    TSCHED_COUNT_ADD("eft_evaluations", eft_evals);
    TSCHED_OBS_RECORD("sched/phase/selection_ms", selection_ms);
    TSCHED_OBS_RECORD("sched/phase/placement_ms", placement_ms);
    return std::move(builder).take();
}

}  // namespace tsched
