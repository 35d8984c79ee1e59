#include "analysis/schedule_lints.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace tsched::analysis {

namespace {

std::string fmt(double x) {
    std::ostringstream os;
    os << x;
    return os.str();
}

/// "P<p>", appended into one string: GCC 12 -O3 reports a false -Wrestrict
/// overlap inside `"P" + std::to_string(p)`.
template <typename Id>
std::string proc_name(Id p) {
    std::string out = "P";
    out += std::to_string(p);
    return out;
}

/// TS0402/TS0403/TS0404: completeness and per-placement timing.  Returns
/// false when any error fired (later passes would only cascade noise).
bool lint_timing(const Schedule& schedule, const Problem& problem, Diagnostics& diags,
                 double time_eps) {
    bool ok = true;
    for (std::size_t vi = 0; vi < problem.num_tasks(); ++vi) {
        const auto v = static_cast<TaskId>(vi);
        const auto places = schedule.placements(v);
        if (places.empty()) {
            diags.add(Code::kSchedMissingTask, SourceLoc{v, kInvalidProc, -1},
                      "task " + std::to_string(vi) + " has no placement");
            ok = false;
            continue;
        }
        for (std::size_t i = 0; i < places.size(); ++i) {
            const Placement& pl = places[i];
            const SourceLoc loc{v, pl.proc, static_cast<int>(i)};
            const double expect = problem.exec_time(v, pl.proc);
            if (std::abs(pl.duration() - expect) > time_eps) {
                diags.add(Code::kSchedDurationMismatch, loc,
                          "task " + std::to_string(vi) + " on P" + std::to_string(pl.proc) +
                              ": duration " + fmt(pl.duration()) + " != cost " + fmt(expect));
                ok = false;
            }
            if (pl.start < -time_eps) {
                diags.add(Code::kSchedNegativeStart, loc,
                          "task " + std::to_string(vi) + " starts before time 0");
                ok = false;
            }
        }
    }
    return ok;
}

/// TS0405: processor exclusivity.
void lint_exclusivity(const Schedule& schedule, const Problem& problem, Diagnostics& diags,
                      double time_eps) {
    for (std::size_t p = 0; p < problem.num_procs(); ++p) {
        const auto timeline = schedule.processor_timeline(static_cast<ProcId>(p));
        for (std::size_t i = 1; i < timeline.size(); ++i) {
            if (timeline[i].start < timeline[i - 1].finish - time_eps) {
                diags.add(
                    Code::kSchedOverlap,
                    SourceLoc{timeline[i].task, static_cast<ProcId>(p), -1},
                    proc_name(p) + ": task " + std::to_string(timeline[i].task) +
                        " [" + fmt(timeline[i].start) + ", " + fmt(timeline[i].finish) +
                        ") overlaps task " + std::to_string(timeline[i - 1].task) + " [" +
                        fmt(timeline[i - 1].start) + ", " + fmt(timeline[i - 1].finish) + ")");
            }
        }
    }
}

/// TS0406: precedence with duplicate-aware communication.
void lint_precedence(const Schedule& schedule, const Problem& problem, Diagnostics& diags,
                     double time_eps) {
    const Dag& dag = problem.dag();
    const LinkModel& links = problem.machine().links();
    for (std::size_t vi = 0; vi < problem.num_tasks(); ++vi) {
        const auto v = static_cast<TaskId>(vi);
        const auto places = schedule.placements(v);
        for (std::size_t i = 0; i < places.size(); ++i) {
            const Placement& pl = places[i];
            for (const AdjEdge& e : dag.predecessors(v)) {
                const double avail = schedule.data_available(e.task, pl.proc, e.data, links);
                if (avail > pl.start + time_eps) {
                    diags.add(Code::kSchedPrecedence,
                              SourceLoc{v, pl.proc, static_cast<int>(i)},
                              "task " + std::to_string(vi) + " on P" + std::to_string(pl.proc) +
                                  " starts at " + fmt(pl.start) + " but data from task " +
                                  std::to_string(e.task) + " arrives at " + fmt(avail));
                }
            }
        }
    }
}

/// TS0407: a complete schedule whose placements all honour the cost matrix
/// can still claim a makespan below the communication-free critical path
/// over minimum execution costs — only by violating precedence or timing
/// somewhere.  This catches corrupted or hand-edited schedule files even
/// when the local checks are individually near their epsilon.
void lint_lower_bound(const Schedule& schedule, const Problem& problem, Diagnostics& diags,
                      double time_eps) {
    if (!problem.dag().is_acyclic()) return;  // bound undefined; TS0101 reports the cycle
    const double bound = problem.cp_lower_bound();
    const double makespan = schedule.makespan();
    if (makespan < bound - time_eps) {
        diags.add(Code::kSchedBelowLowerBound, SourceLoc{},
                  "makespan " + fmt(makespan) + " is below the critical-path lower bound " +
                      fmt(bound) + " — the schedule cannot be feasible");
    }
}

/// TS0501/TS0504: duplicates that serve no consumer, and duplicates placed
/// on a processor the task already occupies (never useful: the earlier copy
/// always provides the data at least as soon).
void lint_duplicates(const Schedule& schedule, const Problem& problem, Diagnostics& diags) {
    const Dag& dag = problem.dag();
    const LinkModel& links = problem.machine().links();
    constexpr double kInf = std::numeric_limits<double>::infinity();

    for (std::size_t vi = 0; vi < problem.num_tasks(); ++vi) {
        const auto v = static_cast<TaskId>(vi);
        const auto places = schedule.placements(v);
        if (places.size() < 2) continue;

        // consumed[i]: some successor placement reads v's output from copy i.
        std::vector<bool> consumed(places.size(), false);
        consumed[0] = true;  // the primary placement is the canonical copy
        for (const AdjEdge& out : dag.successors(v)) {
            for (const Placement& succ : schedule.placements(out.task)) {
                double best = kInf;
                std::size_t best_i = 0;
                for (std::size_t i = 0; i < places.size(); ++i) {
                    const double avail =
                        places[i].finish + links.comm_time(out.data, places[i].proc, succ.proc);
                    if (avail < best) {
                        best = avail;
                        best_i = i;
                    }
                }
                consumed[best_i] = true;
            }
        }
        for (std::size_t i = 1; i < places.size(); ++i) {
            const SourceLoc loc{v, places[i].proc, static_cast<int>(i)};
            if (!consumed[i]) {
                diags.add(Code::kSchedRedundantDuplicate, loc,
                          "duplicate of task " + std::to_string(vi) + " on P" +
                              std::to_string(places[i].proc) +
                              " is never the earliest source for any successor");
            }
            for (std::size_t j = 0; j < i; ++j) {
                if (places[j].proc == places[i].proc) {
                    diags.add(Code::kSchedSameProcDuplicate, loc,
                              "task " + std::to_string(vi) + " is placed twice on P" +
                                  std::to_string(places[i].proc));
                    break;
                }
            }
        }
    }
}

/// TS0502/TS0503: idle-gap fragmentation report and load-imbalance warning.
void lint_utilization(const Schedule& schedule, const Problem& problem, Diagnostics& diags,
                      const ScheduleLintOptions& options) {
    const double makespan = schedule.makespan();
    if (makespan <= 0.0) return;
    const std::size_t procs = problem.num_procs();

    std::vector<double> busy(procs, 0.0);
    std::size_t gaps = 0;
    double gap_time = 0.0;
    for (std::size_t p = 0; p < procs; ++p) {
        double cursor = 0.0;
        for (const Placement& pl : schedule.processor_timeline(static_cast<ProcId>(p))) {
            if (pl.start > cursor) {
                ++gaps;
                gap_time += pl.start - cursor;
            }
            cursor = std::max(cursor, pl.finish);
            busy[p] += pl.duration();
        }
    }

    const double capacity = makespan * static_cast<double>(procs);
    const double idle = capacity - std::min(capacity, [&] {
        double total = 0.0;
        for (const double b : busy) total += b;
        return total;
    }());
    if (idle > options.idle_info_fraction * capacity) {
        diags.add(Code::kSchedIdleFragmentation, SourceLoc{},
                  "processors are idle " +
                      std::to_string(static_cast<int>(100.0 * idle / capacity)) +
                      "% of the makespan (" + std::to_string(gaps) +
                      " interior gap(s) totalling " + fmt(gap_time) + ")");
    }

    std::size_t loaded = 0;
    double busy_sum = 0.0;
    double busy_max = 0.0;
    ProcId busiest = 0;
    for (std::size_t p = 0; p < procs; ++p) {
        if (busy[p] > 0.0) ++loaded;
        busy_sum += busy[p];
        if (busy[p] > busy_max) {
            busy_max = busy[p];
            busiest = static_cast<ProcId>(p);
        }
    }
    if (loaded >= 2) {
        const double mean = busy_sum / static_cast<double>(procs);
        if (mean > 0.0 && busy_max > options.imbalance_warn_ratio * mean) {
            diags.add(Code::kSchedLoadImbalance, SourceLoc{kInvalidTask, busiest, -1},
                      proc_name(busiest) + " carries " + fmt(busy_max) +
                          " busy time vs. a mean of " + fmt(mean) + " per processor");
        }
    }
}

}  // namespace

void lint_schedule(const Schedule& schedule, const Problem& problem, Diagnostics& diags,
                   const ScheduleLintOptions& options) {
    if (schedule.num_tasks() != problem.num_tasks() ||
        schedule.num_procs() != problem.num_procs()) {
        diags.add(Code::kSchedDimMismatch, SourceLoc{},
                  "schedule dimensions (" + std::to_string(schedule.num_tasks()) + " tasks, " +
                      std::to_string(schedule.num_procs()) +
                      " procs) do not match problem dimensions (" +
                      std::to_string(problem.num_tasks()) + ", " +
                      std::to_string(problem.num_procs()) + ")");
        return;
    }

    // Timing errors cascade into exclusivity/precedence noise; stop early,
    // exactly like the historical validate().
    if (!lint_timing(schedule, problem, diags, options.time_eps)) return;

    lint_exclusivity(schedule, problem, diags, options.time_eps);
    lint_precedence(schedule, problem, diags, options.time_eps);
    lint_lower_bound(schedule, problem, diags, options.time_eps);

    if (options.quality) {
        lint_duplicates(schedule, problem, diags);
        lint_utilization(schedule, problem, diags, options);
    }
}

void run_debug_checks(const Schedule& schedule, const Problem& problem, double time_eps) {
    Diagnostics diags;
    ScheduleLintOptions options;
    options.time_eps = time_eps;
    options.quality = false;
    lint_schedule(schedule, problem, diags, options);
    if (diags.has_errors()) {
        throw std::invalid_argument("tsched debug checks failed:\n" + render_text(diags, 16));
    }
}

}  // namespace tsched::analysis
