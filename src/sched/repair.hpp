// Schedule repair after a permanent processor crash.
//
// A static schedule is a plan; when a processor dies mid-execution the plan
// is partially realised (the *frozen* prefix — everything that completed or
// is in flight on a surviving processor) and partially invalidated (the
// *lost* placements on the dead processor and the still-unexecuted *pending*
// placements elsewhere).  A RepairPolicy takes that split and produces a new
// complete Schedule: the frozen prefix replayed at its realised times, plus
// the unexecuted work re-recorded at times at or after the crash — so the
// result passes the schedule lint passes and can be handed back to the fault
// simulator (sim::simulate_faulty) for the remainder of the run.
//
// Fault model assumption: processors are fail-stop, but the outputs of tasks
// that *completed* before the crash remain available (data already shipped
// or checkpointed to shared storage) — only unfinished work is lost.
//
// Four policies ship:
//   none              drop lost work; tasks left with no instance at all are
//                     re-run serially on the lowest-indexed live processor
//                     (the "measure the damage" baseline)
//   remap-pending     every lost placement is re-created on the live
//                     processor that finishes it earliest, evaluated by
//                     speculative trial commits (checkpoint/rollback)
//   reschedule-suffix freeze the executed prefix, re-run HEFT (min-EFT over
//                     live processors, upward-rank order) on the whole
//                     unexecuted subgraph
//   use-duplicates    lost placements whose task has a surviving instance
//                     (frozen or pending) are simply dropped; only tasks
//                     stranded with no instance get a new best-EFT placement
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/problem.hpp"
#include "sched/schedule.hpp"

namespace tsched {

/// A placement that already ran (or is unstoppably running) at crash time,
/// at its *realised* start/finish — the immutable part of the repair input.
struct FrozenPlacement {
    TaskId task = kInvalidTask;
    ProcId proc = kInvalidProc;
    double start = 0.0;
    double finish = 0.0;
    /// Started before the crash but finishes after it (on a live processor);
    /// the repair must still treat it as committed.
    bool in_flight = false;
};

/// Everything a repair policy may consult.  Built by sim::simulate_faulty.
struct RepairContext {
    const Problem* problem = nullptr;
    ProcId crashed_proc = kInvalidProc;
    double crash_time = 0.0;
    /// Per processor, nonzero when dead, *including* the one that just crashed.
    std::vector<std::uint8_t> dead;
    /// Executed prefix at realised times, task-major.
    std::vector<FrozenPlacement> frozen;
    /// Placements killed by this crash (planned values): everything
    /// unexecuted on the crashed processor plus its aborted in-flight work.
    std::vector<Placement> lost;
    /// Unexecuted placements on live processors (planned values).
    std::vector<Placement> pending;

    [[nodiscard]] std::size_t num_procs() const { return dead.size(); }
    [[nodiscard]] std::size_t live_procs() const;
    /// Lowest-indexed live processor; throws std::runtime_error when every
    /// processor is dead (nothing can repair that).
    [[nodiscard]] ProcId first_live_proc() const;
};

/// Strategy interface: turn a crash context into a complete repaired
/// schedule.  Implementations must (a) reproduce every frozen placement at
/// its realised times and (b) record all re-placed work at start >= the
/// crash time on live processors — simulate_faulty verifies both and lints
/// the result.
class RepairPolicy {
public:
    virtual ~RepairPolicy() = default;
    [[nodiscard]] virtual std::string name() const = 0;
    [[nodiscard]] virtual Schedule repair(const RepairContext& ctx) const = 0;
};

using RepairPolicyPtr = std::unique_ptr<RepairPolicy>;

/// Factory over the policy names listed above; throws std::invalid_argument
/// for unknown names.
[[nodiscard]] RepairPolicyPtr make_repair_policy(const std::string& name);

/// Every registered policy name, in documentation order.
[[nodiscard]] std::vector<std::string> repair_policy_names();

}  // namespace tsched
