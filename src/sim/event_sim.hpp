// Discrete-event execution of a static schedule.
//
// The simulator takes only the *decisions* of a schedule — which placements
// exist and in what order each processor runs them — and re-derives all
// start/finish times from scratch by propagating completion events through
// the placement-constraint graph.  Each input is read from the
// earliest-finishing completed copy of its producer.  For a valid schedule
// under the static cost model:
//   * without duplicates, the re-derived makespan equals
//     Schedule::makespan() exactly;
//   * with duplicates, it is at most Schedule::makespan(): the
//     earliest-finishing copy (possibly one placed after the consumer was
//     planned) can let the replay start a placement earlier than planned.
// This gives the test suite an independent cross-check of every
// scheduler's bookkeeping (tests/test_sim.cpp, SimContract.*).
//
// The same engine runs the robustness experiments: execution and
// communication times are perturbed multiplicatively and the *realised*
// makespan of the unchanged static decisions is measured.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/problem.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"

namespace tsched::sim {

struct SimResult {
    double makespan = 0.0;
    std::vector<double> proc_busy;   ///< busy time per processor
    std::size_t remote_messages = 0; ///< edges served across processors
    double comm_volume = 0.0;        ///< total data moved across processors
    /// Re-derived finish time per placement, in the same order as
    /// enumerate_placements(schedule) (per task, insertion order).
    std::vector<double> finish_times;
};

/// Execute the schedule's decisions under the problem's cost model.
/// Throws std::invalid_argument when the schedule is structurally
/// inconsistent (missing placements / circular constraints).
[[nodiscard]] SimResult simulate(const Schedule& schedule, const Problem& problem);

/// Like simulate, but every execution time is multiplied by a factor drawn
/// from U(1 - noise, 1 + noise) and every communication time by an
/// independent such factor (noise in [0, 1)).  Models runtime deviation from
/// the static estimates while keeping the static decisions fixed.
///
/// Rng stream-consumption contract: the call consumes exactly
/// `num_placements + total_predecessor_edges` uniform draws from `rng`, all
/// of them up front and in a fixed order — one duration factor per placement
/// in enumerate_placements order (task-major, insertion order within a
/// task), then one communication factor per (task, predecessor-edge) pair in
/// task order.  The draw sequence is therefore a function of the schedule's
/// shape alone, never of event interleaving, which makes the result — and
/// the rng state afterwards — bit-identical for the same seed across
/// platforms and repeat runs.  Callers sharing one Rng across replays rely
/// on this to get a reproducible replay sequence.
[[nodiscard]] SimResult simulate_noisy(const Schedule& schedule, const Problem& problem,
                                       double noise, Rng& rng);

}  // namespace tsched::sim
