// Unit tests for ScheduleBuilder (sched/builder.hpp) — the insertion/EFT
// machinery every scheduler relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <vector>

#include "graph/algorithms.hpp"
#include "net/codec.hpp"
#include "platform/problem.hpp"
#include "sched/builder.hpp"
#include "sched/validate.hpp"
#include "util/rng.hpp"
#include "workload/instance.hpp"

// Scoped allocation counter: this binary replaces the global operator new,
// which counts heap blocks while `counting_allocations` is set.
namespace {
std::atomic<bool> counting_allocations{false};
std::atomic<std::size_t> allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
    if (counting_allocations.load(std::memory_order_relaxed)) {
        allocation_count.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tsched {
namespace {

/// Heap blocks allocated while `fn` runs.
template <class Fn>
std::size_t allocations_during(Fn&& fn) {
    allocation_count = 0;
    counting_allocations = true;
    fn();
    counting_allocations = false;
    return allocation_count;
}

/// Fork: 0 -> 1, 0 -> 2 (data 4 each); constant exec cost 2 on 2 procs;
/// uniform links latency 0 bandwidth 1.
Problem fork_problem() {
    DagBuilder builder;
    for (int i = 0; i < 3; ++i) builder.add_task(2.0);
    builder.add_edge(0, 1, 4.0);
    builder.add_edge(0, 2, 4.0);
    Dag dag = std::move(builder).build();
    const auto links = std::make_shared<UniformLinkModel>(0.0, 1.0);
    Machine machine = Machine::homogeneous(2, links);
    CostMatrix costs = CostMatrix::uniform(dag, 2);
    return Problem(std::move(dag), std::move(machine), std::move(costs));
}

TEST(Builder, DataReadyForEntryTaskIsZero) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    EXPECT_DOUBLE_EQ(builder.data_ready(0, 0), 0.0);
}

TEST(Builder, DataReadyInfiniteWhileParentUnplaced) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    EXPECT_TRUE(std::isinf(builder.data_ready(1, 0)));
    EXPECT_DOUBLE_EQ(builder.data_ready_partial(1, 0), 0.0);  // partial skips it
}

TEST(Builder, DataReadyAfterParentPlaced) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);  // [0, 2) on P0
    EXPECT_DOUBLE_EQ(builder.data_ready(1, 0), 2.0);        // local
    EXPECT_DOUBLE_EQ(builder.data_ready(1, 1), 2.0 + 4.0);  // remote: + data/bw
}

TEST(Builder, EarliestStartNonInsertionAppends) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place_at(0, 0, 10.0);  // busy [10, 12)
    EXPECT_DOUBLE_EQ(builder.earliest_start(0, 0.0, 2.0, /*insertion=*/false), 12.0);
    // Insertion finds the leading hole [0, 10).
    EXPECT_DOUBLE_EQ(builder.earliest_start(0, 0.0, 2.0, /*insertion=*/true), 0.0);
}

TEST(Builder, InsertionSkipsTooSmallHoles) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place_at(0, 0, 1.0);   // [1, 3): leading hole is [0,1) — too small
    EXPECT_DOUBLE_EQ(builder.earliest_start(0, 0.0, 2.0, true), 3.0);
}

TEST(Builder, InsertionRespectsReadyTimeInsideHole) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place_at(0, 0, 8.0);  // hole [0, 8)
    EXPECT_DOUBLE_EQ(builder.earliest_start(0, 3.0, 2.0, true), 3.0);
    EXPECT_DOUBLE_EQ(builder.earliest_start(0, 7.0, 2.0, true), 10.0);  // 7+2 > 8
}

TEST(Builder, EftCombinesReadyAndSlot) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);  // [0, 2) on P0
    EXPECT_DOUBLE_EQ(builder.eft(1, 0, true), 4.0);   // start 2, +2
    EXPECT_DOUBLE_EQ(builder.eft(1, 1, true), 8.0);   // ready 6, +2
    EXPECT_TRUE(std::isinf(builder.eft(1, 0, true)) == false);
}

TEST(Builder, FindSlotBeforeDeadline) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place_at(0, 0, 5.0);  // busy [5, 7)
    const auto slot = builder.find_slot_before(0, 0.0, 2.0, 4.0, true);
    ASSERT_TRUE(slot.has_value());
    EXPECT_DOUBLE_EQ(*slot, 0.0);
    EXPECT_FALSE(builder.find_slot_before(0, 3.5, 2.0, 5.0, true).has_value());
}

TEST(Builder, PlaceCommitsAndTracksState) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    const Placement pl = builder.place(0, 1, true);
    EXPECT_EQ(pl.proc, 1);
    EXPECT_DOUBLE_EQ(pl.start, 0.0);
    EXPECT_DOUBLE_EQ(pl.finish, 2.0);
    EXPECT_TRUE(builder.is_placed(0));
    EXPECT_DOUBLE_EQ(builder.finish_time(0), 2.0);
    EXPECT_DOUBLE_EQ(builder.proc_available(1), 2.0);
    EXPECT_DOUBLE_EQ(builder.current_makespan(), 2.0);
    EXPECT_EQ(builder.num_placements(), 1u);
}

TEST(Builder, PlaceRejectsDoublePlacementAndUnplacedPreds) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    EXPECT_THROW(builder.place(1, 0, true), std::logic_error);  // pred unplaced
    builder.place(0, 0, true);
    EXPECT_THROW(builder.place(0, 1, true), std::logic_error);  // already placed
}

TEST(Builder, DuplicateRequiresOriginal) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    EXPECT_THROW(builder.place_duplicate_at(0, 0, 0.0), std::logic_error);
    builder.place(0, 0, true);
    const Placement dup = builder.place_duplicate_at(0, 1, 0.0);
    EXPECT_EQ(dup.proc, 1);
    // Duplicate feeds consumers on its processor without comm.
    EXPECT_DOUBLE_EQ(builder.data_ready(1, 1), 2.0);
    EXPECT_EQ(builder.snapshot().num_duplicates(), 1u);
}

TEST(Builder, DataReadyRejectsProcessorOutOfRange) {
    // A processor index past P used to read the next task's cached row.
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);
    EXPECT_THROW((void)builder.data_ready(0, 2), std::out_of_range);
    EXPECT_THROW((void)builder.data_ready(1, -1), std::out_of_range);
    EXPECT_THROW((void)builder.data_ready(3, 0), std::out_of_range);
    EXPECT_THROW((void)builder.data_ready_partial(1, 2), std::out_of_range);
    EXPECT_DOUBLE_EQ(builder.data_ready(1, 1), 6.0);  // the valid row is intact
}

TEST(Builder, DataReadyPeekRejectsProcessorOutOfRange) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);
    (void)builder.data_ready(1, 0);  // a cached row, so a bad index would hit it
    EXPECT_THROW((void)builder.data_ready_peek(1, 2), std::out_of_range);
    EXPECT_THROW((void)builder.data_ready_peek(0, 2), std::out_of_range);
    EXPECT_THROW((void)builder.data_ready_peek(-1, 0), std::out_of_range);
}

TEST(Builder, BindingRemotePredRejectsTaskOrProcessorOutOfRange) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);
    EXPECT_EQ(builder.binding_remote_pred(1, 1, 1e-12), 0);
    EXPECT_THROW((void)builder.binding_remote_pred(1, 2, 1e-12), std::out_of_range);
    EXPECT_THROW((void)builder.binding_remote_pred(1, -1, 1e-12), std::out_of_range);
    EXPECT_THROW((void)builder.binding_remote_pred(3, 0, 1e-12), std::out_of_range);
    EXPECT_THROW((void)builder.binding_remote_pred(-1, 0, 1e-12), std::out_of_range);
}

TEST(Builder, CopySemanticsGiveIndependentTrials) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);
    ScheduleBuilder clone = builder;
    clone.place(1, 0, true);
    EXPECT_TRUE(clone.is_placed(1));
    EXPECT_FALSE(builder.is_placed(1));
    EXPECT_DOUBLE_EQ(builder.proc_available(0), 2.0);
    EXPECT_DOUBLE_EQ(clone.proc_available(0), 4.0);
}

TEST(Builder, RollbackRestoresAllState) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);  // [0, 2) on P0

    const ScheduleBuilder::Checkpoint mark = builder.checkpoint();
    builder.place(1, 0, true);             // [2, 4) on P0
    builder.place_duplicate_at(0, 1, 0.0); // copy of 0 on P1
    builder.place(2, 1, true);
    EXPECT_EQ(builder.num_placements(), 4u);
    EXPECT_TRUE(builder.is_placed(1));
    EXPECT_TRUE(builder.is_placed(2));

    builder.rollback(mark);
    EXPECT_EQ(builder.num_placements(), 1u);
    EXPECT_FALSE(builder.is_placed(1));
    EXPECT_FALSE(builder.is_placed(2));
    EXPECT_EQ(builder.snapshot().num_duplicates(), 0u);
    EXPECT_DOUBLE_EQ(builder.current_makespan(), 2.0);
    EXPECT_DOUBLE_EQ(builder.proc_available(0), 2.0);
    EXPECT_DOUBLE_EQ(builder.proc_available(1), 0.0);
    // The timeline edits are really gone: P1 is free again and data must
    // travel, P0's gap structure is back to a single busy interval.
    EXPECT_DOUBLE_EQ(builder.data_ready(1, 1), 6.0);
    EXPECT_DOUBLE_EQ(builder.eft(1, 0, true), 4.0);
}

TEST(Builder, RollbackToSameCheckpointTwiceAndNoop) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    const ScheduleBuilder::Checkpoint mark = builder.checkpoint();
    builder.rollback(mark);  // nothing committed: no-op
    builder.place(0, 0, true);
    builder.rollback(mark);
    EXPECT_FALSE(builder.is_placed(0));
    // The same token stays valid after a rollback to it.
    builder.place(0, 1, true);
    builder.rollback(mark);
    EXPECT_FALSE(builder.is_placed(0));
    EXPECT_EQ(builder.num_placements(), 0u);
}

TEST(Builder, CheckpointsNest) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    const auto outer = builder.checkpoint();
    builder.place(0, 0, true);
    const auto inner = builder.checkpoint();
    builder.place(1, 0, true);
    builder.rollback(inner);
    EXPECT_TRUE(builder.is_placed(0));
    EXPECT_FALSE(builder.is_placed(1));
    builder.rollback(outer);
    EXPECT_FALSE(builder.is_placed(0));
    EXPECT_DOUBLE_EQ(builder.current_makespan(), 0.0);
}

TEST(Builder, RollbackRejectsForwardToken) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    EXPECT_THROW(builder.rollback(1), std::logic_error);
}

TEST(Builder, SpeculateRollbackReplayMatchesDirectBuild) {
    // The pattern every rewritten scheduler relies on: speculate, measure,
    // roll back, replay the winner — the replayed state must behave exactly
    // like a never-speculated builder.
    const Problem problem = fork_problem();
    ScheduleBuilder direct(problem);
    direct.place(0, 0, true);
    direct.place(1, 0, true);

    ScheduleBuilder spec(problem);
    spec.place(0, 0, true);
    for (ProcId p = 0; p < 2; ++p) {
        const auto mark = spec.checkpoint();
        spec.place(1, p, true);
        spec.rollback(mark);
    }
    spec.place(1, 0, true);

    EXPECT_DOUBLE_EQ(direct.eft(2, 1, true), spec.eft(2, 1, true));
    EXPECT_DOUBLE_EQ(direct.current_makespan(), spec.current_makespan());
    direct.place(2, 1, true);
    spec.place(2, 1, true);
    const Schedule a = std::move(direct).take();
    const Schedule b = std::move(spec).take();
    ASSERT_EQ(a.num_placements(), b.num_placements());
    for (TaskId v = 0; v < 3; ++v) {
        EXPECT_EQ(a.primary(v), b.primary(v)) << "task " << v;
    }
}

TEST(Builder, FullManualScheduleValidates) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);
    builder.place(1, 0, true);
    builder.place(2, 1, true);
    const Schedule s = std::move(builder).take();
    const auto result = validate(s, problem);
    EXPECT_TRUE(result.ok) << result.message();
    EXPECT_DOUBLE_EQ(s.makespan(), 8.0);  // task 2 remote: ready 6, +2
}

TEST(Builder, DataReadyCacheTracksCommitAndRollback) {
    // The epoch-stamped data_ready cache must never serve a stale value:
    // both commits and rollbacks bump the predecessor's epoch, so the ready
    // time of a consumer changes the moment any input moves.
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    EXPECT_TRUE(std::isinf(builder.data_ready(2, 0)));  // pred 0 unplaced
    EXPECT_TRUE(std::isinf(builder.data_ready(2, 0)));  // served from cache
    builder.place(0, 0, false);
    const double local = builder.data_ready(2, 0);
    const double remote = builder.data_ready(2, 1);
    EXPECT_DOUBLE_EQ(local, 2.0);   // finish 2, no comm on-proc
    EXPECT_DOUBLE_EQ(remote, 6.0);  // + data 4 over bandwidth 1
    EXPECT_DOUBLE_EQ(builder.data_ready(2, 1), remote);  // cached, unchanged

    const auto mark = builder.checkpoint();
    builder.place_duplicate_at(0, 1, 0.0);
    EXPECT_DOUBLE_EQ(builder.data_ready(2, 1), 2.0);  // local duplicate wins
    builder.rollback(mark);
    EXPECT_DOUBLE_EQ(builder.data_ready(2, 1), remote);  // rollback re-aged cache
}

TEST(Builder, DataReadyPeekMatchesDataReadyUnderSpeculation) {
    // A seeded walk of the ILS-D pattern: place tasks in topological order,
    // speculate nested duplicates and primaries, roll back to random
    // checkpoints.  At every step the peek must agree bit for bit with
    // data_ready on every (task, processor) — including unplaced tasks
    // (+inf) and entries the peek itself never caches — on uniform links
    // (the precomputed-remote path) and on a ring (the generic path).
    for (const workload::Net net : {workload::Net::kUniform, workload::Net::kRing}) {
        workload::InstanceParams params;
        params.size = 60;
        params.num_procs = 4;
        params.net = net;
        params.latency = 0.25;
        params.ccr = 2.0;
        const Problem problem = workload::make_instance(params, 77);
        const std::size_t n = problem.num_tasks();
        const std::size_t procs = problem.num_procs();
        ScheduleBuilder builder(problem);
        Rng rng(2024);
        const auto check_all = [&](const char* when) {
            // Peek first: a data_ready call would fill the row and turn the
            // peek into a cache hit.
            for (std::size_t v = 0; v < n; ++v) {
                for (std::size_t q = 0; q < procs; ++q) {
                    const auto t = static_cast<TaskId>(v);
                    const auto p = static_cast<ProcId>(q);
                    const double peek = builder.data_ready_peek(t, p);
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(peek),
                              std::bit_cast<std::uint64_t>(builder.data_ready(t, p)))
                        << workload::net_name(net) << " " << when << " task " << v
                        << " proc " << q;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(peek),
                              std::bit_cast<std::uint64_t>(builder.data_ready_peek(t, p)));
                }
            }
        };
        // Random steps over the ready set (unplaced, every predecessor
        // placed): commit a task, speculate (checkpoint, duplicate one of a
        // ready task's inputs onto a random processor), or roll back to a
        // random open checkpoint.  is_placed is the ground truth, so
        // rolled-back primaries simply become ready again.
        const auto pick = [&](std::size_t count) {
            return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
        };
        std::vector<ScheduleBuilder::Checkpoint> marks;
        std::size_t rollbacks = 0;
        for (int step = 0; step < 400; ++step) {
            std::vector<TaskId> ready;
            for (std::size_t v = 0; v < n; ++v) {
                const auto t = static_cast<TaskId>(v);
                if (!builder.is_placed(t) && std::isfinite(builder.data_ready_peek(t, 0))) {
                    ready.push_back(t);
                }
            }
            if (ready.empty()) break;  // every task placed
            const TaskId v = ready[pick(ready.size())];
            const auto p = static_cast<ProcId>(pick(procs));
            const double action = rng.uniform();
            if (action < 0.3) {
                marks.push_back(builder.checkpoint());
                const auto preds = problem.dag().csr().pred_tasks(v);
                if (!preds.empty()) {
                    builder.place_duplicate_at(preds[pick(preds.size())], p,
                                               builder.proc_available(p) + 1.0);
                }
            } else if (action < 0.45 && !marks.empty()) {
                const std::size_t back = pick(marks.size());
                builder.rollback(marks[back]);
                marks.resize(back);
                ++rollbacks;
            } else {
                builder.place(v, p, true);
            }
            check_all("step");
        }
        EXPECT_GT(rollbacks, 0u);
        check_all("complete");
    }
}

// ---------------------------------------------------------------------------
// Packed output: take() must pack exactly what a ScheduleDraft fed the same
// commits packs (each task's primary, then its duplicates in commit order),
// whatever was speculated and rolled back on the way.
// ---------------------------------------------------------------------------

Problem layered_problem(std::size_t n) {
    workload::InstanceParams params;
    params.size = n;
    params.num_procs = 4;
    params.ccr = 2.0;
    return workload::make_instance(params, 3);
}

/// Commit one fixed sequence on `builder`, recording every commit on
/// `draft`: each task in topological order on processor v % P, and after
/// every third task a duplicate of its first predecessor on the next
/// processor.  With `speculate`, each task is first tried under nested
/// checkpoints (placed elsewhere, duplicated, its predecessors duplicated)
/// and everything is rolled back, so the task's own placement and its
/// duplicates are undone together.  Every duplicate is appended after its
/// processor's last interval once its inputs have arrived, so the result
/// stays valid (take() lints it under TSCHED_DEBUG_CHECKS).
void commit_sequence(ScheduleBuilder& builder, ScheduleDraft& draft, bool speculate) {
    const Problem& problem = builder.problem();
    const CsrAdjacency& csr = problem.dag().csr();
    const std::size_t procs = problem.num_procs();
    const auto duplicate = [&](TaskId u, ProcId q) {
        const double start = builder.earliest_start(q, builder.data_ready(u, q),
                                                    problem.exec_time(u, q), /*insertion=*/false);
        return builder.place_duplicate_at(u, q, start);
    };
    const auto record = [&](const Placement& pl) {
        draft.add(pl.task, pl.proc, pl.start, pl.finish);
    };
    for (const TaskId v : topological_order(problem.dag())) {
        const auto p = static_cast<ProcId>(static_cast<std::size_t>(v) % procs);
        const auto q = static_cast<ProcId>((static_cast<std::size_t>(v) + 1) % procs);
        if (speculate) {
            const auto outer = builder.checkpoint();
            builder.place(v, q, true);
            duplicate(v, p);
            const auto inner = builder.checkpoint();
            for (const TaskId u : csr.pred_tasks(v)) duplicate(u, q);
            builder.rollback(inner);
            duplicate(v, q);
            builder.rollback(outer);
        }
        record(builder.place(v, p, true));
        const auto preds = csr.pred_tasks(v);
        if (static_cast<std::size_t>(v) % 3 == 0 && !preds.empty()) {
            record(duplicate(preds.front(), q));
        }
    }
}

TEST(Builder, TakeAfterSpeculationPacksLikeDraftAndNeverSpeculated) {
    const Problem problem = layered_problem(40);
    ScheduleBuilder direct(problem);
    ScheduleDraft direct_draft(problem.num_tasks(), problem.num_procs());
    commit_sequence(direct, direct_draft, /*speculate=*/false);
    ScheduleBuilder spec(problem);
    ScheduleDraft spec_draft(problem.num_tasks(), problem.num_procs());
    commit_sequence(spec, spec_draft, /*speculate=*/true);

    // The builder's per-task view already holds what the packed result will.
    const Schedule snapshot = spec.snapshot();
    ASSERT_GT(snapshot.num_duplicates(), 0u);
    for (TaskId v = 0; v < static_cast<TaskId>(problem.num_tasks()); ++v) {
        std::vector<Placement> viewed;
        for (const Placement& pl : spec.placements(v)) viewed.push_back(pl);
        const auto packed = snapshot.placements(v);
        EXPECT_EQ(viewed, std::vector<Placement>(packed.begin(), packed.end())) << "task " << v;
    }

    const std::string direct_bytes = net::encode_schedule(std::move(direct).take());
    const std::string spec_bytes = net::encode_schedule(std::move(spec).take());
    EXPECT_EQ(spec_bytes, direct_bytes);
    EXPECT_EQ(spec_bytes, net::encode_schedule(snapshot));
    EXPECT_EQ(direct_bytes, net::encode_schedule(std::move(direct_draft).build()));
    EXPECT_EQ(spec_bytes, net::encode_schedule(std::move(spec_draft).build()));
}

TEST(Builder, PlacementsViewFollowsCommitsAndRollbacks) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    EXPECT_TRUE(builder.placements(0).empty());
    EXPECT_THROW((void)builder.placements(3), std::out_of_range);
    builder.place(0, 0, true);
    const auto mark = builder.checkpoint();
    builder.place_duplicate_at(0, 1, 0.0);
    builder.place_duplicate_at(0, 1, 2.0);
    std::vector<Placement> seen;
    for (const Placement& pl : builder.placements(0)) seen.push_back(pl);
    const std::vector<Placement> all{{0, 0, 0.0, 2.0}, {0, 1, 0.0, 2.0}, {0, 1, 2.0, 4.0}};
    EXPECT_EQ(seen, all);
    builder.rollback(mark);
    seen.clear();
    for (const Placement& pl : builder.placements(0)) seen.push_back(pl);
    EXPECT_EQ(seen, std::vector<Placement>{all.front()});
    // A fresh duplicate after the rollback links where the undone ones were.
    builder.place_duplicate_at(0, 1, 4.0);
    seen.clear();
    for (const Placement& pl : builder.placements(0)) seen.push_back(pl);
    EXPECT_EQ(seen, (std::vector<Placement>{all.front(), {0, 1, 4.0, 6.0}}));
}

TEST(Builder, DuplicatesSinceListsSurvivorsInCommitOrder) {
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);
    builder.place_duplicate_at(0, 1, 0.0);  // before the mark: not listed
    const auto mark = builder.checkpoint();
    builder.place(1, 0, true);  // a primary: not listed
    builder.place_duplicate_at(0, 1, 2.0);
    const auto inner = builder.checkpoint();
    builder.place_duplicate_at(0, 1, 4.0);
    builder.place_duplicate_at(1, 1, 6.0);
    builder.rollback(inner);
    builder.place_duplicate_at(1, 1, 4.0);
    std::vector<Placement> out{{2, 1, 9.0, 11.0}};  // appended to, not cleared
    builder.duplicates_since(mark, out);
    EXPECT_EQ(out, (std::vector<Placement>{
                       {2, 1, 9.0, 11.0}, {0, 1, 2.0, 4.0}, {1, 1, 4.0, 6.0}}));
    out.clear();
    builder.duplicates_since(builder.checkpoint(), out);
    EXPECT_TRUE(out.empty());
    EXPECT_THROW(builder.duplicates_since(builder.checkpoint() + 1, out), std::logic_error);
}

/// A BTDH-shaped trial of v on q: copy v's first input, then under a nested
/// checkpoint copy it again along with every input (and, one level deeper,
/// the first input once more), roll the nested part back, and copy the
/// first input a third time — so that task's duplicate chain loses a link
/// in the middle.  Copies append after q's last interval once their inputs
/// have arrived.  Returns v's earliest start on q with the copies in place.
double nested_trial(ScheduleBuilder& builder, TaskId v, ProcId q) {
    const Problem& problem = builder.problem();
    const auto preds = problem.dag().csr().pred_tasks(v);
    const auto duplicate = [&](TaskId u) {
        const double start = builder.earliest_start(q, builder.data_ready(u, q),
                                                    problem.exec_time(u, q), /*insertion=*/false);
        builder.place_duplicate_at(u, q, start);
    };
    if (!preds.empty()) {
        duplicate(preds.front());
        const auto inner = builder.checkpoint();
        for (const TaskId u : preds) duplicate(u);
        const auto innermost = builder.checkpoint();
        duplicate(preds.front());
        if (static_cast<std::size_t>(v) % 2 == 0) builder.rollback(innermost);
        builder.rollback(inner);
        if (static_cast<std::size_t>(v) % 3 != 0) duplicate(preds.front());
    }
    return builder.est(v, q, /*insertion=*/true);
}

TEST(Builder, RecommittedTrialPacksLikeReplayedTrial) {
    // DSH/BTDH and ILS-D keep the best trial by copying its surviving
    // duplicates before the rollback and re-committing them; re-running the
    // trial on the restored state is the reference.  Both must leave the
    // same placement state: same packed bytes, same data-ready values.
    const Problem problem = layered_problem(60);
    const std::size_t procs = problem.num_procs();
    ScheduleBuilder replayed(problem);
    ScheduleBuilder reused(problem);
    std::vector<Placement> best_dups;
    std::size_t recommitted = 0;
    for (const TaskId v : topological_order(problem.dag())) {
        ProcId best = 0;
        double best_start = 0.0;
        double best_finish = std::numeric_limits<double>::infinity();
        for (std::size_t pi = 0; pi < procs; ++pi) {
            const auto p = static_cast<ProcId>(pi);
            const auto mark_r = replayed.checkpoint();
            const double start_r = nested_trial(replayed, v, p);
            replayed.rollback(mark_r);
            const auto mark_c = reused.checkpoint();
            const double start_c = nested_trial(reused, v, p);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(start_c), std::bit_cast<std::uint64_t>(start_r));
            if (start_c + problem.exec_time(v, p) < best_finish) {
                best = p;
                best_start = start_c;
                best_finish = start_c + problem.exec_time(v, p);
                best_dups.clear();
                reused.duplicates_since(mark_c, best_dups);
            }
            reused.rollback(mark_c);
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(nested_trial(replayed, v, best)),
                  std::bit_cast<std::uint64_t>(best_start));
        replayed.place_at(v, best, best_start);
        for (const Placement& d : best_dups) reused.place_duplicate_at(d.task, d.proc, d.start);
        recommitted += best_dups.size();
        reused.place_at(v, best, best_start);
        ASSERT_EQ(reused.num_placements(), replayed.num_placements()) << "task " << v;
    }
    EXPECT_GT(recommitted, problem.num_tasks());
    for (std::size_t v = 0; v < problem.num_tasks(); ++v) {
        for (std::size_t q = 0; q < procs; ++q) {
            const auto t = static_cast<TaskId>(v);
            const auto p = static_cast<ProcId>(q);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.data_ready(t, p)),
                      std::bit_cast<std::uint64_t>(replayed.data_ready(t, p)));
        }
    }
    const Schedule snapshot = reused.snapshot();
    EXPECT_GT(snapshot.num_duplicates(), 0u);
    EXPECT_EQ(net::encode_schedule(snapshot), net::encode_schedule(replayed.snapshot()));
    EXPECT_EQ(net::encode_schedule(std::move(reused).take()),
              net::encode_schedule(std::move(replayed).take()));
}

TEST(Builder, PackedScheduleHoldsConstantHeapBlocks) {
    for (const std::size_t n : {100u, 10000u}) {
        SCOPED_TRACE(n);
        const Problem problem = layered_problem(n);
        ScheduleBuilder builder(problem);
        ScheduleDraft draft(problem.num_tasks(), problem.num_procs());
        commit_sequence(builder, draft, /*speculate=*/false);
        // Packing allocates the offsets and the placement array, nothing per task.
        EXPECT_EQ(allocations_during([&] { (void)builder.snapshot(); }), 2u);
        std::optional<Schedule> built;
#ifndef TSCHED_DEBUG_CHECKS  // there take() also runs the lint passes
        EXPECT_EQ(allocations_during([&] { built.emplace(std::move(builder).take()); }), 2u);
#else
        built.emplace(std::move(builder).take());
#endif
        ASSERT_GT(built->num_duplicates(), 0u);
        // A copy allocates exactly the blocks a built Schedule holds.
        EXPECT_EQ(allocations_during([&] { const Schedule copy = *built; }), 2u);
        // A draft's build is a counting sort: offsets, cursors, placements.
        EXPECT_EQ(allocations_during([&] { built.emplace(std::move(draft).build()); }), 3u);
    }
}

TEST(Builder, LinearTimelineEnvMatchesBucketedPlacements) {
    // A speculative place/rollback sequence must leave exactly the
    // placements the pre-index linear timeline produced for it (recorded at
    // commit 307956c with TSCHED_LINEAR_TIMELINE=1, which that commit still
    // honoured; its bucketed timeline agreed).
    const Problem problem = fork_problem();
    ScheduleBuilder builder(problem);
    builder.place(0, 0, true);
    const auto mark = builder.checkpoint();
    builder.place(2, 1, true);
    builder.rollback(mark);
    builder.place(1, 1, true);
    builder.place(2, 0, true);
    EXPECT_EQ(builder.current_makespan(), 8.0);
    const Schedule s = std::move(builder).take();
    const Placement expected[] = {{0, 0, 0.0, 2.0}, {1, 1, 6.0, 8.0}, {2, 0, 2.0, 4.0}};
    for (const Placement& pl : expected) {
        EXPECT_EQ(s.primary(pl.task), pl) << "task " << pl.task;
        EXPECT_EQ(s.placements(pl.task).size(), 1u) << "task " << pl.task;
    }
}

}  // namespace
}  // namespace tsched
