// Golden-battery determinism test for the speculation-heavy schedulers.
//
// The checkpoint/undo rewrite of ILS-D, Lookahead-HEFT, DSH, and BTDH (which
// replaced clone-per-candidate trial evaluation) is required to be
// *behaviour-preserving*: every schedule must come out bit-identical to the
// clone-based implementation's.  The table below pins makespans and
// placement counts (duplicates included) that were recorded from the
// pre-rewrite implementation over a seeded instance battery; any change to
// the speculation machinery that alters a single placement decision will
// move at least one of these 168 values.
//
// Makespans are compared with a 1e-9 relative tolerance: the recorded
// values are exact on the reference platform, but cross-compiler FP
// contraction differences (FMA) in the instance generator or cost sums may
// legally perturb the last ulp.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "sched/repair.hpp"
#include "sched/schedule_io.hpp"
#include "serve/request.hpp"
#include "serve/request_trace.hpp"
#include "serve/serve_engine.hpp"
#include "sim/faults.hpp"
#include "util/thread_pool.hpp"
#include "workload/instance.hpp"

namespace tsched {
namespace {

struct GoldenRow {
    std::size_t point;
    std::uint64_t seed;
    const char* algo;
    double makespan;
    std::size_t placements;
};

struct BatteryPoint {
    workload::Shape shape;
    std::size_t size;
    std::size_t procs;
    double ccr;
    double beta;
};

const std::vector<BatteryPoint>& battery() {
    static const std::vector<BatteryPoint> pts{
        {workload::Shape::kLayered, 30, 4, 0.5, 0.5},
        {workload::Shape::kLayered, 60, 8, 2.0, 1.0},
        {workload::Shape::kGnp, 40, 4, 1.0, 0.5},
        {workload::Shape::kGauss, 8, 4, 2.0, 0.75},
        {workload::Shape::kFft, 16, 8, 0.5, 0.25},
        {workload::Shape::kForkJoin, 12, 4, 1.0, 1.5},
        {workload::Shape::kOutTree, 4, 8, 2.0, 0.5},
        {workload::Shape::kMontage, 10, 4, 1.0, 0.5},
    };
    return pts;
}

const std::vector<GoldenRow>& golden_rows() {
    static const std::vector<GoldenRow> rows{
    {0, 2007ULL, "ils", 172.49548805877441, 30},
    {0, 2007ULL, "ils-d", 172.49548805877441, 31},
    {0, 2007ULL, "lheft", 177.45402445012775, 30},
    {0, 2007ULL, "dsh", 171.88363208519223, 32},
    {0, 2007ULL, "btdh", 171.88363208519223, 32},
    {0, 2007ULL, "heft", 178.43392556736518, 30},
    {0, 2007ULL, "ils-d-k3", 172.49548805877441, 31},
    {0, 42ULL, "ils", 158.81620657187543, 30},
    {0, 42ULL, "ils-d", 160.81771426988178, 32},
    {0, 42ULL, "lheft", 157.50451277644041, 30},
    {0, 42ULL, "dsh", 165.48220974480728, 32},
    {0, 42ULL, "btdh", 165.48220974480728, 32},
    {0, 42ULL, "heft", 158.81620657187543, 30},
    {0, 42ULL, "ils-d-k3", 160.81771426988178, 32},
    {0, 99991ULL, "ils", 204.23479085109636, 30},
    {0, 99991ULL, "ils-d", 204.23479085109636, 32},
    {0, 99991ULL, "lheft", 220.57324152852323, 30},
    {0, 99991ULL, "dsh", 210.80649073062784, 31},
    {0, 99991ULL, "btdh", 210.80649073062784, 32},
    {0, 99991ULL, "heft", 204.23479085109636, 30},
    {0, 99991ULL, "ils-d-k3", 204.23479085109636, 32},
    {1, 2007ULL, "ils", 378.84621108701884, 60},
    {1, 2007ULL, "ils-d", 321.41575724130684, 97},
    {1, 2007ULL, "lheft", 369.23246283326142, 60},
    {1, 2007ULL, "dsh", 316.03728645267518, 97},
    {1, 2007ULL, "btdh", 315.18717014170545, 124},
    {1, 2007ULL, "heft", 378.84621108701884, 60},
    {1, 2007ULL, "ils-d-k3", 321.41575724130684, 97},
    {1, 42ULL, "ils", 450.43278496089977, 60},
    {1, 42ULL, "ils-d", 354.71466222055631, 98},
    {1, 42ULL, "lheft", 458.51163580491379, 60},
    {1, 42ULL, "dsh", 368.73333431238945, 94},
    {1, 42ULL, "btdh", 342.39527702504631, 131},
    {1, 42ULL, "heft", 450.43278496089977, 60},
    {1, 42ULL, "ils-d-k3", 354.71466222055631, 98},
    {1, 99991ULL, "ils", 352.35910221107304, 60},
    {1, 99991ULL, "ils-d", 291.38149205445944, 90},
    {1, 99991ULL, "lheft", 398.05816784231797, 60},
    {1, 99991ULL, "dsh", 281.04231615473748, 91},
    {1, 99991ULL, "btdh", 284.09240405102543, 112},
    {1, 99991ULL, "heft", 366.2196691746027, 60},
    {1, 99991ULL, "ils-d-k3", 287.65711175559466, 82},
    {2, 2007ULL, "ils", 241.25616982545685, 40},
    {2, 2007ULL, "ils-d", 246.41143414969545, 45},
    {2, 2007ULL, "lheft", 241.25616982545685, 40},
    {2, 2007ULL, "dsh", 240.96007219151167, 45},
    {2, 2007ULL, "btdh", 243.76175061405695, 45},
    {2, 2007ULL, "heft", 264.3692853632262, 40},
    {2, 2007ULL, "ils-d-k3", 246.41143414969545, 45},
    {2, 42ULL, "ils", 220.61270183197874, 40},
    {2, 42ULL, "ils-d", 213.44616349336545, 46},
    {2, 42ULL, "lheft", 240.61727438642606, 40},
    {2, 42ULL, "dsh", 235.29849559708109, 45},
    {2, 42ULL, "btdh", 235.73087558650806, 53},
    {2, 42ULL, "heft", 240.77986795343446, 40},
    {2, 42ULL, "ils-d-k3", 213.44616349336545, 46},
    {2, 99991ULL, "ils", 270.82153328764878, 40},
    {2, 99991ULL, "ils-d", 267.26216502469811, 50},
    {2, 99991ULL, "lheft", 279.94960137518285, 40},
    {2, 99991ULL, "dsh", 276.57956351725835, 51},
    {2, 99991ULL, "btdh", 272.91121210762498, 54},
    {2, 99991ULL, "heft", 274.40544593343452, 40},
    {2, 99991ULL, "ils-d-k3", 267.26216502469811, 50},
    {3, 2007ULL, "ils", 420.82860477313181, 35},
    {3, 2007ULL, "ils-d", 359.92378361878383, 54},
    {3, 2007ULL, "lheft", 445.37089613629462, 35},
    {3, 2007ULL, "dsh", 380.5428384740984, 53},
    {3, 2007ULL, "btdh", 351.44092656744078, 59},
    {3, 2007ULL, "heft", 420.82860477313181, 35},
    {3, 2007ULL, "ils-d-k3", 359.92378361878383, 54},
    {3, 42ULL, "ils", 375.35235374473075, 35},
    {3, 42ULL, "ils-d", 358.81291917023071, 52},
    {3, 42ULL, "lheft", 434.14945215158599, 35},
    {3, 42ULL, "dsh", 379.72836293742807, 56},
    {3, 42ULL, "btdh", 338.0463344097937, 54},
    {3, 42ULL, "heft", 405.25396170140334, 35},
    {3, 42ULL, "ils-d-k3", 358.81291917023071, 52},
    {3, 99991ULL, "ils", 423.15967998510951, 35},
    {3, 99991ULL, "ils-d", 363.96312705241826, 56},
    {3, 99991ULL, "lheft", 429.62489619658146, 35},
    {3, 99991ULL, "dsh", 356.00304501695985, 52},
    {3, 99991ULL, "btdh", 363.92608092492679, 58},
    {3, 99991ULL, "heft", 424.72016878703567, 35},
    {3, 99991ULL, "ils-d-k3", 363.96312705241826, 56},
    {4, 2007ULL, "ils", 211.39458655875586, 80},
    {4, 2007ULL, "ils-d", 211.39458655875586, 80},
    {4, 2007ULL, "lheft", 212.28785878421903, 80},
    {4, 2007ULL, "dsh", 211.39458655875586, 80},
    {4, 2007ULL, "btdh", 211.39458655875586, 80},
    {4, 2007ULL, "heft", 211.39458655875586, 80},
    {4, 2007ULL, "ils-d-k3", 211.02101933696323, 80},
    {4, 42ULL, "ils", 208.6543792681945, 80},
    {4, 42ULL, "ils-d", 212.99152898829297, 82},
    {4, 42ULL, "lheft", 213.72089811247949, 80},
    {4, 42ULL, "dsh", 212.99152898829297, 82},
    {4, 42ULL, "btdh", 212.99152898829297, 82},
    {4, 42ULL, "heft", 208.6543792681945, 80},
    {4, 42ULL, "ils-d-k3", 212.99152898829297, 82},
    {4, 99991ULL, "ils", 209.52120363707499, 80},
    {4, 99991ULL, "ils-d", 209.52120363707499, 80},
    {4, 99991ULL, "lheft", 209.41546092434791, 80},
    {4, 99991ULL, "dsh", 209.52120363707499, 80},
    {4, 99991ULL, "btdh", 209.52120363707499, 80},
    {4, 99991ULL, "heft", 209.52120363707499, 80},
    {4, 99991ULL, "ils-d-k3", 209.52120363707499, 80},
    {5, 2007ULL, "ils", 362.29423620446562, 53},
    {5, 2007ULL, "ils-d", 344.52693930488124, 62},
    {5, 2007ULL, "lheft", 344.71313699791597, 53},
    {5, 2007ULL, "dsh", 344.52693930488124, 62},
    {5, 2007ULL, "btdh", 338.22797590745284, 69},
    {5, 2007ULL, "heft", 362.29423620446562, 53},
    {5, 2007ULL, "ils-d-k3", 344.52693930488124, 62},
    {5, 42ULL, "ils", 375.91148802727707, 53},
    {5, 42ULL, "ils-d", 333.97123296533596, 67},
    {5, 42ULL, "lheft", 354.17234097570537, 53},
    {5, 42ULL, "dsh", 333.97123296533596, 67},
    {5, 42ULL, "btdh", 333.86266911690393, 76},
    {5, 42ULL, "heft", 375.91148802727707, 53},
    {5, 42ULL, "ils-d-k3", 333.97123296533596, 67},
    {5, 99991ULL, "ils", 353.48471378642358, 53},
    {5, 99991ULL, "ils-d", 331.46772820840198, 67},
    {5, 99991ULL, "lheft", 340.86752567169282, 53},
    {5, 99991ULL, "dsh", 331.46772820840198, 67},
    {5, 99991ULL, "btdh", 332.08466314234528, 78},
    {5, 99991ULL, "heft", 353.48471378642358, 53},
    {5, 99991ULL, "ils-d-k3", 331.46772820840198, 67},
    {6, 2007ULL, "ils", 184.98650527700772, 40},
    {6, 2007ULL, "ils-d", 158.26846074194225, 48},
    {6, 2007ULL, "lheft", 194.09566060492432, 40},
    {6, 2007ULL, "dsh", 161.81702884899906, 49},
    {6, 2007ULL, "btdh", 144.45128773757662, 58},
    {6, 2007ULL, "heft", 184.98650527700772, 40},
    {6, 2007ULL, "ils-d-k3", 158.26846074194225, 48},
    {6, 42ULL, "ils", 187.4936447617649, 40},
    {6, 42ULL, "ils-d", 160.75496646845264, 52},
    {6, 42ULL, "lheft", 181.72361887602685, 40},
    {6, 42ULL, "dsh", 165.45571266556374, 48},
    {6, 42ULL, "btdh", 144.92494308971229, 56},
    {6, 42ULL, "heft", 188.53566810764084, 40},
    {6, 42ULL, "ils-d-k3", 163.96954362740294, 49},
    {6, 99991ULL, "ils", 187.82781791602673, 40},
    {6, 99991ULL, "ils-d", 170.04145551155915, 47},
    {6, 99991ULL, "lheft", 192.93519364918058, 40},
    {6, 99991ULL, "dsh", 171.78478284490308, 49},
    {6, 99991ULL, "btdh", 142.73578958524038, 54},
    {6, 99991ULL, "heft", 189.20957407840447, 40},
    {6, 99991ULL, "ils-d-k3", 170.04145551155915, 47},
    {7, 2007ULL, "ils", 286.34728932846429, 38},
    {7, 2007ULL, "ils-d", 276.61159840610645, 41},
    {7, 2007ULL, "lheft", 287.5361685473697, 38},
    {7, 2007ULL, "dsh", 280.74224850429283, 43},
    {7, 2007ULL, "btdh", 270.23239372049369, 54},
    {7, 2007ULL, "heft", 286.34728932846429, 38},
    {7, 2007ULL, "ils-d-k3", 276.61159840610645, 41},
    {7, 42ULL, "ils", 300.72983479772677, 38},
    {7, 42ULL, "ils-d", 292.68183672729549, 43},
    {7, 42ULL, "lheft", 298.94430213626447, 38},
    {7, 42ULL, "dsh", 300.77644442407689, 44},
    {7, 42ULL, "btdh", 286.55259320521486, 52},
    {7, 42ULL, "heft", 300.72983479772677, 38},
    {7, 42ULL, "ils-d-k3", 292.68183672729549, 43},
    {7, 99991ULL, "ils", 305.90341902234059, 38},
    {7, 99991ULL, "ils-d", 295.43964578903598, 43},
    {7, 99991ULL, "lheft", 307.01305828857397, 38},
    {7, 99991ULL, "dsh", 298.55776472578191, 44},
    {7, 99991ULL, "btdh", 288.46989394356694, 52},
    {7, 99991ULL, "heft", 305.90341902234059, 38},
    {7, 99991ULL, "ils-d-k3", 295.43964578903598, 43},
    };
    return rows;
}

TEST(Determinism, GoldenBatteryMakespansAndPlacementCounts) {
    std::optional<Problem> problem;
    std::size_t cached_point = static_cast<std::size_t>(-1);
    std::uint64_t cached_seed = 0;
    for (const GoldenRow& row : golden_rows()) {
        if (!problem || row.point != cached_point || row.seed != cached_seed) {
            const BatteryPoint& pt = battery().at(row.point);
            workload::InstanceParams params;
            params.shape = pt.shape;
            params.size = pt.size;
            params.num_procs = pt.procs;
            params.ccr = pt.ccr;
            params.beta = pt.beta;
            problem.emplace(workload::make_instance(params, row.seed));
            cached_point = row.point;
            cached_seed = row.seed;
        }
        const Schedule s = make_scheduler(row.algo)->schedule(*problem);
        EXPECT_NEAR(s.makespan(), row.makespan, 1e-9 * row.makespan)
            << row.algo << " point=" << row.point << " seed=" << row.seed;
        EXPECT_EQ(s.num_placements(), row.placements)
            << row.algo << " point=" << row.point << " seed=" << row.seed;
    }
}

/// Same battery, one level stronger: scheduling the same instance twice must
/// give identical placements (guards against any hidden state leaking
/// between runs through the speculation machinery).
TEST(Determinism, RepeatRunsAreBitIdentical) {
    const BatteryPoint& pt = battery().front();
    workload::InstanceParams params;
    params.shape = pt.shape;
    params.size = pt.size;
    params.num_procs = pt.procs;
    params.ccr = pt.ccr;
    params.beta = pt.beta;
    const Problem problem = workload::make_instance(params, 2007);
    for (const char* algo : {"ils-d", "lheft", "dsh", "btdh"}) {
        const auto scheduler = make_scheduler(algo);
        const Schedule a = scheduler->schedule(problem);
        const Schedule b = scheduler->schedule(problem);
        ASSERT_EQ(a.num_placements(), b.num_placements()) << algo;
        for (std::size_t v = 0; v < a.num_tasks(); ++v) {
            const auto pa = a.placements(static_cast<TaskId>(v));
            const auto pb = b.placements(static_cast<TaskId>(v));
            ASSERT_EQ(pa.size(), pb.size()) << algo << " task " << v;
            for (std::size_t i = 0; i < pa.size(); ++i) {
                EXPECT_EQ(pa[i], pb[i]) << algo << " task " << v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injection golden battery.
//
// The acceptance scenario for the fault pipeline: the busiest processor of
// the schedule crashes at 50% of the static makespan on a 100-task, 8-proc
// instance, once per repair policy.  The rows pin the realised degradation
// (1e-9 relative, same FMA caveat as above) and the exact repair
// bookkeeping; any change to the fault simulator's event ordering, the
// repair policies, or the frozen-prefix rebuild will move at least one
// value.  Regenerate by running simulate_faulty at these points and printing
// degradation with %.17g.

struct FaultGoldenRow {
    std::uint64_t seed;
    const char* algo;
    const char* policy;
    double degradation;
    std::size_t migrated;
    std::size_t reexecuted;
    std::size_t dropped;
    std::size_t placements;  ///< placements in the repaired schedule
};

const std::vector<FaultGoldenRow>& fault_golden_rows() {
    static const std::vector<FaultGoldenRow> rows{
    {2007ULL, "heft", "none", 1.4103228225931157, 9, 1, 0, 100},
    {2007ULL, "heft", "remap-pending", 1.2741887853197527, 9, 1, 0, 100},
    {2007ULL, "heft", "reschedule-suffix", 1.0426744164951278, 9, 1, 0, 100},
    {2007ULL, "heft", "use-duplicates", 1.2741887853197527, 9, 1, 0, 100},
    {2007ULL, "ils-d", "none", 1.3245078850937724, 6, 0, 3, 120},
    {2007ULL, "ils-d", "remap-pending", 1.2581083509420612, 8, 1, 0, 123},
    {2007ULL, "ils-d", "reschedule-suffix", 1.0612455005355346, 6, 0, 14, 109},
    {2007ULL, "ils-d", "use-duplicates", 1.2581083509420612, 6, 0, 3, 120},
    {42ULL, "heft", "none", 1.2220419973927381, 9, 1, 0, 100},
    {42ULL, "heft", "remap-pending", 1.1452383665040282, 9, 1, 0, 100},
    {42ULL, "heft", "reschedule-suffix", 1.0301768502078403, 9, 1, 0, 100},
    {42ULL, "heft", "use-duplicates", 1.1452383665040282, 9, 1, 0, 100},
    {42ULL, "ils-d", "none", 1.2592356905841562, 9, 1, 4, 131},
    {42ULL, "ils-d", "remap-pending", 1.2309604139594821, 9, 1, 0, 135},
    {42ULL, "ils-d", "reschedule-suffix", 1.0752381687626615, 9, 1, 11, 124},
    {42ULL, "ils-d", "use-duplicates", 1.2146753468221125, 9, 1, 4, 131},
    };
    return rows;
}

TEST(Determinism, FaultGoldenBatteryDegradationsAndRepairCounts) {
    std::optional<Problem> problem;
    std::uint64_t cached_seed = 0;
    std::string cached_algo;
    std::optional<Schedule> schedule;
    for (const FaultGoldenRow& row : fault_golden_rows()) {
        if (!problem || row.seed != cached_seed) {
            workload::InstanceParams params;
            params.size = 100;
            params.num_procs = 8;
            params.ccr = 1.0;
            params.beta = 0.75;
            problem.emplace(workload::make_instance(params, row.seed));
            cached_seed = row.seed;
            cached_algo.clear();
        }
        if (!schedule || row.algo != cached_algo) {
            schedule.emplace(make_scheduler(row.algo)->schedule(*problem));
            cached_algo = row.algo;
        }
        const sim::FaultPlan plan = sim::crash_busiest(*schedule, 0.5);
        const auto policy = make_repair_policy(row.policy);
        const auto report = sim::simulate_faulty(*schedule, *problem, plan, *policy);
        const std::string where =
            std::string(row.algo) + "/" + row.policy + " seed=" + std::to_string(row.seed);
        EXPECT_NEAR(report.degradation, row.degradation, 1e-9 * row.degradation) << where;
        EXPECT_EQ(report.migrated_tasks, row.migrated) << where;
        EXPECT_EQ(report.reexecuted_tasks, row.reexecuted) << where;
        EXPECT_EQ(report.dropped_placements, row.dropped) << where;
        EXPECT_EQ(report.repaired.num_placements(), row.placements) << where;
    }
}

/// One level stronger, mirroring RepeatRunsAreBitIdentical: the same faulty
/// run replayed twice must agree in *every* FaultReport field, bit for bit.
TEST(Determinism, FaultReportsAreBitIdenticalAcrossRepeatRuns) {
    workload::InstanceParams params;
    params.size = 100;
    params.num_procs = 8;
    params.ccr = 1.0;
    params.beta = 0.75;
    const Problem problem = workload::make_instance(params, 2007);
    for (const char* algo : {"heft", "ils-d"}) {
        const Schedule schedule = make_scheduler(algo)->schedule(problem);
        const sim::FaultPlan plan = sim::crash_busiest(schedule, 0.5);
        for (const char* pol :
             {"none", "remap-pending", "reschedule-suffix", "use-duplicates"}) {
            const auto policy = make_repair_policy(pol);
            const auto a = sim::simulate_faulty(schedule, problem, plan, *policy);
            const auto b = sim::simulate_faulty(schedule, problem, plan, *policy);
            const std::string where = std::string(algo) + "/" + pol;
            EXPECT_EQ(a.sim.makespan, b.sim.makespan) << where;
            EXPECT_EQ(a.sim.proc_busy, b.sim.proc_busy) << where;
            EXPECT_EQ(a.sim.remote_messages, b.sim.remote_messages) << where;
            EXPECT_EQ(a.sim.comm_volume, b.sim.comm_volume) << where;
            EXPECT_EQ(a.sim.finish_times, b.sim.finish_times) << where;
            EXPECT_EQ(a.degradation, b.degradation) << where;
            EXPECT_EQ(a.retries, b.retries) << where;
            EXPECT_EQ(a.migrated_tasks, b.migrated_tasks) << where;
            EXPECT_EQ(a.reexecuted_tasks, b.reexecuted_tasks) << where;
            EXPECT_EQ(a.dropped_placements, b.dropped_placements) << where;
            EXPECT_EQ(a.repair_latency, b.repair_latency) << where;
            EXPECT_EQ(a.events, b.events) << where;
        }
    }
}

// ---------------------------------------------------------------------------
// Serving-layer golden battery.
//
// The schedule cache trusts 64-bit request fingerprints, so the
// canonicalization rules (serve/request.hpp) are a compatibility contract:
// any change to the canonical encodings silently invalidates every cached
// entry and breaks cross-build reproducibility of .tsr replays.  The rows
// below pin exact fingerprints of hand-built problems whose every cost is
// exactly representable (3.0, 2.5, 0.25, ...), so no instance generator —
// and therefore no cross-compiler FP contraction — is involved; these
// values must be bit-stable on every platform.

std::shared_ptr<const Problem> serve_golden_problem(double fork_work) {
    DagBuilder builder;
    const TaskId a = builder.add_task(fork_work);
    const TaskId b = builder.add_task(2.0);
    const TaskId c = builder.add_task(4.0);
    const TaskId d = builder.add_task(1.0);
    builder.add_edge(a, b, 1.5);
    builder.add_edge(a, c, 2.5);
    builder.add_edge(b, d, 0.5);
    builder.add_edge(c, d, 1.0);
    Dag dag = std::move(builder).build();
    auto links = std::make_shared<const UniformLinkModel>(0.25, 2.0);
    Machine machine({1.0, 2.0}, links);
    CostMatrix costs = CostMatrix::from_speeds(dag, machine);
    return std::make_shared<const Problem>(std::move(dag), std::move(machine), std::move(costs));
}

struct ServeGoldenRow {
    double fork_work;
    const char* algo;
    const char* options;
    std::uint64_t fingerprint;
};

TEST(Determinism, ServeRequestFingerprintsAreGolden) {
    const std::vector<ServeGoldenRow> rows{
        {3.0, "heft", "", 16161705895780441590ULL},
        {3.0, "cpop", "", 9131931451316144527ULL},
        {3.0, "heft", "k=3", 316665473736544322ULL},
        {3.5, "heft", "", 18192048142213196343ULL},
    };
    for (const ServeGoldenRow& row : rows) {
        serve::ScheduleRequest request;
        request.problem = serve_golden_problem(row.fork_work);
        request.algo = row.algo;
        request.options = row.options;
        EXPECT_EQ(serve::fingerprint_request(request), row.fingerprint)
            << row.algo << " options='" << row.options << "' fork_work=" << row.fork_work;
    }
}

/// A cache hit must hand back a schedule that serializes to exactly the
/// bytes a cold, engine-free scheduler run produces — over the same seeded
/// battery the scheduler goldens use.
TEST(Determinism, ServeCacheHitsAreByteIdenticalToColdRuns) {
    const BatteryPoint& pt = battery().front();
    workload::InstanceParams params;
    params.shape = pt.shape;
    params.size = pt.size;
    params.num_procs = pt.procs;
    params.ccr = pt.ccr;
    params.beta = pt.beta;
    ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    for (const char* algo : {"heft", "ils-d", "dsh"}) {
        serve::ScheduleRequest request;
        request.problem = std::make_shared<const Problem>(workload::make_instance(params, 2007));
        request.algo = algo;
        const std::string cold = to_tss(make_scheduler(algo)->schedule(*request.problem));
        const auto first = engine.serve(request);
        const auto second = engine.serve(request);
        EXPECT_FALSE(first.cache_hit) << algo;
        EXPECT_TRUE(second.cache_hit) << algo;
        EXPECT_EQ(to_tss(*second.schedule), cold) << algo;
    }
}

// ---------------------------------------------------------------------------
// Network codec goldens (DESIGN §17): the wire encoding is a compatibility
// contract.  These vectors were recorded from the canonical encoder; any
// codec change that alters a single byte breaks every deployed peer and must
// bump kCodecVersion instead of silently shifting bytes.
// ---------------------------------------------------------------------------

std::string hex_of(std::string_view bytes) {
    static const char* digits = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xF]);
    }
    return out;
}

net::WireRequest codec_golden_request() {
    net::WireRequest request;
    request.id = 7;
    request.trace.algo = "heft";
    request.trace.shape = workload::Shape::kLayered;
    request.trace.size = 30;
    request.trace.procs = 4;
    request.trace.net = workload::Net::kUniform;
    request.trace.ccr = 1.0;
    request.trace.beta = 0.5;
    request.trace.seed = 11;
    request.deadline_ms = 2.5;
    request.options = "k=3";
    return request;
}

TEST(Determinism, NetCodecRequestBytesAreGolden) {
    const std::string bytes = net::encode_request(codec_golden_request());
    EXPECT_EQ(hex_of(bytes),
              "0700000000000000"                  // id = 7 (u64 LE)
              "01"                                // body format: descriptor
              "0400000000000000" "68656674"       // "heft"
              "0700000000000000" "6c617965726564" // "layered"
              "1e00000000000000"                  // size = 30
              "0400000000000000"                  // procs = 4
              "0700000000000000" "756e69666f726d" // "uniform"
              "000000000000f03f"                  // ccr = 1.0
              "000000000000e03f"                  // beta = 0.5
              "0b00000000000000"                  // seed = 11
              "0000000000000440"                  // deadline = 2.5 ms
              "0300000000000000" "6b3d33");       // "k=3"
    // And the framed form: a 16-byte header whose trailing CRC guards the
    // payload above.
    const std::string framed = net::encode_frame(net::FrameType::kRequest, bytes);
    EXPECT_EQ(hex_of(framed.substr(0, net::kFrameHeaderBytes)),
              "54534e46"   // magic "TSNF" (LE 0x464E5354)
              "01"         // protocol version
              "03"         // type = kRequest
              "0000"       // reserved
              "6e000000"   // payload length = 110
              "3ba6346b"); // CRC-32 of the payload
}

TEST(Determinism, NetCodecResponseBytesAreGolden) {
    ScheduleDraft schedule_draft(3, 2);
    schedule_draft.add(0, 0, 0.0, 1.5);
    schedule_draft.add(1, 1, 1.5, 3.25);
    schedule_draft.add(2, 0, 3.25, 4.0);
    const Schedule schedule = std::move(schedule_draft).build();
    net::WireResponse response;
    response.id = 9;
    response.outcome = serve::ServeOutcome::kOk;
    response.cache_hit = true;
    response.fingerprint = 0x1122334455667788ULL;
    response.schedule_bytes = net::encode_schedule(schedule);
    EXPECT_EQ(hex_of(net::encode_response(response)),
              "0900000000000000"   // id = 9
              "00"                 // outcome = kOk
              "01"                 // flags: cache_hit
              "8877665544332211"   // fingerprint (u64 LE)
              "7800000000000000"   // schedule_bytes length = 120
              "0300000000000000"   // num_tasks = 3
              "0200000000000000"   // num_procs = 2
              "0300000000000000"   // num_placements = 3
              "0000000000000000" "0000000000000000"  // task 0 on proc 0
              "0000000000000000" "000000000000f83f"  // [0, 1.5)
              "0100000000000000" "0100000000000000"  // task 1 on proc 1
              "000000000000f83f" "0000000000000a40"  // [1.5, 3.25)
              "0200000000000000" "0000000000000000"  // task 2 on proc 0
              "0000000000000a40" "0000000000001040"); // [3.25, 4)
}

// The descriptor round trip underlying the wire cache contract: a request
// decoded from golden bytes materializes to the same fingerprint as the
// original, so a cache warmed by one client serves byte-identical responses
// to every other.
TEST(Determinism, NetCodecDescriptorRoundTripPreservesFingerprint) {
    const net::WireRequest original = codec_golden_request();
    const auto decoded = net::decode_request(net::encode_request(original));
    EXPECT_EQ(serve::fingerprint_request(serve::materialize(original.trace)),
              serve::fingerprint_request(serve::materialize(decoded.trace)));
    // Canonical: decode -> encode reproduces the input bytes exactly.
    EXPECT_EQ(net::encode_request(decoded), net::encode_request(original));
}

}  // namespace
}  // namespace tsched
