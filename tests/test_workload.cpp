// Unit + property tests for the workload generators.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "graph/algorithms.hpp"
#include "workload/costs.hpp"
#include "workload/instance.hpp"
#include "workload/random_dag.hpp"
#include "workload/structured.hpp"

namespace tsched {
namespace {

using workload::InstanceParams;
using workload::Shape;

// ---------------------------------------------------------------------------
// Structured graphs: closed-form node/edge counts.
// ---------------------------------------------------------------------------

class GaussSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GaussSizeTest, NodeAndEdgeCountsMatchClosedForm) {
    const std::size_t m = GetParam();
    const Dag dag = workload::gaussian_elimination(m);
    EXPECT_EQ(dag.num_tasks(), (m * m + m - 2) / 2);
    EXPECT_EQ(dag.num_edges(), m * m - m - 1);
    EXPECT_TRUE(dag.is_acyclic());
    EXPECT_EQ(dag.sources().size(), 1u);  // single initial pivot
}

INSTANTIATE_TEST_SUITE_P(Sizes, GaussSizeTest, ::testing::Values(2u, 3u, 5u, 8u, 16u));

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, NodeAndEdgeCountsMatchClosedForm) {
    const std::size_t n = GetParam();
    const auto k = static_cast<std::size_t>(std::lround(std::log2(static_cast<double>(n))));
    const Dag dag = workload::fft(n);
    EXPECT_EQ(dag.num_tasks(), n * (k + 1));
    EXPECT_EQ(dag.num_edges(), 2 * n * k);
    EXPECT_TRUE(dag.is_acyclic());
    EXPECT_EQ(dag.sources().size(), n);
    EXPECT_EQ(dag.sinks().size(), n);
    EXPECT_EQ(height(dag), static_cast<int>(k + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest, ::testing::Values(2u, 4u, 8u, 16u, 64u));

TEST(Fft, RejectsNonPowerOfTwo) {
    EXPECT_THROW((void)workload::fft(12), std::invalid_argument);
    EXPECT_THROW((void)workload::fft(1), std::invalid_argument);
}

class LaplaceSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LaplaceSizeTest, WavefrontShape) {
    const std::size_t g = GetParam();
    const Dag dag = workload::laplace(g);
    EXPECT_EQ(dag.num_tasks(), g * g);
    EXPECT_EQ(dag.num_edges(), 2 * g * (g - 1));
    EXPECT_EQ(dag.sources(), (std::vector<TaskId>{0}));
    EXPECT_EQ(dag.sinks(), (std::vector<TaskId>{static_cast<TaskId>(g * g - 1)}));
    EXPECT_EQ(height(dag), static_cast<int>(2 * g - 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LaplaceSizeTest, ::testing::Values(1u, 2u, 4u, 7u, 12u));

class CholeskySizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizeTest, TaskCountMatchesClosedForm) {
    const std::size_t t = GetParam();
    const Dag dag = workload::cholesky(t);
    // POTRF: t, TRSM: C(t,2), SYRK: C(t,2), GEMM: C(t,3)  ==  t(t+1)(t+2)/6.
    EXPECT_EQ(dag.num_tasks(), t * (t + 1) * (t + 2) / 6);
    EXPECT_TRUE(dag.is_acyclic());
    EXPECT_EQ(dag.sources().size(), 1u);  // POTRF(0)
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeTest, ::testing::Values(1u, 2u, 3u, 4u, 6u));

TEST(Lu, TaskCountMatchesClosedForm) {
    for (const std::size_t t : {1u, 2u, 3u, 5u}) {
        const Dag dag = workload::lu(t);
        // GETRF: t, row TRSM: C(t,2), col TRSM: C(t,2), GEMM: sum k (t-1-k)^2.
        std::size_t gemm = 0;
        for (std::size_t k = 0; k + 1 < t; ++k) gemm += (t - 1 - k) * (t - 1 - k);
        EXPECT_EQ(dag.num_tasks(), t + t * (t - 1) + gemm);
        EXPECT_TRUE(dag.is_acyclic());
    }
}

TEST(ForkJoin, CountsAndShape) {
    const Dag dag = workload::fork_join(5, 3);
    EXPECT_EQ(dag.num_tasks(), 3 * (5 + 1) + 1);
    EXPECT_EQ(dag.num_edges(), 2u * 3u * 5u);
    EXPECT_EQ(dag.sources().size(), 1u);
    EXPECT_EQ(dag.sinks().size(), 1u);
    EXPECT_EQ(height(dag), 7);  // src, w, join, w, join, w, join
}

TEST(Trees, CountsAndOrientation) {
    const Dag out = workload::out_tree(3, 3);  // 1 + 3 + 9
    EXPECT_EQ(out.num_tasks(), 13u);
    EXPECT_EQ(out.sources().size(), 1u);
    EXPECT_EQ(out.sinks().size(), 9u);
    const Dag in = workload::in_tree(3, 3);
    EXPECT_EQ(in.num_tasks(), 13u);
    EXPECT_EQ(in.sources().size(), 9u);
    EXPECT_EQ(in.sinks().size(), 1u);
}

TEST(ChainDiamondIndependentStencil, Shapes) {
    EXPECT_EQ(workload::chain(7).num_edges(), 6u);
    EXPECT_EQ(height(workload::chain(7)), 7);

    const Dag d = workload::diamond(4, 2);
    EXPECT_EQ(d.num_tasks(), 1u + 4u + 4u + 1u);
    EXPECT_EQ(d.num_edges(), 4u + 16u + 4u);

    const Dag ind = workload::independent(9);
    EXPECT_EQ(ind.num_edges(), 0u);
    EXPECT_EQ(ind.sources().size(), 9u);

    const Dag st = workload::stencil_1d(5, 3);
    EXPECT_EQ(st.num_tasks(), 15u);
    EXPECT_EQ(height(st), 3);
    // Interior cells have 3 preds, border cells 2.
    EXPECT_EQ(st.in_degree(5 + 2), 3u);
    EXPECT_EQ(st.in_degree(5 + 0), 2u);
}

TEST(MontageLike, IsConnectedWorkflow) {
    const Dag dag = workload::montage_like(6);
    EXPECT_TRUE(dag.is_acyclic());
    EXPECT_EQ(dag.sources().size(), 6u);   // projections
    EXPECT_EQ(dag.sinks().size(), 1u);     // mosaic
    EXPECT_EQ(weakly_connected_components(dag), 1u);
    EXPECT_THROW((void)workload::montage_like(1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Random generators.
// ---------------------------------------------------------------------------

class LayeredSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayeredSeedTest, Postconditions) {
    Rng rng(GetParam());
    workload::LayeredDagParams params;
    params.n = 150;
    params.alpha = 0.8;
    const Dag dag = workload::layered_random(params, rng);
    EXPECT_EQ(dag.num_tasks(), 150u);
    EXPECT_EQ(dag.validate(), "");
    // Every non-source task has a predecessor by repair; work/data in bounds.
    const auto tops = top_levels(dag);
    for (std::size_t v = 0; v < dag.num_tasks(); ++v) {
        if (tops[v] > 0) {
            EXPECT_GE(dag.in_degree(static_cast<TaskId>(v)), 1u);
        }
        EXPECT_GE(dag.work(static_cast<TaskId>(v)), params.work_min);
        EXPECT_LE(dag.work(static_cast<TaskId>(v)), params.work_max);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayeredSeedTest, ::testing::Values(1u, 7u, 42u, 1000u));

TEST(LayeredRandom, DeterministicPerSeed) {
    workload::LayeredDagParams params;
    params.n = 80;
    Rng a(5);
    Rng b(5);
    EXPECT_EQ(workload::layered_random(params, a), workload::layered_random(params, b));
}

TEST(LayeredRandom, AlphaControlsShape) {
    workload::LayeredDagParams params;
    params.n = 400;
    Rng rng1(3);
    params.alpha = 0.3;  // tall
    const int tall = height(workload::layered_random(params, rng1));
    Rng rng2(3);
    params.alpha = 3.0;  // wide
    const int wide = height(workload::layered_random(params, rng2));
    EXPECT_GT(tall, wide);
}

TEST(GnpRandom, EdgeProbabilityControlsDensity) {
    workload::GnpDagParams params;
    params.n = 100;
    Rng rng1(9);
    params.edge_prob = 0.02;
    const auto sparse = workload::gnp_random(params, rng1).num_edges();
    Rng rng2(9);
    params.edge_prob = 0.2;
    const auto dense = workload::gnp_random(params, rng2).num_edges();
    EXPECT_GT(dense, sparse);
}

TEST(GnpRandom, ConnectIsolatedGuaranteesSingleSourceChainability) {
    workload::GnpDagParams params;
    params.n = 60;
    params.edge_prob = 0.01;
    Rng rng(11);
    const Dag dag = workload::gnp_random(params, rng);
    for (std::size_t v = 1; v < dag.num_tasks(); ++v) {
        EXPECT_GE(dag.in_degree(static_cast<TaskId>(v)), 1u);
    }
}

// ---------------------------------------------------------------------------
// Cost generation and CCR calibration.
// ---------------------------------------------------------------------------

TEST(MakeCostMatrix, BetaZeroIsHomogeneous) {
    Rng rng(1);
    const Dag dag = workload::chain(20);
    workload::CostParams params;
    params.beta = 0.0;
    params.num_procs = 4;
    const CostMatrix w = workload::make_cost_matrix(dag, params, rng);
    EXPECT_TRUE(w.is_homogeneous());
}

TEST(MakeCostMatrix, MeanTracksAvgExec) {
    Rng rng(2);
    const Dag dag = workload::independent(500);
    workload::CostParams params;
    params.avg_exec = 30.0;
    params.beta = 1.0;
    params.num_procs = 6;
    const CostMatrix w = workload::make_cost_matrix(dag, params, rng);
    double sum = 0.0;
    for (std::size_t v = 0; v < 500; ++v) sum += w.mean(static_cast<TaskId>(v));
    EXPECT_NEAR(sum / 500.0, 30.0, 1.5);
}

TEST(MakeCostMatrix, BetaBoundsRows) {
    Rng rng(3);
    Dag dag = workload::independent(50);
    workload::CostParams params;
    params.avg_exec = 10.0;
    params.beta = 0.5;
    params.num_procs = 8;
    const CostMatrix w = workload::make_cost_matrix(dag, params, rng);
    for (std::size_t v = 0; v < 50; ++v) {
        // Row spread is bounded by beta: max/min <= (1+b/2)/(1-b/2).
        const double ratio = w.max(static_cast<TaskId>(v)) / w.min(static_cast<TaskId>(v));
        EXPECT_LE(ratio, (1.0 + 0.25) / (1.0 - 0.25) + 1e-9);
    }
}

TEST(MakeCostMatrix, ConsistentModeGivesRelatedRows) {
    Rng rng(4);
    const Dag dag = workload::independent(10);
    workload::CostParams params;
    params.beta = 1.0;
    params.num_procs = 4;
    params.consistent = true;
    const CostMatrix w = workload::make_cost_matrix(dag, params, rng);
    // In the related-machines model every row is proportional to every other.
    for (std::size_t v = 1; v < 10; ++v) {
        const double r0 = w(static_cast<TaskId>(v), 0) / w(0, 0);
        for (std::size_t p = 1; p < 4; ++p) {
            EXPECT_NEAR(w(static_cast<TaskId>(v), static_cast<ProcId>(p)) /
                            w(0, static_cast<ProcId>(p)),
                        r0, 1e-9);
        }
    }
}

class CcrCalibrationTest : public ::testing::TestWithParam<double> {};

TEST_P(CcrCalibrationTest, RealizedCcrMatchesRequested) {
    const double ccr = GetParam();
    InstanceParams params;
    params.shape = Shape::kLayered;
    params.size = 120;
    params.num_procs = 8;
    params.ccr = ccr;
    const Problem problem = workload::make_instance(params, 7);
    EXPECT_NEAR(problem.realized_ccr(), ccr, ccr * 0.01 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ccrs, CcrCalibrationTest, ::testing::Values(0.1, 0.5, 1.0, 2.0, 10.0));

TEST(CalibrateCcr, LatencyFloorClampsToZeroData) {
    Dag dag = workload::chain(3);
    const UniformLinkModel links(100.0, 1.0);  // huge latency
    // Target mean comm 1 with latency 100: impossible; data must drop to 0.
    workload::calibrate_ccr(dag, links, 4, 0.05, 20.0);
    EXPECT_DOUBLE_EQ(dag.total_data(), 0.0);
}

TEST(CalibrateCcr, PreservesRelativeDataSizes) {
    DagBuilder builder(3);
    builder.add_edge(0, 1, 2.0);
    builder.add_edge(1, 2, 6.0);
    Dag dag = std::move(builder).build();
    const UniformLinkModel links(0.0, 1.0);
    workload::calibrate_ccr(dag, links, 4, 2.0, 10.0);
    EXPECT_NEAR(dag.edge_data(1, 2) / dag.edge_data(0, 1), 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Instance factory.
// ---------------------------------------------------------------------------

TEST(MakeInstance, DeterministicPerSeed) {
    InstanceParams params;
    params.size = 70;
    const Problem a = workload::make_instance(params, 123);
    const Problem b = workload::make_instance(params, 123);
    EXPECT_EQ(a.dag(), b.dag());
    for (std::size_t v = 0; v < a.num_tasks(); ++v) {
        for (std::size_t p = 0; p < a.num_procs(); ++p) {
            EXPECT_DOUBLE_EQ(a.exec_time(static_cast<TaskId>(v), static_cast<ProcId>(p)),
                             b.exec_time(static_cast<TaskId>(v), static_cast<ProcId>(p)));
        }
    }
    const Problem c = workload::make_instance(params, 124);
    EXPECT_FALSE(a.dag() == c.dag());
}

TEST(MakeInstance, AllShapesProduceValidProblems) {
    for (const Shape shape :
         {Shape::kLayered, Shape::kGnp, Shape::kGauss, Shape::kFft, Shape::kLaplace,
          Shape::kCholesky, Shape::kLu, Shape::kForkJoin, Shape::kOutTree, Shape::kInTree,
          Shape::kChain, Shape::kDiamond, Shape::kStencil, Shape::kMontage}) {
        InstanceParams params;
        params.shape = shape;
        if (shape == Shape::kFft) {
            params.size = 8;
        } else if (shape == Shape::kOutTree || shape == Shape::kInTree) {
            params.size = 3;
        } else {
            params.size = 6;
        }
        params.num_procs = 4;
        const Problem problem = workload::make_instance(params, 5);
        EXPECT_EQ(problem.dag().validate(), "") << workload::shape_name(shape);
        EXPECT_GT(problem.num_tasks(), 0u) << workload::shape_name(shape);
        EXPECT_GT(problem.cp_lower_bound(), 0.0) << workload::shape_name(shape);
    }
}

TEST(MakeInstance, NetworkVariants) {
    for (const workload::Net net :
         {workload::Net::kUniform, workload::Net::kBus, workload::Net::kRing,
          workload::Net::kMesh2d, workload::Net::kHypercube, workload::Net::kStar}) {
        InstanceParams params;
        params.size = 30;
        params.num_procs = 8;
        params.net = net;
        params.latency = 0.1;
        const Problem problem = workload::make_instance(params, 3);
        EXPECT_EQ(problem.num_procs(), 8u) << workload::net_name(net);
    }
    InstanceParams bad;
    bad.net = workload::Net::kHypercube;
    bad.num_procs = 6;  // not a power of two
    EXPECT_THROW((void)workload::make_instance(bad, 1), std::invalid_argument);
}

TEST(ShapeAndNetNames, RoundTrip) {
    EXPECT_EQ(workload::shape_from_name("gauss"), Shape::kGauss);
    EXPECT_EQ(workload::net_from_name("mesh2d"), workload::Net::kMesh2d);
    EXPECT_THROW((void)workload::shape_from_name("nope"), std::invalid_argument);
    EXPECT_THROW((void)workload::net_from_name("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace tsched
