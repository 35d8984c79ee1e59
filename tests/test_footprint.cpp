// Heap footprint of a Problem: what make_instance leaves allocated, against
// the byte budget DESIGN.md gives for it (each fact stored once).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <cstdio>
#include <optional>

#include "platform/problem.hpp"
#include "workload/instance.hpp"

// Live-heap counter: this binary replaces the global operator new/delete.
// Each block carries a header with its size and whether it was allocated
// while `counting` was set, so a block freed later is subtracted exactly
// once and blocks from before the window are ignored.
namespace {
std::atomic<bool> counting{false};
std::atomic<std::ptrdiff_t> live_bytes{0};
std::atomic<std::ptrdiff_t> live_blocks{0};

struct alignas(std::max_align_t) BlockHeader {
    std::size_t size;
    bool counted;
};
}  // namespace

void* operator new(std::size_t size) {
    auto* header = static_cast<BlockHeader*>(std::malloc(sizeof(BlockHeader) + size));
    if (header == nullptr) throw std::bad_alloc();
    header->size = size;
    header->counted = counting.load(std::memory_order_relaxed);
    if (header->counted) {
        live_bytes.fetch_add(static_cast<std::ptrdiff_t>(size), std::memory_order_relaxed);
        live_blocks.fetch_add(1, std::memory_order_relaxed);
    }
    return header + 1;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
    if (p == nullptr) return;
    BlockHeader* header = static_cast<BlockHeader*>(p) - 1;
    if (header->counted) {
        live_bytes.fetch_sub(static_cast<std::ptrdiff_t>(header->size), std::memory_order_relaxed);
        live_blocks.fetch_sub(1, std::memory_order_relaxed);
    }
    std::free(header);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace tsched::workload {
namespace {

struct Footprint {
    std::size_t bytes = 0;   ///< heap bytes the Problem keeps
    std::size_t blocks = 0;  ///< heap blocks the Problem keeps
    std::size_t budget = 0;  ///< n * (8P + 16) + 20E + name bytes
};

/// What a Problem built by make_instance keeps: every block allocated while
/// it was built and not freed by the time it is returned.
Footprint footprint(const InstanceParams& params, std::optional<Problem>& out) {
    out.reset();  // its blocks were counted in an earlier window
    live_bytes = 0;
    live_blocks = 0;
    counting = true;
    out.emplace(make_instance(params, 7));
    counting = false;
    const Problem& problem = *out;
    const Dag& dag = problem.dag();
    const std::size_t n = problem.num_tasks();
    const std::size_t p = problem.num_procs();
    std::size_t name_bytes = 0;
    if (dag.has_names()) {
        name_bytes = 4 * (n + 1);  // 32-bit offsets
        for (TaskId v = 0; v < static_cast<TaskId>(n); ++v) name_bytes += dag.name(v).size();
    }
    return {static_cast<std::size_t>(live_bytes.load()),
            static_cast<std::size_t>(live_blocks.load()),
            n * (8 * p + 16) + 20 * dag.num_edges() + name_bytes};
}

InstanceParams params_for(Shape shape, std::size_t size) {
    InstanceParams params;
    params.shape = shape;
    params.size = size;
    params.num_procs = 8;
    return params;
}

// The budget's terms: per task 8P cost bytes, 8 work bytes and two 32-bit
// CSR offsets; per edge a 32-bit target in each direction, one 8-byte data
// volume and a 32-bit predecessor edge index; names packed.  What is kept
// beyond it is a constant: the two closing CSR offsets, the machine's
// speeds and link model, and the shared-ownership control blocks.
constexpr std::size_t kFixedBytes = 512;

TEST(ProblemFootprint, LayeredN20000StaysWithinByteBudget) {
    std::optional<Problem> problem;
    const Footprint f = footprint(params_for(Shape::kLayered, 20000), problem);
    ASSERT_EQ(problem->num_tasks(), 20000u);
    EXPECT_GE(f.bytes, f.budget);
    EXPECT_LE(f.bytes, f.budget + kFixedBytes);
    // Recorded with libstdc++ when each fact came to be stored once (the
    // Problem before kept 3,671,672 bytes here); 64 bytes of slack for other
    // standard libraries' control-block and string sizes.
    EXPECT_LE(f.bytes, 2'659'744u + 64);
}

TEST(ProblemFootprint, GaussM199StaysWithinByteBudget) {
    std::optional<Problem> problem;
    const Footprint f = footprint(params_for(Shape::kGauss, 199), problem);
    ASSERT_EQ(problem->num_tasks(), 19899u);
    ASSERT_TRUE(problem->dag().has_names());
    EXPECT_GE(f.bytes, f.budget);
    EXPECT_LE(f.bytes, f.budget + kFixedBytes);
    EXPECT_LE(f.bytes, 2'596'515u + 64);  // recorded as above; before: 3,970,808
}

TEST(ProblemFootprint, HeapBlocksDoNotGrowWithSize) {
    // Every per-task and per-edge fact lives in a flat array, so a Problem
    // holds the same number of heap blocks at any size; names add two (the
    // packed characters and their offsets).
    std::optional<Problem> problem;
    const std::size_t small = footprint(params_for(Shape::kLayered, 200), problem).blocks;
    EXPECT_EQ(footprint(params_for(Shape::kLayered, 20000), problem).blocks, small);
    const std::size_t gauss = footprint(params_for(Shape::kGauss, 20), problem).blocks;
    EXPECT_EQ(footprint(params_for(Shape::kGauss, 199), problem).blocks, gauss);
    EXPECT_EQ(gauss, small + 2);
    EXPECT_LE(small, 16u);
}

}  // namespace
}  // namespace tsched::workload
