// Per-processor busy-interval timeline with a bucketed gap index.
//
// ScheduleBuilder's insertion-based earliest_start used to walk every busy
// interval past the data-ready point; on big DAGs (10k+ tasks, thousands of
// intervals per processor) that linear scan dominates scheduling time.  This
// class keeps the intervals in fixed-capacity blocks, each summarised by its
// largest internal idle gap and latest finish, so a query can skip a whole
// block with one comparison when no gap inside it could possibly host the
// task.
//
// Byte-identity contract (the repo's golden batteries depend on it): the
// bucketed query returns exactly the start the linear scan would.  Candidate
// fits are always decided by the same floating-point test the linear scan
// uses (`fl(candidate + duration) <= start_i`); the block summary is only a
// conservative *screen*.  A block is skipped only when
//
//     duration > max_gap + 4·eps·(max_finish + |max_gap|) + 1e-300
//
// where max_gap is the largest raw internal gap (start_i − finish_{i−1}) in
// the block.  Any interval fit implies duration ≤ raw_gap + ulp(start)/2 +
// ulp(gap)/2 under round-to-nearest, which the margin above strictly
// dominates (ulp(x) ≤ 2·eps·|x| and both magnitudes are bounded by the
// block's max_finish) — so a skipped block provably contains no fit, and a
// block that might contain one is scanned with the exact per-interval test.
//
// The screen is applied *first*, to the block holding the data-ready cut as
// well: the in-block binary search for the cut runs only when the screen
// admits a fit.  A rejected cut block answers without it — by the exact test
// on the boundary gap before the block when the cut is the block's first
// interval, and otherwise by moving on to the next block.  The second case
// is exact because rounded addition is monotone: the cut's candidate c is at
// least the finish f of the interval before it, so fl(c + d) ≥ fl(f + d) and
// the screen's no-fit proof for the internal gap at f covers c too.
//
// Like the linear scan's binary-search cut, the query assumes a *feasible*
// timeline (sorted, non-overlapping intervals, hence non-decreasing
// finishes).  insert/erase make no such assumption — speculative duplication
// commits may overlap — matching the old flat-vector semantics exactly:
// insert lands before any equal-start run, erase scans the run for the exact
// (start, finish) pair.  tests/test_big_n.cpp checks queries against a
// brute-force scan and whole schedules against digests recorded from the
// linear implementation.
#pragma once

#include <cstddef>
#include <vector>

namespace tsched {

/// One busy interval [start, finish) on a processor.
struct BusyInterval {
    double start = 0.0;
    double finish = 0.0;
};

class BusyTimeline {
public:
    /// Blocks split when they exceed twice this capacity; ~64 keeps a block
    /// within a couple of cache lines of summaries per thousand intervals
    /// while the in-block scan stays short.  Tests use tiny capacities to
    /// force deep block structure on small inputs.
    static constexpr std::size_t kDefaultBlockCapacity = 64;

    explicit BusyTimeline(std::size_t block_capacity = kDefaultBlockCapacity);

    // Query tallies (probes, skipped blocks/intervals) accumulate in plain
    // per-object fields and reach the global trace counters once, at
    // destruction: a hot schedule issues ~10 probe decisions per query and
    // one relaxed atomic add per decision was measurable at n = 10k.  The
    // custom special members keep the pending tallies with exactly one owner
    // so nothing is flushed twice.  Like the builder's data-ready cache,
    // the tallies make const queries non-thread-safe per object.
    BusyTimeline(const BusyTimeline& other);
    BusyTimeline& operator=(const BusyTimeline& other);
    BusyTimeline(BusyTimeline&& other) noexcept;
    BusyTimeline& operator=(BusyTimeline&& other) noexcept;
    ~BusyTimeline();

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Finish of the last interval in start order (0 when empty): the
    /// processor-available time used by append (non-insertion) placement.
    [[nodiscard]] double last_finish() const noexcept;

    /// Start of the first gap at or after `ready` that fits `duration`,
    /// byte-identical to the linear scan.  Precondition: feasible timeline.
    [[nodiscard]] double earliest_start(double ready, double duration) const;

    /// Insert before any run of equal starts (flat-order position).
    void insert(BusyInterval iv);

    /// Remove the exact (start, finish) interval; false when absent.
    [[nodiscard]] bool erase(BusyInterval iv);

    /// All intervals in flat order (tests and diagnostics).
    [[nodiscard]] std::vector<BusyInterval> flatten() const;

    /// Number of storage blocks (tests assert splits).
    [[nodiscard]] std::size_t num_blocks() const noexcept { return blocks_.size(); }

private:
    struct Block {
        std::vector<BusyInterval> iv;
        double max_finish = 0.0;   ///< max finish within the block
        double max_gap = 0.0;      ///< max raw internal gap start_i − finish_{i−1}
        double first_start = 0.0;  ///< iv.front().start — lets the query walk
                                   ///< skipped blocks on summaries alone
    };

    static void rebuild_summary(Block& b);
    void split_block(std::size_t bi);
    void flush_tallies() noexcept;

    std::size_t block_capacity_;
    std::vector<Block> blocks_;  // non-empty blocks in flat order
    std::size_t size_ = 0;

    // Pending trace-counter deltas, flushed at destruction (see above).
    mutable std::size_t probes_pending_ = 0;
    mutable std::size_t blocks_skipped_pending_ = 0;
    mutable std::size_t intervals_skipped_pending_ = 0;
};

}  // namespace tsched
