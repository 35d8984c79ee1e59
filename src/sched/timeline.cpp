#include "sched/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "trace/trace.hpp"

namespace tsched {

namespace {

/// Conservative screen slack (header has the derivation): any interval fit
/// inside the block implies duration ≤ max_gap + this.
double screen_slack(double max_finish, double max_gap) {
    return 4.0 * std::numeric_limits<double>::epsilon() * (max_finish + std::fabs(max_gap)) +
           1e-300;
}

}  // namespace

BusyTimeline::BusyTimeline(std::size_t block_capacity) : block_capacity_(block_capacity) {
    if (block_capacity_ == 0) {
        throw std::invalid_argument("BusyTimeline: block capacity must be positive");
    }
}

// Copies do not inherit pending tallies (the counts stay attributed to the
// queried object); moves transfer them so exactly one owner flushes.

BusyTimeline::BusyTimeline(const BusyTimeline& other)
    : block_capacity_(other.block_capacity_),
      blocks_(other.blocks_),
      size_(other.size_) {}

BusyTimeline& BusyTimeline::operator=(const BusyTimeline& other) {
    if (this != &other) {
        flush_tallies();
        block_capacity_ = other.block_capacity_;
        blocks_ = other.blocks_;
        size_ = other.size_;
    }
    return *this;
}

BusyTimeline::BusyTimeline(BusyTimeline&& other) noexcept
    : block_capacity_(other.block_capacity_),
      blocks_(std::move(other.blocks_)),
      size_(other.size_),
      probes_pending_(other.probes_pending_),
      blocks_skipped_pending_(other.blocks_skipped_pending_),
      intervals_skipped_pending_(other.intervals_skipped_pending_) {
    other.size_ = 0;
    other.probes_pending_ = 0;
    other.blocks_skipped_pending_ = 0;
    other.intervals_skipped_pending_ = 0;
}

BusyTimeline& BusyTimeline::operator=(BusyTimeline&& other) noexcept {
    if (this != &other) {
        flush_tallies();
        block_capacity_ = other.block_capacity_;
        blocks_ = std::move(other.blocks_);
        size_ = other.size_;
        probes_pending_ = other.probes_pending_;
        blocks_skipped_pending_ = other.blocks_skipped_pending_;
        intervals_skipped_pending_ = other.intervals_skipped_pending_;
        other.size_ = 0;
        other.probes_pending_ = 0;
        other.blocks_skipped_pending_ = 0;
        other.intervals_skipped_pending_ = 0;
    }
    return *this;
}

BusyTimeline::~BusyTimeline() { flush_tallies(); }

void BusyTimeline::flush_tallies() noexcept {
    if (probes_pending_ != 0) TSCHED_COUNT_ADD("insertion_probes", probes_pending_);
    if (blocks_skipped_pending_ != 0) {
        TSCHED_COUNT_ADD("timeline_blocks_skipped", blocks_skipped_pending_);
    }
    if (intervals_skipped_pending_ != 0) {
        TSCHED_COUNT_ADD("timeline_intervals_skipped", intervals_skipped_pending_);
    }
    probes_pending_ = 0;
    blocks_skipped_pending_ = 0;
    intervals_skipped_pending_ = 0;
}

double BusyTimeline::last_finish() const noexcept {
    return blocks_.empty() ? 0.0 : blocks_.back().iv.back().finish;
}

double BusyTimeline::earliest_start(double ready, double duration) const {
    // Reproduce the linear scan's starting cut at block granularity.  On a
    // feasible timeline each block's max_finish is its last interval's
    // finish and block max_finishes are non-decreasing, so the first block
    // with max_finish > ready holds the linear lower_bound position.
    // List-scheduling queries cluster at the timeline tail, so resolve the
    // two dominant cases with direct last-block checks before paying for the
    // block binary search (each branch reproduces exactly what the
    // partition_point below would have decided).
    const std::size_t nb = blocks_.size();
    if (nb == 0 || blocks_[nb - 1].max_finish <= ready) {
        // Every interval finishes at or before `ready` (or the timeline is
        // empty): the task goes after the last finish, clamped to `ready`.
        ++probes_pending_;
        return std::max(last_finish(), ready);
    }
    std::size_t bi;
    if (nb == 1 || blocks_[nb - 2].max_finish <= ready) {
        bi = nb - 1;  // the cut lands in the last block
    } else {
        const auto b0_it = std::partition_point(
            blocks_.begin(), blocks_.end(),
            [ready](const Block& b) { return b.max_finish <= ready; });
        bi = static_cast<std::size_t>(b0_it - blocks_.begin());
    }

    // Decide the cut block on its summary first: the in-block lower_bound
    // only pays off when the max_gap screen admits a fit.  When the screen
    // rejects, only the boundary gap before the block can host the task, and
    // only when the cut is the block's first interval (on a feasible
    // timeline, exactly when iv.front().finish > ready, i.e. the
    // lower_bound would return 0).  A cut past the first interval starts its
    // candidate at c ≥ finish_{i−1} of an internal gap, and rounded addition
    // is monotone, fl(c + d) ≥ fl(finish_{i−1} + d), so the screen's no-fit
    // proof still covers that candidate: the walk moves on to the next block
    // exactly as the probe-then-skip would have.
    const auto screen_admits = [duration](const Block& b) {
        return duration <= b.max_gap + screen_slack(b.max_finish, b.max_gap);
    };
    double gap_start = bi == 0 ? 0.0 : blocks_[bi - 1].iv.back().finish;
    std::size_t idx = 0;
    const Block& cut_blk = blocks_[bi];
    if (screen_admits(cut_blk)) {
        // In-block lower_bound: the cut lands strictly inside the block
        // because a feasible block's max_finish is its last interval's
        // finish and the partition point guaranteed max_finish > ready.
        const std::vector<BusyInterval>& head = cut_blk.iv;
        const auto cut = std::lower_bound(
            head.begin(), head.end(), ready,
            [](const BusyInterval& a, double t) { return a.finish <= t; });
        idx = static_cast<std::size_t>(cut - head.begin());
        if (idx > 0) gap_start = head[idx - 1].finish;
    } else if (cut_blk.iv.front().finish <= ready) {
        ++blocks_skipped_pending_;
        intervals_skipped_pending_ += cut_blk.iv.size();
        gap_start = cut_blk.max_finish;
        ++bi;
    }

    // Walk blocks from the cut.  Each iteration first decides the *boundary*
    // gap (between the running gap_start and the block's first unscanned
    // interval) exactly; every remaining gap in the block is internal, so
    // the max_gap screen covers it — including the partial first block,
    // whose suffix gaps are all internal too.  Past the cut interval every
    // finish exceeds `ready` (non-decreasing finishes), so the max() clamp
    // is only ever active on the boundary probe of the first iteration and
    // skipping a block cannot change any later candidate.
    // On a feasible timeline a skipped block's last finish equals its
    // max_finish and its first interval's start is the cached first_start,
    // so the skip path below touches only the 3-double summary — never the
    // block's interval storage.  idx > 0 only on a cut block the screen
    // admitted above, so a screen-rejected block is always entered at its
    // first interval.
    for (; bi < blocks_.size(); ++bi, idx = 0) {
        const Block& blk = blocks_[bi];
        if (!screen_admits(blk)) {
            ++probes_pending_;
            const double candidate = std::max(gap_start, ready);
            if (candidate + duration <= blk.first_start) return candidate;
            ++blocks_skipped_pending_;
            intervals_skipped_pending_ += blk.iv.size();
            gap_start = blk.max_finish;
            continue;
        }
        for (std::size_t i = idx; i < blk.iv.size(); ++i) {
            ++probes_pending_;
            const double candidate = std::max(gap_start, ready);
            if (candidate + duration <= blk.iv[i].start) return candidate;
            gap_start = blk.iv[i].finish;
        }
    }
    ++probes_pending_;
    return std::max(gap_start, ready);
}

void BusyTimeline::insert(BusyInterval iv) {
    if (blocks_.empty()) {
        blocks_.emplace_back();
        blocks_.back().iv.push_back(iv);
        blocks_.back().max_finish = iv.finish;
        blocks_.back().first_start = iv.start;
        ++size_;
        return;
    }
    // First block whose last start is >= iv.start owns the flat-order
    // position (insertion lands *before* any equal-start run, matching the
    // old flat lower_bound); when none qualifies the interval appends to the
    // last block.  Appends past every existing start dominate list
    // scheduling, so that case skips the block binary search (block back
    // starts are non-decreasing in flat order, making the single comparison
    // equivalent to the full partition_point).
    std::size_t bi;
    if (blocks_.back().iv.back().start < iv.start) {
        bi = blocks_.size() - 1;
    } else {
        const auto owner = std::partition_point(
            blocks_.begin(), blocks_.end(),
            [&iv](const Block& b) { return b.iv.back().start < iv.start; });
        bi = static_cast<std::size_t>(owner - blocks_.begin());
    }
    std::vector<BusyInterval>& dst = blocks_[bi].iv;
    const auto pos = std::lower_bound(
        dst.begin(), dst.end(), iv,
        [](const BusyInterval& a, const BusyInterval& b) { return a.start < b.start; });
    const auto p = static_cast<std::size_t>(pos - dst.begin());
    dst.insert(pos, iv);
    ++size_;
    if (dst.size() > 2 * block_capacity_) {
        split_block(bi);
        return;
    }
    // Incremental summary update (exact, not an approximation): inserting at
    // p removes the internal gap (p-1, p+1) — when both neighbours exist —
    // and adds the gaps on either side of the new interval.  Only when the
    // removed gap was the block maximum can the maximum shrink, and only
    // then is the O(block) rescan needed; the common append path is O(1).
    Block& blk = blocks_[bi];
    constexpr double kNoGap = -std::numeric_limits<double>::infinity();
    const double g1 = p > 0 ? iv.start - dst[p - 1].finish : kNoGap;
    const double g2 = p + 1 < dst.size() ? dst[p + 1].start - iv.finish : kNoGap;
    const double removed =
        (p > 0 && p + 1 < dst.size()) ? dst[p + 1].start - dst[p - 1].finish : kNoGap;
    if (removed == blk.max_gap && removed > std::max(g1, g2)) {
        rebuild_summary(blk);
    } else {
        blk.max_finish = std::max(blk.max_finish, iv.finish);
        blk.max_gap = std::max({blk.max_gap, g1, g2});
        if (p == 0) blk.first_start = iv.start;
    }
}

bool BusyTimeline::erase(BusyInterval iv) {
    // Walk the equal-start run exactly as the flat erase did; the run may
    // cross block boundaries when speculative commits stacked intervals at
    // one start.
    auto first = std::partition_point(
        blocks_.begin(), blocks_.end(),
        [&iv](const Block& b) { return b.iv.back().start < iv.start; });
    for (auto blk = first; blk != blocks_.end(); ++blk) {
        std::vector<BusyInterval>& ivs = blk->iv;
        std::size_t pos = 0;
        if (blk == first) {
            pos = static_cast<std::size_t>(
                std::lower_bound(ivs.begin(), ivs.end(), iv,
                                 [](const BusyInterval& a, const BusyInterval& b) {
                                     return a.start < b.start;
                                 }) -
                ivs.begin());
        }
        for (; pos < ivs.size() && ivs[pos].start == iv.start; ++pos) {
            if (ivs[pos].finish == iv.finish) {
                // Pre-erase neighbours, for the incremental summary update.
                const std::size_t n0 = ivs.size();
                const BusyInterval removed = ivs[pos];
                const double prev_finish = pos > 0 ? ivs[pos - 1].finish : 0.0;
                const double next_start = pos + 1 < n0 ? ivs[pos + 1].start : 0.0;
                ivs.erase(ivs.begin() + static_cast<std::ptrdiff_t>(pos));
                --size_;
                if (ivs.empty()) {
                    blocks_.erase(blk);
                } else {
                    // Incremental summary maintenance; rollback erases are as
                    // hot as inserts, and the unconditional O(block) rescan
                    // this replaces dominated the duplication schedulers'
                    // profile at n = 10k.  Erasing at `pos` merges the gaps
                    // on either side into one at least as large, so max_gap
                    // only needs the O(block) rescan when a *boundary* erase
                    // removes a positive gap that was the block maximum.
                    // max_finish is exact under the same feasibility
                    // precondition the query already assumes (sorted,
                    // non-overlapping, hence the tail interval carries the
                    // block's max finish).
                    Block& b = *blk;
                    bool rescan = false;
                    if (removed.finish == b.max_finish) {
                        if (pos == n0 - 1) {
                            b.max_finish = ivs.back().finish;
                        } else {
                            rescan = true;  // mid-block max finish: infeasible
                                            // shape, fall back to the rescan
                        }
                    }
                    if (!rescan) {
                        if (pos > 0 && pos < n0 - 1) {
                            // Interior: the merged gap dominates both removed
                            // gaps, so a plain max is exact.
                            b.max_gap = std::max(b.max_gap, next_start - prev_finish);
                        } else if (pos == 0) {
                            const double g = next_start - removed.finish;
                            if (g == b.max_gap && b.max_gap > 0.0) {
                                rescan = true;
                            } else {
                                b.first_start = ivs.front().start;
                            }
                        } else {  // tail erase
                            const double g = removed.start - prev_finish;
                            if (g == b.max_gap && b.max_gap > 0.0) rescan = true;
                        }
                    }
                    if (rescan) rebuild_summary(b);
                }
                return true;
            }
        }
        if (pos < ivs.size()) return false;  // run ended inside this block
    }
    return false;
}

std::vector<BusyInterval> BusyTimeline::flatten() const {
    std::vector<BusyInterval> out;
    out.reserve(size_);
    for (const Block& b : blocks_) out.insert(out.end(), b.iv.begin(), b.iv.end());
    return out;
}

void BusyTimeline::rebuild_summary(Block& b) {
    double max_finish = 0.0;
    double max_gap = 0.0;
    for (std::size_t i = 0; i < b.iv.size(); ++i) {
        max_finish = std::max(max_finish, b.iv[i].finish);
        if (i > 0) max_gap = std::max(max_gap, b.iv[i].start - b.iv[i - 1].finish);
    }
    b.max_finish = max_finish;
    b.max_gap = max_gap;
    b.first_start = b.iv.empty() ? 0.0 : b.iv.front().start;
}

void BusyTimeline::split_block(std::size_t bi) {
    std::vector<BusyInterval>& left = blocks_[bi].iv;
    const std::size_t half = left.size() / 2;
    Block right;
    right.iv.assign(left.begin() + static_cast<std::ptrdiff_t>(half), left.end());
    left.erase(left.begin() + static_cast<std::ptrdiff_t>(half), left.end());
    rebuild_summary(blocks_[bi]);
    rebuild_summary(right);
    blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(bi) + 1, std::move(right));
}

}  // namespace tsched
