// Content-addressed schedule cache: LRU with sharded locks.
//
// Maps request fingerprints (serve/request.hpp) to immutable, shared
// Schedule results.  Storage, sharding, eviction and the lock discipline are
// ShardedLru's (serve/sharded_lru.hpp): capacity is split evenly across a
// power-of-two number of shards, each with its own mutex, map and LRU list,
// so total residency is bounded by `capacity` and eviction is O(1) and
// lock-local.
//
// Values are shared_ptr<const Schedule>: a hit hands back the *same object*
// the cold computation produced, so a cached answer is bit-identical to the
// cold one by construction (the determinism tests also pin this through the
// TSS serializer).
//
// peek() is *counter-neutral*, not lock-free: it takes the shard mutex like
// every other operation (there is no unsynchronized fast path), but records
// no hit/miss counter and no trace event, so the serve engine's
// double-checked lookup costs one counted cache operation per request.  It
// still refreshes recency on a hit.
//
// Every counted operation feeds both the per-shard counters (stats(), usable
// in any build) and the process-wide trace registry via TSCHED_COUNT
// ("serve/cache_hits", "serve/cache_misses", "serve/cache_evictions") so
// `tsched_serve --counters` and bench trace dumps see cache behaviour.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"
#include "sched/schedule.hpp"
#include "serve/sharded_lru.hpp"

namespace tsched::serve {

class ScheduleCache {
public:
    /// `capacity` is the total entry budget across all shards (min 1 per
    /// shard); `shards` must be > 0 and is rounded down to a power of two
    /// so shard selection is a mask, not a division.
    explicit ScheduleCache(std::size_t capacity, std::size_t shards = 8);

    /// Look up a fingerprint; returns nullptr (and counts a miss) when
    /// absent.  A hit refreshes the entry's recency.
    [[nodiscard]] std::shared_ptr<const Schedule> get(std::uint64_t key);

    /// Counter-neutral lookup: takes the shard lock like get() but records
    /// no hit/miss counters — the serve engine's double-checked lookup uses
    /// this so one request never counts two cache operations.  Still
    /// refreshes recency on a hit.
    [[nodiscard]] std::shared_ptr<const Schedule> peek(std::uint64_t key);

    /// Insert or overwrite; evicts the shard's least-recently-used entry
    /// when the shard is over budget.
    void put(std::uint64_t key, std::shared_ptr<const Schedule> value);

    [[nodiscard]] std::size_t capacity() const noexcept { return lru_.capacity(); }
    [[nodiscard]] std::size_t num_shards() const noexcept { return lru_.num_shards(); }

    /// Point-in-time totals across shards.  Each shard's contribution is
    /// internally consistent (read under that shard's lock); the cross-shard
    /// sum is only as coherent as sequential per-shard sampling can be.
    [[nodiscard]] CacheStats stats() const { return lru_.stats(); }

    /// Append this cache's obs fragment to `out` (DESIGN §14): the
    /// hits/misses/evictions counters, a cache-operation hit-rate gauge, and
    /// per-shard occupancy gauges labelled {shard=<i>} plus the shard's
    /// budget, so a collector can see skew across shards, not just totals.
    /// The caller merges fragments from every component and sorts once.
    void metrics_into(obs::MetricsSnapshot& out) const;

private:
    ShardedLru<Schedule> lru_;
};

}  // namespace tsched::serve
