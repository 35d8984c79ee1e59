// ShardedLru: a bounded LRU map from 64-bit keys to shared immutable values,
// split across independently locked shards.
//
// The storage behind both serving-layer caches: ScheduleCache (fingerprint
// -> Schedule) and the ServeEngine's descriptor index (descriptor key ->
// fingerprint).  The key space is split across a power-of-two number of
// shards — each with its own mutex, hash map and LRU list — so concurrent
// lookups contend only when they land on the same shard.  Capacity is
// divided evenly across shards (each shard evicts its own least-recently-
// used entry when it overflows), which bounds total residency at
// `capacity` while keeping eviction O(1) and lock-local.
//
// Lock discipline (clang thread-safety checked, DESIGN §13): every mutable
// shard member — map, LRU list, *and* the hit/miss/eviction counters — is
// GUARDED_BY the shard mutex; the counters are plain integers, not atomics,
// because every touch already happens under the lock.  stats() reads each
// shard's counters and size under one lock hold, giving a per-shard-
// consistent snapshot.  Shards are never locked nested; cross-shard totals
// are sums of sequential per-shard snapshots.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace tsched::serve {

struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t size = 0;

    [[nodiscard]] double hit_rate() const noexcept {
        const std::uint64_t total = hits + misses;
        return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }
};

template <typename T>
class ShardedLru {
public:
    using Value = std::shared_ptr<const T>;

    /// `capacity` is the total entry budget across all shards (min 1 per
    /// shard); `shards` must be > 0 and is rounded down to a power of two
    /// so shard selection is a mask, not a division.
    ShardedLru(std::size_t capacity, std::size_t shards) : capacity_(capacity) {
        if (capacity == 0) throw std::invalid_argument("ShardedLru: capacity must be > 0");
        if (shards == 0) throw std::invalid_argument("ShardedLru: shards must be > 0");
        std::size_t count = 1;
        while (count * 2 <= shards) count *= 2;
        // Never allocate more shards than entries: each shard needs budget >= 1.
        while (count > 1 && count > capacity) count /= 2;
        shards_.reserve(count);
        for (std::size_t s = 0; s < count; ++s) {
            auto shard = std::make_unique<Shard>();
            // Split the budget evenly; earlier shards absorb the remainder.
            shard->capacity = capacity / count + (s < capacity % count ? 1 : 0);
            shards_.push_back(std::move(shard));
        }
    }

    /// Find `key` and refresh its recency; nullptr when absent.  `counted`
    /// records the outcome in the shard's hit/miss counters.
    [[nodiscard]] Value find(std::uint64_t key, bool counted) {
        Shard& shard = shard_for(key);
        LockGuard lock(shard.mutex);
        const auto it = shard.index.find(key);
        if (it == shard.index.end()) {
            if (counted) ++shard.misses;
            return nullptr;
        }
        if (counted) ++shard.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return it->second->second;
    }

    /// Insert or overwrite `key`; evicts (and counts) the shard's least-
    /// recently-used entry when the shard goes over budget.  Returns true
    /// when an eviction happened.
    bool insert(std::uint64_t key, Value value) {
        Shard& shard = shard_for(key);
        LockGuard lock(shard.mutex);
        if (const auto it = shard.index.find(key); it != shard.index.end()) {
            it->second->second = std::move(value);
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return false;
        }
        shard.lru.emplace_front(key, std::move(value));
        shard.index.emplace(key, shard.lru.begin());
        if (shard.lru.size() <= shard.capacity) return false;
        shard.index.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++shard.evictions;
        return true;
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }

    /// Entries resident in shard `s` (read under its lock).
    [[nodiscard]] std::size_t occupancy(std::size_t s) const {
        Shard& shard = *shards_[s];
        LockGuard lock(shard.mutex);
        return shard.lru.size();
    }
    /// Entry budget of shard `s`.
    [[nodiscard]] std::size_t shard_capacity(std::size_t s) const noexcept {
        return shards_[s]->capacity;
    }

    /// Point-in-time totals across shards (see the header comment).
    [[nodiscard]] CacheStats stats() const {
        CacheStats total;
        for (const auto& shard : shards_) {
            LockGuard lock(shard->mutex);
            total.hits += shard->hits;
            total.misses += shard->misses;
            total.evictions += shard->evictions;
            total.size += shard->lru.size();
        }
        return total;
    }

private:
    using Entry = std::pair<std::uint64_t, Value>;

    struct Shard {
        Mutex mutex;
        /// Most-recently-used at the front.
        std::list<Entry> lru TSCHED_GUARDED_BY(mutex);
        std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator> index
            TSCHED_GUARDED_BY(mutex);
        /// Entry budget; set once at construction, immutable afterwards.
        std::size_t capacity = 1;
        std::uint64_t hits TSCHED_GUARDED_BY(mutex) = 0;
        std::uint64_t misses TSCHED_GUARDED_BY(mutex) = 0;
        std::uint64_t evictions TSCHED_GUARDED_BY(mutex) = 0;
    };

    /// Finalizing mix (SplitMix64's) so nearby keys spread across shards
    /// even though FNV-1a's low bits are weakly mixed.
    [[nodiscard]] Shard& shard_for(std::uint64_t key) const noexcept {
        key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
        key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
        key ^= key >> 31;
        return *shards_[key & (shards_.size() - 1)];
    }

    std::size_t capacity_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tsched::serve
