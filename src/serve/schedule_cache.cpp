#include "serve/schedule_cache.hpp"

#include <string>
#include <utility>

namespace tsched::serve {

ScheduleCache::ScheduleCache(std::size_t capacity, std::size_t shards)
    : lru_(capacity, shards) {}

std::shared_ptr<const Schedule> ScheduleCache::get(std::uint64_t key) {
    return lru_.find(key, /*counted=*/true);
}

std::shared_ptr<const Schedule> ScheduleCache::peek(std::uint64_t key) {
    return lru_.find(key, /*counted=*/false);
}

void ScheduleCache::put(std::uint64_t key, std::shared_ptr<const Schedule> value) {
    lru_.insert(key, std::move(value));
}

void ScheduleCache::metrics_into(obs::MetricsSnapshot& out) const {
    const CacheStats total = stats();
    out.counters.push_back({"serve/cache/hits", {}, total.hits});
    out.counters.push_back({"serve/cache/misses", {}, total.misses});
    out.counters.push_back({"serve/cache/evictions", {}, total.evictions});
    out.gauges.push_back({"serve/cache/hit_rate", {}, total.hit_rate()});
    out.gauges.push_back({"serve/cache/size", {}, static_cast<double>(total.size)});
    out.gauges.push_back(
        {"serve/cache/capacity", {}, static_cast<double>(lru_.capacity())});
    for (std::size_t s = 0; s < lru_.num_shards(); ++s) {
        obs::Labels labels{{"shard", std::to_string(s)}};
        out.gauges.push_back({"serve/cache/shard_occupancy", labels,
                              static_cast<double>(lru_.occupancy(s))});
        out.gauges.push_back({"serve/cache/shard_capacity", std::move(labels),
                              static_cast<double>(lru_.shard_capacity(s))});
    }
}

}  // namespace tsched::serve
