#include "workload/random_dag.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tsched::workload {

namespace {
void check_common(std::size_t n, double work_min, double work_max, double data_min,
                  double data_max) {
    if (n == 0) throw std::invalid_argument("random dag: n must be >= 1");
    if (!(work_min > 0.0) || !(work_max >= work_min)) {
        throw std::invalid_argument("random dag: need 0 < work_min <= work_max");
    }
    if (!(data_min >= 0.0) || !(data_max >= data_min)) {
        throw std::invalid_argument("random dag: need 0 <= data_min <= data_max");
    }
}
}  // namespace

Dag layered_random(const LayeredDagParams& params, Rng& rng) {
    check_common(params.n, params.work_min, params.work_max, params.data_min, params.data_max);
    if (!(params.alpha > 0.0)) throw std::invalid_argument("layered_random: alpha must be > 0");
    if (params.max_out_degree == 0 || params.max_jump == 0) {
        throw std::invalid_argument("layered_random: max_out_degree and max_jump must be >= 1");
    }

    // Carve n tasks into levels: the mean width is alpha * sqrt(n); each
    // level's width is drawn uniformly from [1, 2 * mean_width - 1] so the
    // expected height is sqrt(n) / alpha.
    const double mean_width = std::max(1.0, params.alpha * std::sqrt(static_cast<double>(params.n)));
    std::vector<std::size_t> level_sizes;
    std::size_t assigned = 0;
    while (assigned < params.n) {
        const auto max_w = static_cast<std::int64_t>(std::max(1.0, 2.0 * mean_width - 1.0));
        auto width = static_cast<std::size_t>(rng.uniform_int(1, max_w));
        width = std::min(width, params.n - assigned);
        level_sizes.push_back(width);
        assigned += width;
    }

    DagBuilder b;
    std::vector<std::vector<TaskId>> levels(level_sizes.size());
    for (std::size_t l = 0; l < level_sizes.size(); ++l) {
        levels[l].reserve(level_sizes[l]);
        for (std::size_t i = 0; i < level_sizes[l]; ++i) {
            const double work = rng.uniform(params.work_min, params.work_max);
            levels[l].push_back(b.add_task(work));
        }
    }

    auto rand_data = [&] { return rng.uniform(params.data_min, params.data_max); };

    // Forward edges: each task draws up to max_out_degree successors from the
    // next max_jump levels.
    for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
        std::vector<TaskId> pool;
        for (std::size_t j = l + 1; j < std::min(levels.size(), l + 1 + params.max_jump); ++j) {
            pool.insert(pool.end(), levels[j].begin(), levels[j].end());
        }
        for (const TaskId u : levels[l]) {
            const auto want = static_cast<std::size_t>(
                rng.uniform_int(1, static_cast<std::int64_t>(params.max_out_degree)));
            const std::size_t degree = std::min(want, pool.size());
            // Partial Fisher–Yates over a scratch copy: first `degree`
            // entries become the sampled successors.
            std::vector<TaskId> scratch = pool;
            for (std::size_t i = 0; i < degree; ++i) {
                const auto j = static_cast<std::size_t>(
                    rng.uniform_int(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(scratch.size() - 1)));
                std::swap(scratch[i], scratch[j]);
                b.add_edge(u, scratch[i], rand_data());
            }
        }
    }

    // Connectivity repair: every task beyond level 0 needs a predecessor so
    // the graph has no accidental extra sources.
    for (std::size_t l = 1; l < levels.size(); ++l) {
        for (const TaskId v : levels[l]) {
            if (b.in_degree(v) > 0) continue;
            const auto& prev = levels[l - 1];
            const auto pick = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(prev.size() - 1)));
            b.add_edge(prev[pick], v, rand_data());
        }
    }
    return std::move(b).build();
}

Dag gnp_random(const GnpDagParams& params, Rng& rng) {
    check_common(params.n, params.work_min, params.work_max, params.data_min, params.data_max);
    if (!(params.edge_prob >= 0.0 && params.edge_prob <= 1.0)) {
        throw std::invalid_argument("gnp_random: edge_prob must be in [0, 1]");
    }
    DagBuilder b;
    for (std::size_t i = 0; i < params.n; ++i) {
        b.add_task(rng.uniform(params.work_min, params.work_max));
    }
    for (std::size_t u = 0; u < params.n; ++u) {
        for (std::size_t v = u + 1; v < params.n; ++v) {
            if (rng.bernoulli(params.edge_prob)) {
                b.add_edge(static_cast<TaskId>(u), static_cast<TaskId>(v),
                             rng.uniform(params.data_min, params.data_max));
            }
        }
    }
    if (params.connect_isolated) {
        for (std::size_t v = 1; v < params.n; ++v) {
            if (b.in_degree(static_cast<TaskId>(v)) == 0) {
                const auto u = static_cast<TaskId>(
                    rng.uniform_int(0, static_cast<std::int64_t>(v - 1)));
                b.add_edge(u, static_cast<TaskId>(v),
                             rng.uniform(params.data_min, params.data_max));
            }
        }
    }
    return std::move(b).build();
}

}  // namespace tsched::workload
