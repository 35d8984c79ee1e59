#include "workload/structured.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsched::workload {

namespace {
/// Check n is a power of two >= 2 and return log2(n).
std::size_t log2_exact(std::size_t n, const char* what) {
    if (n < 2 || (n & (n - 1)) != 0) {
        throw std::invalid_argument(std::string(what) + ": size must be a power of two >= 2");
    }
    std::size_t k = 0;
    while ((static_cast<std::size_t>(1) << k) < n) ++k;
    return k;
}

// Task names are built by appending to one string: GCC 12 -O3 reports a
// false -Wrestrict overlap inside `"literal" + std::to_string(...)`.
std::string task_name(char prefix, std::size_t a) {
    std::string name(1, prefix);
    name += std::to_string(a);
    return name;
}

std::string task_name(char prefix, std::size_t a, std::size_t b) {
    std::string name = task_name(prefix, a);
    name += ',';
    name += std::to_string(b);
    return name;
}
}  // namespace

Dag gaussian_elimination(std::size_t m) {
    if (m < 2) throw std::invalid_argument("gaussian_elimination: m must be >= 2");
    DagBuilder b;
    // pivot[k] and update[k][j - (k+1)] hold the TaskIds of step k.
    std::vector<TaskId> pivot(m - 1, kInvalidTask);
    std::vector<std::vector<TaskId>> update(m - 1);
    for (std::size_t k = 0; k + 1 < m; ++k) {
        pivot[k] = b.add_task(1.0, task_name('P', k));
        update[k].reserve(m - 1 - k);
        for (std::size_t j = k + 1; j < m; ++j) {
            update[k].push_back(b.add_task(2.0, task_name('U', k, j)));
        }
    }
    for (std::size_t k = 0; k + 1 < m; ++k) {
        // Pivot feeds every update of its step.
        for (std::size_t j = k + 1; j < m; ++j) {
            b.add_edge(pivot[k], update[k][j - (k + 1)], 1.0);
        }
        if (k + 2 < m) {
            // First update of step k feeds the next pivot; the remaining
            // updates feed the same-column updates of the next step.
            b.add_edge(update[k][0], pivot[k + 1], 1.0);
            for (std::size_t j = k + 2; j < m; ++j) {
                b.add_edge(update[k][j - (k + 1)], update[k + 1][j - (k + 2)], 1.0);
            }
        }
    }
    return std::move(b).build();
}

Dag fft(std::size_t n_points) {
    const std::size_t k = log2_exact(n_points, "fft");
    DagBuilder b;
    std::vector<std::vector<TaskId>> rank(k + 1, std::vector<TaskId>(n_points));
    for (std::size_t l = 0; l <= k; ++l) {
        for (std::size_t i = 0; i < n_points; ++i) {
            rank[l][i] = b.add_task(1.0, task_name('F', l, i));
        }
    }
    for (std::size_t l = 0; l < k; ++l) {
        const std::size_t mask = static_cast<std::size_t>(1) << (k - 1 - l);
        for (std::size_t i = 0; i < n_points; ++i) {
            b.add_edge(rank[l][i], rank[l + 1][i], 1.0);
            b.add_edge(rank[l][i ^ mask], rank[l + 1][i], 1.0);
        }
    }
    return std::move(b).build();
}

Dag laplace(std::size_t g) {
    if (g == 0) throw std::invalid_argument("laplace: grid must be non-empty");
    DagBuilder b;
    std::vector<TaskId> cell(g * g);
    for (std::size_t i = 0; i < g; ++i) {
        for (std::size_t j = 0; j < g; ++j) {
            cell[i * g + j] = b.add_task(1.0, task_name('L', i, j));
        }
    }
    for (std::size_t i = 0; i < g; ++i) {
        for (std::size_t j = 0; j < g; ++j) {
            if (i + 1 < g) b.add_edge(cell[i * g + j], cell[(i + 1) * g + j], 1.0);
            if (j + 1 < g) b.add_edge(cell[i * g + j], cell[i * g + j + 1], 1.0);
        }
    }
    return std::move(b).build();
}

namespace {
/// Shared last-writer machinery for the tiled factorizations: tile (i, j) of
/// the matrix maps to the task that last wrote it; readers draw edges from
/// the last writer.
class TileTracker {
public:
    explicit TileTracker(std::size_t t) : t_(t), last_writer_(t * t, kInvalidTask) {}

    void read(DagBuilder& b, TaskId reader, std::size_t i, std::size_t j, double data) const {
        const TaskId w = last_writer_[i * t_ + j];
        if (w != kInvalidTask && !b.has_edge(w, reader)) b.add_edge(w, reader, data);
    }

    void write(TaskId writer, std::size_t i, std::size_t j) {
        last_writer_[i * t_ + j] = writer;
    }

private:
    std::size_t t_;
    std::vector<TaskId> last_writer_;
};
}  // namespace

Dag cholesky(std::size_t tiles) {
    if (tiles == 0) throw std::invalid_argument("cholesky: tiles must be >= 1");
    DagBuilder b;
    TileTracker tracker(tiles);
    for (std::size_t k = 0; k < tiles; ++k) {
        const TaskId potrf = b.add_task(1.0, "POTRF" + std::to_string(k));
        tracker.read(b, potrf, k, k, 1.0);
        tracker.write(potrf, k, k);
        for (std::size_t i = k + 1; i < tiles; ++i) {
            const TaskId trsm =
                b.add_task(3.0, "TRSM" + std::to_string(i) + "," + std::to_string(k));
            tracker.read(b, trsm, k, k, 1.0);
            tracker.read(b, trsm, i, k, 1.0);
            tracker.write(trsm, i, k);
        }
        for (std::size_t i = k + 1; i < tiles; ++i) {
            const TaskId syrk =
                b.add_task(3.0, "SYRK" + std::to_string(i) + "," + std::to_string(k));
            tracker.read(b, syrk, i, k, 1.0);
            tracker.read(b, syrk, i, i, 1.0);
            tracker.write(syrk, i, i);
            for (std::size_t j = k + 1; j < i; ++j) {
                const TaskId gemm = b.add_task(6.0, "GEMM" + std::to_string(i) + "," +
                                                          std::to_string(j) + "," +
                                                          std::to_string(k));
                tracker.read(b, gemm, i, k, 1.0);
                tracker.read(b, gemm, j, k, 1.0);
                tracker.read(b, gemm, i, j, 1.0);
                tracker.write(gemm, i, j);
            }
        }
    }
    return std::move(b).build();
}

Dag lu(std::size_t tiles) {
    if (tiles == 0) throw std::invalid_argument("lu: tiles must be >= 1");
    DagBuilder b;
    TileTracker tracker(tiles);
    for (std::size_t k = 0; k < tiles; ++k) {
        const TaskId getrf = b.add_task(2.0, "GETRF" + std::to_string(k));
        tracker.read(b, getrf, k, k, 1.0);
        tracker.write(getrf, k, k);
        for (std::size_t j = k + 1; j < tiles; ++j) {  // row panel
            const TaskId trsm =
                b.add_task(3.0, "TRSMR" + std::to_string(k) + "," + std::to_string(j));
            tracker.read(b, trsm, k, k, 1.0);
            tracker.read(b, trsm, k, j, 1.0);
            tracker.write(trsm, k, j);
        }
        for (std::size_t i = k + 1; i < tiles; ++i) {  // column panel
            const TaskId trsm =
                b.add_task(3.0, "TRSMC" + std::to_string(i) + "," + std::to_string(k));
            tracker.read(b, trsm, k, k, 1.0);
            tracker.read(b, trsm, i, k, 1.0);
            tracker.write(trsm, i, k);
        }
        for (std::size_t i = k + 1; i < tiles; ++i) {
            for (std::size_t j = k + 1; j < tiles; ++j) {
                const TaskId gemm = b.add_task(6.0, "GEMM" + std::to_string(i) + "," +
                                                          std::to_string(j) + "," +
                                                          std::to_string(k));
                tracker.read(b, gemm, i, k, 1.0);
                tracker.read(b, gemm, k, j, 1.0);
                tracker.read(b, gemm, i, j, 1.0);
                tracker.write(gemm, i, j);
            }
        }
    }
    return std::move(b).build();
}

Dag fork_join(std::size_t width, std::size_t stages) {
    if (width == 0 || stages == 0) {
        throw std::invalid_argument("fork_join: width and stages must be >= 1");
    }
    DagBuilder b;
    TaskId join = b.add_task(1.0, "src");
    for (std::size_t s = 0; s < stages; ++s) {
        std::vector<TaskId> workers(width);
        for (std::size_t i = 0; i < width; ++i) {
            workers[i] = b.add_task(1.0, task_name('w', s, i));
            b.add_edge(join, workers[i], 1.0);
        }
        join = b.add_task(1.0, "join" + std::to_string(s));
        for (const TaskId w : workers) b.add_edge(w, join, 1.0);
    }
    return std::move(b).build();
}

namespace {
Dag tree(std::size_t fanout, std::size_t depth, bool out) {
    if (fanout < 1 || depth < 1) {
        throw std::invalid_argument("tree: fanout and depth must be >= 1");
    }
    DagBuilder b;
    std::vector<TaskId> prev{b.add_task(1.0, out ? "root" : "sink")};
    for (std::size_t d = 1; d < depth; ++d) {
        std::vector<TaskId> cur;
        cur.reserve(prev.size() * fanout);
        for (const TaskId parent : prev) {
            for (std::size_t c = 0; c < fanout; ++c) {
                const TaskId child = b.add_task(1.0);
                if (out) {
                    b.add_edge(parent, child, 1.0);
                } else {
                    b.add_edge(child, parent, 1.0);
                }
                cur.push_back(child);
            }
        }
        prev = std::move(cur);
    }
    return std::move(b).build();
}
}  // namespace

Dag out_tree(std::size_t fanout, std::size_t depth) { return tree(fanout, depth, true); }
Dag in_tree(std::size_t fanout, std::size_t depth) { return tree(fanout, depth, false); }

Dag chain(std::size_t n) {
    if (n == 0) throw std::invalid_argument("chain: n must be >= 1");
    DagBuilder b;
    TaskId prev = b.add_task(1.0, "c0");
    for (std::size_t i = 1; i < n; ++i) {
        const TaskId cur = b.add_task(1.0, task_name('c', i));
        b.add_edge(prev, cur, 1.0);
        prev = cur;
    }
    return std::move(b).build();
}

Dag diamond(std::size_t width, std::size_t layers) {
    if (width == 0 || layers == 0) {
        throw std::invalid_argument("diamond: width and layers must be >= 1");
    }
    DagBuilder b;
    const TaskId src = b.add_task(1.0, "src");
    std::vector<TaskId> prev{src};
    for (std::size_t l = 0; l < layers; ++l) {
        std::vector<TaskId> cur(width);
        for (std::size_t i = 0; i < width; ++i) {
            cur[i] = b.add_task(1.0, task_name('d', l, i));
            for (const TaskId p : prev) b.add_edge(p, cur[i], 1.0);
        }
        prev = std::move(cur);
    }
    const TaskId sink = b.add_task(1.0, "sink");
    for (const TaskId p : prev) b.add_edge(p, sink, 1.0);
    return std::move(b).build();
}

Dag independent(std::size_t n) {
    if (n == 0) throw std::invalid_argument("independent: n must be >= 1");
    DagBuilder b;
    for (std::size_t i = 0; i < n; ++i) b.add_task(1.0, task_name('t', i));
    return std::move(b).build();
}

Dag stencil_1d(std::size_t cells, std::size_t steps) {
    if (cells == 0 || steps == 0) {
        throw std::invalid_argument("stencil_1d: cells and steps must be >= 1");
    }
    DagBuilder b;
    std::vector<TaskId> prev(cells);
    for (std::size_t i = 0; i < cells; ++i) prev[i] = b.add_task(1.0, "s0," + std::to_string(i));
    for (std::size_t t = 1; t < steps; ++t) {
        std::vector<TaskId> cur(cells);
        for (std::size_t i = 0; i < cells; ++i) {
            cur[i] = b.add_task(1.0, task_name('s', t, i));
            if (i > 0) b.add_edge(prev[i - 1], cur[i], 1.0);
            b.add_edge(prev[i], cur[i], 1.0);
            if (i + 1 < cells) b.add_edge(prev[i + 1], cur[i], 1.0);
        }
        prev = std::move(cur);
    }
    return std::move(b).build();
}

Dag montage_like(std::size_t w) {
    if (w < 2) throw std::invalid_argument("montage_like: width must be >= 2");
    DagBuilder b;
    // Stage 1: projections.
    std::vector<TaskId> proj(w);
    for (std::size_t i = 0; i < w; ++i) {
        proj[i] = b.add_task(4.0, "project" + std::to_string(i));
    }
    // Stage 2: overlap difference of adjacent projections.
    std::vector<TaskId> overlap(w - 1);
    for (std::size_t i = 0; i + 1 < w; ++i) {
        overlap[i] = b.add_task(1.0, "diff" + std::to_string(i));
        b.add_edge(proj[i], overlap[i], 2.0);
        b.add_edge(proj[i + 1], overlap[i], 2.0);
    }
    // Stage 3: binary reduction of the overlaps into a model-fit task.
    std::vector<TaskId> level = overlap;
    std::size_t fit_idx = 0;
    while (level.size() > 1) {
        std::vector<TaskId> next;
        for (std::size_t i = 0; i < level.size(); i += 2) {
            if (i + 1 < level.size()) {
                const TaskId t = b.add_task(1.0, "fit" + std::to_string(fit_idx++));
                b.add_edge(level[i], t, 1.0);
                b.add_edge(level[i + 1], t, 1.0);
                next.push_back(t);
            } else {
                next.push_back(level[i]);
            }
        }
        level = std::move(next);
    }
    const TaskId model = level.front();
    // Stage 4: background correction per projection.
    std::vector<TaskId> correct(w);
    for (std::size_t i = 0; i < w; ++i) {
        correct[i] = b.add_task(2.0, "bg" + std::to_string(i));
        b.add_edge(model, correct[i], 1.0);
        b.add_edge(proj[i], correct[i], 2.0);
    }
    // Stage 5: final mosaic.
    const TaskId mosaic = b.add_task(8.0, "mosaic");
    for (const TaskId c : correct) b.add_edge(c, mosaic, 2.0);
    return std::move(b).build();
}

}  // namespace tsched::workload
