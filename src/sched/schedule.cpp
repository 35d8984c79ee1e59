#include "sched/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tsched {

namespace {
/// Every task must be addressable by a TaskId (which also keeps n + 1
/// offsets from wrapping).
void check_dimensions(std::size_t num_tasks, std::size_t num_procs) {
    if (num_procs == 0) throw std::invalid_argument("Schedule: need at least one processor");
    if (num_tasks > static_cast<std::size_t>(std::numeric_limits<TaskId>::max())) {
        throw std::invalid_argument("Schedule: too many tasks");
    }
}
}  // namespace

void check_placement(const Placement& pl, std::size_t num_tasks, std::size_t num_procs) {
    if (pl.task < 0 || static_cast<std::size_t>(pl.task) >= num_tasks) {
        throw std::invalid_argument("Schedule::add: task out of range");
    }
    if (pl.proc < 0 || static_cast<std::size_t>(pl.proc) >= num_procs) {
        throw std::invalid_argument("Schedule::add: processor out of range");
    }
    if (!(pl.start >= 0.0) || !(pl.finish >= pl.start) || !std::isfinite(pl.finish)) {
        throw std::invalid_argument("Schedule::add: invalid time interval");
    }
}

Schedule::Schedule(std::size_t num_tasks, std::size_t num_procs)
    : num_tasks_(num_tasks), num_procs_(num_procs) {
    check_dimensions(num_tasks, num_procs);
    offsets_.assign(num_tasks + 1, 0);
}

Schedule::Schedule(std::size_t num_procs, std::vector<std::uint32_t> offsets,
                   std::vector<Placement> placements)
    : num_tasks_(offsets.size() - 1),
      num_procs_(num_procs),
      offsets_(std::move(offsets)),
      placements_(std::move(placements)) {}

std::span<const Placement> Schedule::placements(TaskId task) const {
    if (task < 0 || static_cast<std::size_t>(task) >= num_tasks_) {
        throw std::out_of_range("Schedule::placements: task out of range");
    }
    const auto v = static_cast<std::size_t>(task);
    return std::span<const Placement>(placements_).subspan(offsets_[v],
                                                           offsets_[v + 1] - offsets_[v]);
}

const Placement& Schedule::primary(TaskId task) const {
    const auto p = placements(task);
    if (p.empty()) throw std::out_of_range("Schedule::primary: task has no placement");
    return p.front();
}

bool Schedule::complete() const noexcept {
    for (std::size_t v = 0; v < num_tasks_; ++v) {
        if (offsets_[v + 1] == offsets_[v]) return false;
    }
    return true;
}

std::size_t Schedule::num_duplicates() const noexcept {
    std::size_t placed = 0;
    for (std::size_t v = 0; v < num_tasks_; ++v) {
        if (offsets_[v + 1] != offsets_[v]) ++placed;
    }
    return placements_.size() - placed;
}

double Schedule::makespan() const noexcept {
    double latest = 0.0;
    for (const Placement& p : placements_) latest = std::max(latest, p.finish);
    return latest;
}

std::vector<Placement> Schedule::processor_timeline(ProcId p) const {
    if (p < 0 || static_cast<std::size_t>(p) >= num_procs_) {
        throw std::out_of_range("Schedule::processor_timeline: processor out of range");
    }
    std::vector<Placement> out;
    for (const Placement& pl : placements_) {
        if (pl.proc == p) out.push_back(pl);
    }
    std::sort(out.begin(), out.end(), [](const Placement& a, const Placement& b) {
        return a.start < b.start || (a.start == b.start && a.task < b.task);
    });
    return out;
}

double Schedule::data_available(TaskId task, ProcId p, double data,
                                const LinkModel& links) const {
    double best = std::numeric_limits<double>::infinity();
    for (const Placement& pl : placements(task)) {
        best = std::min(best, pl.finish + links.comm_time(data, pl.proc, p));
    }
    return best;
}

double Schedule::total_idle_time() const {
    const double horizon = makespan();
    double idle = 0.0;
    for (std::size_t p = 0; p < num_procs_; ++p) {
        double busy = 0.0;
        for (const Placement& pl : processor_timeline(static_cast<ProcId>(p))) {
            busy += pl.duration();
        }
        idle += horizon - busy;
    }
    return idle;
}

std::string Schedule::to_string() const {
    std::ostringstream os;
    os << "schedule: makespan=" << makespan() << ", placements=" << num_placements()
       << " (dups=" << num_duplicates() << ")\n";
    for (std::size_t p = 0; p < num_procs_; ++p) {
        os << "  P" << p << ":";
        for (const Placement& pl : processor_timeline(static_cast<ProcId>(p))) {
            os << "  [" << pl.start << ", " << pl.finish << ") t" << pl.task;
        }
        os << '\n';
    }
    return os.str();
}

ScheduleDraft::ScheduleDraft(std::size_t num_tasks, std::size_t num_procs)
    : num_tasks_(num_tasks), num_procs_(num_procs) {
    check_dimensions(num_tasks, num_procs);
}

void ScheduleDraft::add(TaskId task, ProcId proc, double start, double finish) {
    const Placement pl{task, proc, start, finish};
    check_placement(pl, num_tasks_, num_procs_);
    placements_.push_back(pl);
}

Schedule ScheduleDraft::build() && {
    if (placements_.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("ScheduleDraft::build: too many placements");
    }
    // Stable counting sort by task: count, prefix-sum into offsets, then
    // fill each task's group front to back in add() order.
    std::vector<std::uint32_t> offsets(num_tasks_ + 1, 0);
    for (const Placement& pl : placements_) ++offsets[static_cast<std::size_t>(pl.task) + 1];
    for (std::size_t v = 0; v < num_tasks_; ++v) offsets[v + 1] += offsets[v];
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    std::vector<Placement> packed(placements_.size());
    for (const Placement& pl : placements_) {
        packed[cursor[static_cast<std::size_t>(pl.task)]++] = pl;
    }
    placements_ = {};
    return Schedule(num_procs_, std::move(offsets), std::move(packed));
}

}  // namespace tsched
