#include "trace/chrome_trace.hpp"

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sim/contention.hpp"
#include "sim/event_sim.hpp"
#include "sim/placement_table.hpp"

namespace tsched::trace {

namespace {

constexpr int kExecPid = 0;
constexpr int kCommPid = 1;
constexpr int kFaultPid = 2;

std::string num(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/// Escape task names coming from user-supplied DAGs for embedding in JSON
/// string literals.
std::string esc(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) >= 0x20) out += c;
        }
    }
    return out;
}

class EventWriter {
public:
    void metadata(int pid, int tid, bool thread, const std::string& name) {
        begin();
        out_ += "{\"name\":\"";
        out_ += thread ? "thread_name" : "process_name";
        out_ += "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid);
        if (thread) out_ += ",\"tid\":" + std::to_string(tid);
        out_ += ",\"args\":{\"name\":\"" + name + "\"}}";
    }

    void complete(const std::string& name, const char* cat, double ts, double dur, int pid,
                  int tid, const std::string& args_json) {
        begin();
        out_ += "{\"name\":\"" + name + "\",\"cat\":\"" + cat + "\",\"ph\":\"X\",\"ts\":" +
                num(ts) + ",\"dur\":" + num(dur) + ",\"pid\":" + std::to_string(pid) +
                ",\"tid\":" + std::to_string(tid) + ",\"args\":" + args_json + "}";
    }

    void instant(const std::string& name, const char* cat, double ts, int pid, int tid,
                 const std::string& args_json) {
        begin();
        out_ += "{\"name\":\"" + name + "\",\"cat\":\"" + cat +
                "\",\"ph\":\"i\",\"s\":\"g\",\"ts\":" + num(ts) +
                ",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                ",\"args\":" + args_json + "}";
    }

    [[nodiscard]] std::string document() && {
        return "{\"traceEvents\":[" + std::move(out_) + "],\"displayTimeUnit\":\"ms\"}";
    }

private:
    void begin() {
        if (!out_.empty()) out_ += ",\n";
    }
    std::string out_;
};

/// prefix + id, appended into one string: GCC 12 -O3 reports a false
/// -Wrestrict overlap inside `"literal" + std::to_string(...)`.
template <typename Id>
std::string numbered(const char* prefix, Id id) {
    std::string out = prefix;
    out += std::to_string(id);
    return out;
}

std::string task_label(TaskId v, const Dag* dag) {
    if (dag != nullptr && !dag->name(v).empty()) return esc(dag->name(v));
    return numbered("T", v);
}

void write_track_names(EventWriter& writer, std::size_t procs, bool comm) {
    writer.metadata(kExecPid, 0, false, "execution");
    for (std::size_t p = 0; p < procs; ++p) {
        writer.metadata(kExecPid, static_cast<int>(p), true, numbered("P", p));
    }
    if (comm) {
        writer.metadata(kCommPid, 0, false, "communication");
        for (std::size_t p = 0; p < procs; ++p) {
            writer.metadata(kCommPid, static_cast<int>(p), true, numbered("inbound P", p));
        }
    }
}

/// One complete event per placement.  `finish_times` (optional) overrides
/// the planned times: finish from the vector, start = finish - exec duration
/// under `problem`'s cost model.
void write_exec_events(EventWriter& writer, const Schedule& schedule, const Dag* dag,
                       const Problem* problem, const std::vector<double>* finish_times) {
    std::size_t index = 0;
    for (std::size_t v = 0; v < schedule.num_tasks(); ++v) {
        const auto places = schedule.placements(static_cast<TaskId>(v));
        bool primary = true;
        for (const Placement& pl : places) {
            double start = pl.start;
            double finish = pl.finish;
            if (finish_times != nullptr && problem != nullptr) {
                finish = (*finish_times)[index];
                start = finish - problem->exec_time(pl.task, pl.proc);
            }
            std::string args = "{\"task\":" + std::to_string(pl.task) +
                               ",\"start\":" + num(start) + ",\"finish\":" + num(finish) +
                               ",\"duplicate\":" + (primary ? "false" : "true") + "}";
            writer.complete(task_label(pl.task, dag) + (primary ? "" : " (dup)"), "exec",
                            start, finish - start, kExecPid, static_cast<int>(pl.proc),
                            args);
            primary = false;
            ++index;
        }
    }
}

/// Nominal (contention-free) transfers: for every primary consumer and each
/// of its input edges, the producer instance with the earliest arrival; a
/// remote winner becomes one event on the consumer processor's inbound
/// track.  `finish_times` (optional) swaps in simulator-derived producer
/// finishes and consumer placement times.
void write_nominal_comm_events(EventWriter& writer, const Schedule& schedule,
                               const Problem& problem,
                               const std::vector<double>* finish_times) {
    const Dag& dag = problem.dag();
    const LinkModel& links = problem.machine().links();
    const sim::PlacementTable table = sim::build_placement_table(schedule);

    auto finish_of = [&](std::size_t entry_index) {
        return finish_times != nullptr ? (*finish_times)[entry_index]
                                       : table.entries[entry_index].planned.finish;
    };

    for (std::size_t v = 0; v < schedule.num_tasks(); ++v) {
        const ProcId to = table.entries[table.task_first[v]].planned.proc;  // primary
        for (const AdjEdge& e : dag.predecessors(static_cast<TaskId>(v))) {
            const auto u = static_cast<std::size_t>(e.task);
            double best_arrival = std::numeric_limits<double>::infinity();
            double best_finish = 0.0;
            ProcId best_from = to;
            for (std::size_t i = table.task_first[u]; i < table.task_first[u + 1]; ++i) {
                const ProcId from = table.entries[i].planned.proc;
                const double arrival = finish_of(i) + links.comm_time(e.data, from, to);
                if (arrival < best_arrival) {
                    best_arrival = arrival;
                    best_finish = finish_of(i);
                    best_from = from;
                }
            }
            if (best_from == to) continue;  // served locally
            std::string args = "{\"producer\":" + std::to_string(e.task) +
                               ",\"consumer\":" + std::to_string(v) +
                               ",\"from\":" + std::to_string(best_from) +
                               ",\"to\":" + std::to_string(to) + ",\"data\":" + num(e.data) +
                               "}";
            writer.complete(task_label(e.task, &dag) + "\\u2192" +
                                task_label(static_cast<TaskId>(v), &dag),
                            "comm", best_finish, best_arrival - best_finish, kCommPid,
                            static_cast<int>(to), args);
        }
    }
}

void write_contended_comm_events(EventWriter& writer, const Dag& dag,
                                 const std::vector<sim::Transfer>& transfers) {
    for (const sim::Transfer& t : transfers) {
        std::string args = "{\"producer\":" + std::to_string(t.producer) +
                           ",\"consumer\":" + std::to_string(t.consumer) +
                           ",\"from\":" + std::to_string(t.from) +
                           ",\"to\":" + std::to_string(t.to) + ",\"data\":" + num(t.data) +
                           "}";
        writer.complete(task_label(t.producer, &dag) + "\\u2192" + task_label(t.consumer, &dag),
                        "comm", t.start, t.duration(), kCommPid, static_cast<int>(t.to),
                        args);
    }
}

}  // namespace

const char* trace_mode_name(TraceMode mode) noexcept {
    switch (mode) {
        case TraceMode::kPlanned: return "planned";
        case TraceMode::kSimulated: return "sim";
        case TraceMode::kContended: return "contended";
    }
    return "?";
}

std::string chrome_trace_json(const Schedule& schedule) {
    EventWriter writer;
    write_track_names(writer, schedule.num_procs(), /*comm=*/false);
    write_exec_events(writer, schedule, nullptr, nullptr, nullptr);
    return std::move(writer).document();
}

std::string chrome_trace_json(const sim::FaultReport& report, const Problem& problem) {
    EventWriter writer;
    const Schedule& schedule = report.repaired;
    write_track_names(writer, schedule.num_procs(), /*comm=*/true);
    writer.metadata(kFaultPid, 0, false, "faults");
    for (std::size_t p = 0; p < schedule.num_procs(); ++p) {
        writer.metadata(kFaultPid, static_cast<int>(p), true, numbered("P", p));
    }
    const Dag* dag = &problem.dag();
    write_exec_events(writer, schedule, dag, &problem, &report.sim.finish_times);
    write_nominal_comm_events(writer, schedule, problem, &report.sim.finish_times);
    for (const sim::FaultEvent& ev : report.events) {
        std::string args = "{\"kind\":\"" + std::string(sim::fault_event_kind_name(ev.kind)) +
                           "\",\"time\":" + num(ev.time);
        if (ev.task != kInvalidTask) args += ",\"task\":" + std::to_string(ev.task);
        args += "}";
        std::string name{sim::fault_event_kind_name(ev.kind)};
        if (ev.task != kInvalidTask) {
            name += ' ';
            name += task_label(ev.task, dag);
        }
        const int tid = ev.proc != kInvalidProc ? static_cast<int>(ev.proc) : 0;
        writer.instant(name, "fault", ev.time, kFaultPid, tid, args);
    }
    return std::move(writer).document();
}

std::string chrome_trace_json(const Schedule& schedule, const Problem& problem,
                              TraceMode mode) {
    EventWriter writer;
    write_track_names(writer, schedule.num_procs(), /*comm=*/true);
    const Dag* dag = &problem.dag();
    switch (mode) {
        case TraceMode::kPlanned:
            write_exec_events(writer, schedule, dag, &problem, nullptr);
            write_nominal_comm_events(writer, schedule, problem, nullptr);
            break;
        case TraceMode::kSimulated: {
            const sim::SimResult sim = sim::simulate(schedule, problem);
            write_exec_events(writer, schedule, dag, &problem, &sim.finish_times);
            write_nominal_comm_events(writer, schedule, problem, &sim.finish_times);
            break;
        }
        case TraceMode::kContended: {
            const sim::ContentionResult run = sim::simulate_contended(schedule, problem);
            write_exec_events(writer, schedule, dag, &problem, &run.finish_times);
            write_contended_comm_events(writer, *dag, run.transfer_log);
            break;
        }
    }
    return std::move(writer).document();
}

}  // namespace tsched::trace
