#include "sched/schedule_io.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace tsched {

void write_tss(std::ostream& os, const Schedule& schedule) {
    os << "# tsched schedule\n";
    os << "tss " << schedule.num_tasks() << ' ' << schedule.num_procs() << '\n';
    os << std::setprecision(17);
    for (const Placement& pl : schedule.all_placements()) {
        os << "p " << pl.task << ' ' << pl.proc << ' ' << pl.start << ' ' << pl.finish << '\n';
    }
}

std::string to_tss(const Schedule& schedule) {
    std::ostringstream os;
    write_tss(os, schedule);
    return os.str();
}

Schedule read_tss(std::istream& is) {
    std::string line;
    std::size_t line_no = 0;
    bool header_seen = false;
    std::size_t num_tasks = 0;
    std::size_t num_procs = 0;
    ScheduleDraft schedule(0, 1);

    auto fail = [&](const std::string& what) -> void {
        throw std::runtime_error("read_tss: line " + std::to_string(line_no) + ": " + what);
    };

    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "tss") {
            if (header_seen) fail("duplicate header");
            if (!(ls >> num_tasks >> num_procs) || num_procs == 0) fail("malformed header");
            try {
                schedule = ScheduleDraft(num_tasks, num_procs);
            } catch (const std::invalid_argument& err) {
                fail(err.what());
            }
            header_seen = true;
        } else if (tag == "p") {
            if (!header_seen) fail("placement before header");
            std::size_t task = 0;
            std::size_t proc = 0;
            double start = 0.0;
            double finish = 0.0;
            if (!(ls >> task >> proc >> start >> finish)) fail("malformed placement");
            if (task >= num_tasks || proc >= num_procs) fail("placement out of range");
            try {
                schedule.add(static_cast<TaskId>(task), static_cast<ProcId>(proc), start,
                             finish);
            } catch (const std::invalid_argument& err) {
                fail(err.what());
            }
        } else {
            fail("unknown record tag '" + tag + "'");
        }
    }
    if (!header_seen) throw std::runtime_error("read_tss: missing header");
    return std::move(schedule).build();
}

Schedule read_tss_string(const std::string& text) {
    std::istringstream is(text);
    return read_tss(is);
}

void save_tss(const std::string& path, const Schedule& schedule) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("save_tss: cannot open " + path);
    write_tss(out, schedule);
    if (!out) throw std::runtime_error("save_tss: write failed for " + path);
}

Schedule load_tss(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("load_tss: cannot open " + path);
    return read_tss(in);
}

}  // namespace tsched
