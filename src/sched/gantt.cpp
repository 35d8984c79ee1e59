#include "sched/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace tsched {

namespace {
/// Deterministic pleasant color per task: golden-angle hue walk.
std::string task_color(TaskId task) {
    const double hue = std::fmod(static_cast<double>(task) * 137.508, 360.0);
    std::ostringstream os;
    os << "hsl(" << static_cast<int>(hue) << ",65%,62%)";
    return os.str();
}

/// A tick step of 1/2/5 x 10^k that yields <= max_ticks ticks.
double tick_step(double span, int max_ticks) {
    if (span <= 0.0) return 1.0;
    double step = std::pow(10.0, std::floor(std::log10(span / max_ticks)));
    while (span / step > max_ticks) {
        if (span / (2 * step) <= max_ticks) return 2 * step;
        if (span / (5 * step) <= max_ticks) return 5 * step;
        step *= 10;
    }
    return step;
}

std::string xml_escape(std::string_view s) {
    std::string out;
    for (const char ch : s) {
        switch (ch) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            default: out += ch;
        }
    }
    return out;
}
}  // namespace

std::string to_svg(const Schedule& schedule, const Dag* dag, const GanttOptions& options) {
    const double makespan = std::max(schedule.makespan(), 1e-12);
    const int left = 64;
    const int top = options.title.empty() ? 16 : 44;
    const int lane = options.lane_height_px;
    const int gap = 6;
    const auto procs = static_cast<int>(schedule.num_procs());
    const int chart_w = options.width_px - left - 16;
    const int height = top + procs * (lane + gap) + 40;
    const double scale = chart_w / makespan;

    std::ostringstream svg;
    svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << options.width_px
        << "\" height=\"" << height << "\" font-family=\"sans-serif\" font-size=\"11\">\n";
    svg << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
    if (!options.title.empty()) {
        svg << "<text x=\"" << left << "\" y=\"24\" font-size=\"15\" font-weight=\"bold\">"
            << xml_escape(options.title) << "</text>\n";
    }

    // Lanes + placements.
    for (int p = 0; p < procs; ++p) {
        const int y = top + p * (lane + gap);
        svg << "<text x=\"8\" y=\"" << y + lane / 2 + 4 << "\">P" << p << "</text>\n";
        svg << "<rect x=\"" << left << "\" y=\"" << y << "\" width=\"" << chart_w
            << "\" height=\"" << lane << "\" fill=\"#f2f2f2\"/>\n";
        for (const Placement& pl : schedule.processor_timeline(static_cast<ProcId>(p))) {
            const double x = left + pl.start * scale;
            const double w = std::max(1.0, pl.duration() * scale);
            const Placement& primary = schedule.primary(pl.task);
            const bool duplicate = !(primary.proc == pl.proc && primary.start == pl.start);
            svg << "<rect x=\"" << x << "\" y=\"" << y + 2 << "\" width=\"" << w
                << "\" height=\"" << lane - 4 << "\" rx=\"2\" fill=\"" << task_color(pl.task)
                << "\"" << (duplicate ? " fill-opacity=\"0.45\" stroke=\"#555\" stroke-dasharray=\"3,2\"" : "")
                << "><title>t" << pl.task;
            if (dag != nullptr && !dag->name(pl.task).empty()) {
                svg << " (" << xml_escape(dag->name(pl.task)) << ")";
            }
            svg << " [" << pl.start << ", " << pl.finish << ")</title></rect>\n";
            if (options.show_labels && w > 18.0) {
                std::string label = dag != nullptr && !dag->name(pl.task).empty()
                                        ? std::string(dag->name(pl.task))
                                        : std::to_string(pl.task);
                if (static_cast<double>(label.size()) * 6.0 > w) {
                    label = label.substr(
                        0, std::max<std::size_t>(1, static_cast<std::size_t>(w / 6.0)));
                }
                svg << "<text x=\"" << x + 3 << "\" y=\"" << y + lane / 2 + 4
                    << "\" fill=\"black\">" << xml_escape(label) << "</text>\n";
            }
        }
    }

    // Time axis.
    const int axis_y = top + procs * (lane + gap) + 8;
    svg << "<line x1=\"" << left << "\" y1=\"" << axis_y << "\" x2=\"" << left + chart_w
        << "\" y2=\"" << axis_y << "\" stroke=\"black\"/>\n";
    const double step = tick_step(makespan, 10);
    for (double t = 0.0; t <= makespan + 1e-9; t += step) {
        const double x = left + t * scale;
        svg << "<line x1=\"" << x << "\" y1=\"" << axis_y << "\" x2=\"" << x << "\" y2=\""
            << axis_y + 4 << "\" stroke=\"black\"/>\n";
        svg << "<text x=\"" << x << "\" y=\"" << axis_y + 16
            << "\" text-anchor=\"middle\">" << t << "</text>\n";
    }
    // Makespan marker.
    const double mx = left + makespan * scale;
    svg << "<line x1=\"" << mx << "\" y1=\"" << top - 4 << "\" x2=\"" << mx << "\" y2=\""
        << axis_y << "\" stroke=\"red\" stroke-dasharray=\"4,3\"/>\n";
    svg << "<text x=\"" << mx - 4 << "\" y=\"" << top - 6
        << "\" text-anchor=\"end\" fill=\"red\">makespan " << schedule.makespan()
        << "</text>\n";
    svg << "</svg>\n";
    return svg.str();
}

void save_svg(const std::string& path, const Schedule& schedule, const Dag* dag,
              const GanttOptions& options) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("save_svg: cannot open " + path);
    out << to_svg(schedule, dag, options);
    if (!out) throw std::runtime_error("save_svg: write failed for " + path);
}

}  // namespace tsched
