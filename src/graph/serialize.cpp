#include "graph/serialize.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace tsched {

namespace {
/// Print a double with round-trip precision (shortest exact form is overkill;
/// max_digits10 guarantees exact TSG round-trips).
std::string fmt_double(double x) {
    std::ostringstream os;
    os << std::setprecision(17) << x;
    return os.str();
}
}  // namespace

std::string to_dot(const Dag& dag, const std::string& graph_name) {
    std::ostringstream os;
    os << "digraph " << graph_name << " {\n";
    os << "  rankdir=TB;\n  node [shape=ellipse];\n";
    for (std::size_t i = 0; i < dag.num_tasks(); ++i) {
        const auto v = static_cast<TaskId>(i);
        os << "  n" << i << " [label=\"";
        if (!dag.name(v).empty()) {
            os << dag.name(v);
        } else {
            os << i;
        }
        os << "\\nw=" << dag.work(v) << "\"];\n";
    }
    for (std::size_t i = 0; i < dag.num_tasks(); ++i) {
        for (const AdjEdge& e : dag.successors(static_cast<TaskId>(i))) {
            os << "  n" << i << " -> n" << e.task << " [label=\"" << e.data << "\"];\n";
        }
    }
    os << "}\n";
    return os.str();
}

void write_tsg(std::ostream& os, const Dag& dag) {
    os << "# tsched task graph\n";
    os << "tsg " << dag.num_tasks() << ' ' << dag.num_edges() << '\n';
    for (std::size_t i = 0; i < dag.num_tasks(); ++i) {
        const auto v = static_cast<TaskId>(i);
        os << "t " << i << ' ' << fmt_double(dag.work(v));
        if (!dag.name(v).empty()) os << ' ' << dag.name(v);
        os << '\n';
    }
    for (std::size_t i = 0; i < dag.num_tasks(); ++i) {
        for (const AdjEdge& e : dag.successors(static_cast<TaskId>(i))) {
            os << "e " << i << ' ' << e.task << ' ' << fmt_double(e.data) << '\n';
        }
    }
}

std::string to_tsg(const Dag& dag) {
    std::ostringstream os;
    write_tsg(os, dag);
    return os.str();
}

Dag read_tsg(std::istream& is) {
    DagBuilder builder;
    std::string line;
    std::size_t line_no = 0;
    bool header_seen = false;
    std::size_t expect_tasks = 0;
    std::size_t expect_edges = 0;
    std::size_t seen_edges = 0;

    auto fail = [&](const std::string& what) -> void {
        throw std::runtime_error("read_tsg: line " + std::to_string(line_no) + ": " + what);
    };

    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "tsg") {
            if (header_seen) fail("duplicate header");
            if (!(ls >> expect_tasks >> expect_edges)) fail("malformed header");
            header_seen = true;
        } else if (tag == "t") {
            if (!header_seen) fail("task record before header");
            std::size_t id = 0;
            double work = 0.0;
            if (!(ls >> id >> work)) fail("malformed task record");
            if (id != builder.num_tasks()) fail("task ids must be dense and ascending");
            std::string name;
            ls >> std::ws;
            std::getline(ls, name);
            builder.add_task(work, name);
        } else if (tag == "e") {
            if (!header_seen) fail("edge record before header");
            std::size_t u = 0;
            std::size_t v = 0;
            double data = 0.0;
            if (!(ls >> u >> v >> data)) fail("malformed edge record");
            if (u >= builder.num_tasks() || v >= builder.num_tasks()) {
                fail("edge endpoint out of range");
            }
            try {
                builder.add_edge(static_cast<TaskId>(u), static_cast<TaskId>(v), data);
            } catch (const std::invalid_argument& err) {
                fail(err.what());
            }
            ++seen_edges;
        } else {
            fail("unknown record tag '" + tag + "'");
        }
    }
    if (!header_seen) throw std::runtime_error("read_tsg: missing header");
    if (builder.num_tasks() != expect_tasks) {
        throw std::runtime_error("read_tsg: header declares " + std::to_string(expect_tasks) +
                                 " tasks, found " + std::to_string(builder.num_tasks()));
    }
    if (seen_edges != expect_edges) {
        throw std::runtime_error("read_tsg: header declares " + std::to_string(expect_edges) +
                                 " edges, found " + std::to_string(seen_edges));
    }
    Dag dag = std::move(builder).build();
    const std::string diag = dag.validate();
    if (!diag.empty()) throw std::runtime_error("read_tsg: invalid graph: " + diag);
    return dag;
}

Dag read_tsg_string(const std::string& text) {
    std::istringstream is(text);
    return read_tsg(is);
}

void save_tsg(const std::string& path, const Dag& dag) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("save_tsg: cannot open " + path);
    write_tsg(out, dag);
    if (!out) throw std::runtime_error("save_tsg: write failed for " + path);
}

Dag load_tsg(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("load_tsg: cannot open " + path);
    return read_tsg(in);
}

namespace {
std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default: out += ch;
        }
    }
    return out;
}
}  // namespace

std::string to_json(const Dag& dag) {
    std::ostringstream os;
    os << "{\"tasks\":[";
    for (std::size_t i = 0; i < dag.num_tasks(); ++i) {
        const auto v = static_cast<TaskId>(i);
        if (i) os << ',';
        os << "{\"id\":" << i << ",\"work\":" << fmt_double(dag.work(v)) << ",\"name\":\""
           << json_escape(dag.name(v)) << "\"}";
    }
    os << "],\"edges\":[";
    bool first = true;
    for (std::size_t i = 0; i < dag.num_tasks(); ++i) {
        for (const AdjEdge& e : dag.successors(static_cast<TaskId>(i))) {
            if (!first) os << ',';
            first = false;
            os << "{\"src\":" << i << ",\"dst\":" << e.task
               << ",\"data\":" << fmt_double(e.data) << "}";
        }
    }
    os << "]}";
    return os.str();
}

}  // namespace tsched
