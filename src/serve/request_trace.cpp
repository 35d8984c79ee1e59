#include "serve/request_trace.hpp"

#include <bit>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/fingerprint.hpp"
#include "util/rng.hpp"

namespace tsched::serve {

namespace {

void write_double(std::ostream& os, double x) {
    os << std::setprecision(17) << x;
}

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
    throw std::runtime_error("tsr line " + std::to_string(line) + ": " + what);
}

}  // namespace

std::uint64_t descriptor_key(const TraceRequest& request, std::string_view options) {
    Fnv1a h;
    h.str(request.algo);
    h.u64(static_cast<std::uint64_t>(request.shape));
    h.u64(request.size);
    h.u64(request.procs);
    h.u64(static_cast<std::uint64_t>(request.net));
    h.u64(std::bit_cast<std::uint64_t>(request.ccr));
    h.u64(std::bit_cast<std::uint64_t>(request.beta));
    h.u64(request.seed);
    h.str(options);
    return h.value();
}

workload::InstanceParams trace_instance_params(const TraceRequest& request) {
    workload::InstanceParams params;
    params.shape = request.shape;
    params.size = request.size;
    params.num_procs = request.procs;
    params.net = request.net;
    params.ccr = request.ccr;
    params.beta = request.beta;
    return params;
}

ScheduleRequest materialize(const TraceRequest& request) {
    ScheduleRequest out;
    out.problem = std::make_shared<const Problem>(
        workload::make_instance(trace_instance_params(request), request.seed));
    out.algo = request.algo;
    return out;
}

void write_tsr(std::ostream& os, const std::vector<TraceRequest>& requests) {
    os << "tsr 1\n";
    for (const TraceRequest& r : requests) {
        os << "r " << r.algo << ' ' << workload::shape_name(r.shape) << ' ' << r.size << ' '
           << r.procs << ' ' << workload::net_name(r.net) << ' ';
        write_double(os, r.ccr);
        os << ' ';
        write_double(os, r.beta);
        os << ' ' << r.seed << '\n';
    }
}

std::string to_tsr(const std::vector<TraceRequest>& requests) {
    std::ostringstream os;
    write_tsr(os, requests);
    return os.str();
}

std::vector<TraceRequest> read_tsr(std::istream& is) {
    std::vector<TraceRequest> requests;
    std::string line;
    std::size_t line_no = 0;
    bool saw_header = false;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag)) continue;  // blank / comment-only line
        if (!saw_header) {
            if (tag != "tsr") parse_error(line_no, "expected 'tsr <version>' header");
            int version = 0;
            if (!(ls >> version) || version != 1)
                parse_error(line_no, "unsupported tsr version (expected 1)");
            saw_header = true;
            continue;
        }
        if (tag != "r") parse_error(line_no, "unknown record '" + tag + "'");
        TraceRequest r;
        std::string shape;
        std::string net;
        if (!(ls >> r.algo >> shape >> r.size >> r.procs >> net >> r.ccr >> r.beta >> r.seed))
            parse_error(line_no, "malformed request record");
        try {
            r.shape = workload::shape_from_name(shape);
            r.net = workload::net_from_name(net);
        } catch (const std::invalid_argument& e) {
            parse_error(line_no, e.what());
        }
        if (r.size == 0 || r.procs == 0) parse_error(line_no, "size and procs must be > 0");
        requests.push_back(std::move(r));
    }
    if (!saw_header) throw std::runtime_error("tsr: missing 'tsr 1' header");
    return requests;
}

std::vector<TraceRequest> read_tsr_string(const std::string& text) {
    std::istringstream is(text);
    return read_tsr(is);
}

void save_tsr(const std::string& path, const std::vector<TraceRequest>& requests) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open for writing: " + path);
    write_tsr(os, requests);
}

std::vector<TraceRequest> load_tsr(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot open: " + path);
    return read_tsr(is);
}

std::vector<TraceRequest> generate_trace(const TraceGenParams& params) {
    if (params.requests == 0) return {};
    if (params.algos.empty() || params.shapes.empty())
        throw std::invalid_argument("generate_trace: empty algo/shape set");
    if (params.repeat_frac < 0.0 || params.repeat_frac >= 1.0)
        throw std::invalid_argument("generate_trace: repeat_frac must be in [0, 1)");

    const auto repeats =
        static_cast<std::size_t>(static_cast<double>(params.requests) * params.repeat_frac);
    const std::size_t fresh = params.requests - repeats;

    Rng rng(mix_seed(params.seed, 0x747372ULL));  // "tsr"
    std::vector<TraceRequest> stream;
    stream.reserve(params.requests);
    for (std::size_t i = 0; i < fresh; ++i) {
        TraceRequest r;
        r.algo = params.algos[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(params.algos.size()) - 1))];
        r.shape = params.shapes[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(params.shapes.size()) - 1))];
        r.size = params.size;
        r.procs = params.procs;
        r.net = params.net;
        r.ccr = params.ccr;
        r.beta = params.beta;
        // The perturbation: a fresh seed gives a new topology + cost draw of
        // the same family, i.e. a distinct fingerprint.
        r.seed = mix_seed(params.seed, i + 1);
        stream.push_back(std::move(r));
    }
    for (std::size_t i = 0; i < repeats; ++i) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(fresh) - 1));
        stream.push_back(stream[pick]);
    }
    rng.shuffle(stream);
    return stream;
}

}  // namespace tsched::serve
