// Request-trace persistence and generation — the .tsr format.
//
// A .tsr file is a replayable stream of scheduling requests for the serving
// layer: one line per request, each naming the algorithm plus the compact
// workload descriptor (shape, size, procs, net, ccr, beta, seed) that
// workload::make_instance expands deterministically into the full Problem.
// Storing descriptors instead of materialized graphs keeps traces tiny and
// exactly reproducible; a repeated line *is* a repeated request (identical
// descriptor -> identical Problem -> identical fingerprint).
//
// TSR grammar (line-oriented, '#' starts a comment):
//   tsr 1
//   r <algo> <shape> <size> <procs> <net> <ccr> <beta> <seed>
//
// generate_trace builds the mixed streams the serving benchmarks replay: an
// exact fraction `repeat_frac` of the requests repeat an earlier request in
// the same stream (cache-hittable), the rest are *perturbed* fresh graphs
// (same shape family, new seed -> new topology/costs -> new fingerprint).
// Generation is fully deterministic in TraceGenParams::seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"
#include "workload/instance.hpp"

namespace tsched::serve {

struct TraceRequest {
    std::string algo = "heft";
    workload::Shape shape = workload::Shape::kLayered;
    std::size_t size = 100;
    std::size_t procs = 8;
    workload::Net net = workload::Net::kUniform;
    double ccr = 1.0;
    double beta = 0.5;
    std::uint64_t seed = 2007;

    friend bool operator==(const TraceRequest&, const TraceRequest&) = default;
};

/// Process-local key of a descriptor plus its option string: FNV-1a over
/// the *exact* bit patterns of every descriptor field (so +0.0 and -0.0
/// key apart, unlike the canonicalizing problem fingerprint) and the
/// length-prefixed options.  Like the fingerprint it excludes the wire
/// request id and deadline_ms.  ServeEngine keys its descriptor index with
/// it (serve_engine.hpp); it is never sent on the wire or persisted, so no
/// version constant covers it.
[[nodiscard]] std::uint64_t descriptor_key(const TraceRequest& request, std::string_view options);

/// The InstanceParams a trace request expands to (shared by materialize and
/// by callers that want the raw instance).
[[nodiscard]] workload::InstanceParams trace_instance_params(const TraceRequest& request);

/// Deterministically expand a trace request into a servable request.
[[nodiscard]] ScheduleRequest materialize(const TraceRequest& request);

void write_tsr(std::ostream& os, const std::vector<TraceRequest>& requests);
[[nodiscard]] std::string to_tsr(const std::vector<TraceRequest>& requests);

/// Parse a TSR document; throws std::runtime_error with a line-numbered
/// message on malformed input.
[[nodiscard]] std::vector<TraceRequest> read_tsr(std::istream& is);
[[nodiscard]] std::vector<TraceRequest> read_tsr_string(const std::string& text);

void save_tsr(const std::string& path, const std::vector<TraceRequest>& requests);
[[nodiscard]] std::vector<TraceRequest> load_tsr(const std::string& path);

struct TraceGenParams {
    std::size_t requests = 128;
    /// Exact fraction of the stream that repeats an earlier request
    /// (floor(requests * repeat_frac) lines are repeats).
    double repeat_frac = 0.5;
    std::vector<std::string> algos = {"heft"};
    std::vector<workload::Shape> shapes = {workload::Shape::kLayered};
    std::size_t size = 100;
    std::size_t procs = 8;
    workload::Net net = workload::Net::kUniform;
    double ccr = 1.0;
    double beta = 0.5;
    std::uint64_t seed = 2007;
};

/// Build a mixed repeated/perturbed request stream (deterministic in seed).
[[nodiscard]] std::vector<TraceRequest> generate_trace(const TraceGenParams& params);

}  // namespace tsched::serve
