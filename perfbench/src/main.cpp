// tsched_perfbench: the repository benchmark binary.
//
//   tsched_perfbench --workload offline-bign|wire-cold|wire-hot --seed N
//                    --seconds S --trace 0|1
//
// Prints a human-readable table and, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (a layer the workload
// does not exercise reports 0).  Exits 1 when any output failed its
// correctness check, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricName>& end_to_end_metrics() {
    static const std::vector<MetricName> names = {
        {"tasks_per_s", "tasks/s"}, {"mean_slr", "ratio"},  {"ok_share", "ratio"},
        {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    };
    return names;
}

const std::vector<MetricName>& per_layer_metrics() {
    static const std::vector<MetricName> names = {
        {"client.lat_p50_ms", "ms"},
        {"client.lat_p99_ms", "ms"},
        {"client.slo_qps", "req/s"},
        {"workload.instance_ms_p50", "ms"},
        {"sched.upward_rank_ms_p50", "ms"},
        {"sched.schedule_ms_p50.heft", "ms"},
        {"sched.schedule_ms_p50.ils", "ms"},
        {"sched.schedule_ms_p50.ils-d", "ms"},
        {"sched.schedule_ms_p50.dsh", "ms"},
        {"sched.schedule_ms_p50.btdh", "ms"},
        {"sched.eft_evals_per_task", "count"},
        {"sched.rollbacks_per_task", "count"},
        {"sched.dup_accept_ratio", "ratio"},
        {"metrics.slr_mean.heft", "ratio"},
        {"metrics.slr_mean.ils", "ratio"},
        {"metrics.slr_mean.ils-d", "ratio"},
        {"metrics.slr_mean.dsh", "ratio"},
        {"metrics.slr_mean.btdh", "ratio"},
        {"analysis.lint_errors", "count"},
        {"sim.makespan_mismatches", "count"},
        {"fail_share", "ratio"},
        {"serve.queue_wait_ms_p50", "ms"},
        {"serve.queue_wait_ms_p99", "ms"},
        {"serve.compute_ms_p50", "ms"},
        {"serve.compute_ms_p99", "ms"},
        {"serve.cache_lookup_ms_p50", "ms"},
        {"serve.total_ms_p50", "ms"},
        {"serve.total_ms_p99", "ms"},
        {"serve.hit_ratio", "ratio"},
        {"serve.computed_ratio", "ratio"},
        {"serve.coalesced", "count"},
        {"serve.cache_evictions", "count"},
        {"net.decode_request_us_p50", "us"},
        {"serve.materialize_us_p50", "us"},
        {"serve.fingerprint_us_p50", "us"},
        {"net.encode_response_us_p50", "us"},
        {"net.reactor_us_per_req", "us"},
        {"net.reactor_busy_share", "ratio"},
        {"net.bytes_in_per_req", "B"},
        {"net.bytes_out_per_req", "B"},
        {"net.backpressure_pauses", "count"},
        {"net.wire_ms_p50", "ms"},
        {"pool.busy_share", "ratio"},
        {"pool.queue_depth_max", "count"},
        {"pool.task_run_ms_p50", "ms"},
        {"gen.lag_p99_ms", "ms"},
        {"gen.backlog_end", "count"},
        {"gen.samples", "count"},
        {"trace.overhead_share", "ratio"},
    };
    return names;
}

namespace {

/// Put the workload's metrics into the canonical order.  With `fill`,
/// layers the workload does not exercise report 0; otherwise a missing
/// metric is a bug, as is a name outside the list.
bool canonicalize(Result& result, const std::vector<MetricName>& names, bool fill) {
    std::vector<Metric> ordered;
    std::set<std::string> known;
    for (const MetricName& n : names) {
        known.insert(n.name);
        Metric metric{n.name, 0.0, n.unit};
        bool found = false;
        for (const Metric& m : result.metrics) {
            if (m.name == n.name) {
                metric = m;
                found = true;
            }
        }
        if (!found && !fill) {
            std::fprintf(stderr, "tsched_perfbench: metric %s not measured\n", n.name);
            return false;
        }
        ordered.push_back(metric);
    }
    for (const Metric& m : result.metrics) {
        if (!known.count(m.name)) {
            std::fprintf(stderr, "tsched_perfbench: unlisted metric %s\n", m.name.c_str());
            return false;
        }
    }
    result.metrics = std::move(ordered);
    return true;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "tsched_perfbench: %s\nusage: tsched_perfbench --workload "
                 "offline-bign|wire-cold|wire-hot --seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") options.workload = value;
        else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace") options.trace = value == "1";
        else return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0) return usage("flags take one value each");
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

    Result result;
    try {
        if (options.workload == "offline-bign") result = run_offline(options);
        else if (options.workload == "wire-cold") result = run_wire(options, /*hot=*/false);
        else if (options.workload == "wire-hot") result = run_wire(options, /*hot=*/true);
        else return usage(("unknown workload '" + options.workload + "'").c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tsched_perfbench: %s\n", e.what());
        return 1;
    }
    if (!canonicalize(result, options.trace ? per_layer_metrics() : end_to_end_metrics(),
                      /*fill=*/options.trace))
        return 1;
    print_result(result);
    return result.correct() ? 0 : 1;
}
