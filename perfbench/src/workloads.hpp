// The benchmark's workloads (perfbench/README.md explains each one).
#pragma once

#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// offline-bign: single-threaded scheduling of a seeded corpus of large DAGs.
[[nodiscard]] Result run_offline(const Options& options);

/// wire-cold / wire-hot: open-loop load against an in-process ServeServer.
[[nodiscard]] Result run_wire(const Options& options, bool hot);

struct MetricName {
    const char* name;
    const char* unit;
};

/// Every metric a run reports, in print order.  run.py checks these against
/// BENCHMARK.json.
[[nodiscard]] const std::vector<MetricName>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricName>& per_layer_metrics();

}  // namespace perfbench
