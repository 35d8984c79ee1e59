// tsched_trace macro front-end: named counters.
//
//   TSCHED_COUNT("eft_evaluations");     // counter += 1
//   TSCHED_COUNT_ADD("oct_cells", n);    // counter += n
//
// Every build is instrumented.  A counter hit costs one relaxed atomic add:
// the registry lookup (which takes the registry mutex) happens once per call
// site via a function-local static, so names must be string literals.
// Scope timers are obs histograms (TSCHED_OBS_PHASE in obs/obs.hpp).
#pragma once

#include "trace/counters.hpp"

#define TSCHED_TRACE_CONCAT_INNER(a, b) a##b
#define TSCHED_TRACE_CONCAT(a, b) TSCHED_TRACE_CONCAT_INNER(a, b)

#define TSCHED_COUNT_ADD(name, delta)                                          \
    do {                                                                       \
        static ::tsched::trace::Counter& TSCHED_TRACE_CONCAT(tsched_counter_,  \
                                                             __LINE__) =       \
            ::tsched::trace::registry().counter(name);                         \
        TSCHED_TRACE_CONCAT(tsched_counter_, __LINE__)                         \
            .add(static_cast<std::uint64_t>(delta));                           \
    } while (0)

#define TSCHED_COUNT(name) TSCHED_COUNT_ADD(name, 1)
