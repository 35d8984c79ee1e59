// obs macro front-end: metric recording into the process-wide registry.
//
//   TSCHED_OBS_RECORD("sched/phase/rank_ms", ms);   // histogram record
//   TSCHED_OBS_PHASE("sched/phase/rank_ms");        // RAII: records the
//                                                   // enclosing scope's ms
//   TSCHED_OBS_GAUGE_SET("pool/queue_depth", n);    // gauge = n
//
// All name-based macros record into the process-wide obs::registry().
// Components with their own MetricsRegistry (ServeEngine) cache instrument
// references as members and call record() on them directly.
//
// TSCHED_OBS_PHASE is the library's only scope timer: scheduler entry points
// ("sched/heft_ms"), scheduling phases ("sched/phase/rank_ms") and simulator
// runs ("sim/simulate_ms").  Phases nest freely; each scope records into its
// own histogram.  Counters stay in trace/ (TSCHED_COUNT).
//
// Every macro costs the registry lookup once per call site (a function-local
// static, so names must be string literals), then one bucket computation
// and relaxed atomic add per hit; a phase also reads the steady clock twice.
#pragma once

#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace tsched::obs {

/// RAII scope timer feeding a LatencyHistogram in milliseconds.
class ScopedPhase {
public:
    explicit ScopedPhase(LatencyHistogram& hist) noexcept : hist_(hist) {}
    ~ScopedPhase() { hist_.record(watch_.elapsed_ms()); }
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

private:
    LatencyHistogram& hist_;
    Stopwatch watch_;
};

}  // namespace tsched::obs

#define TSCHED_OBS_CONCAT_INNER(a, b) a##b
#define TSCHED_OBS_CONCAT(a, b) TSCHED_OBS_CONCAT_INNER(a, b)

#define TSCHED_OBS_RECORD(name, value_ms)                                      \
    do {                                                                       \
        static ::tsched::obs::LatencyHistogram& TSCHED_OBS_CONCAT(             \
            tsched_obs_hist_, __LINE__) =                                      \
            ::tsched::obs::registry().histogram(name);                         \
        TSCHED_OBS_CONCAT(tsched_obs_hist_, __LINE__)                          \
            .record(static_cast<double>(value_ms));                            \
    } while (0)

// The capture-less lambda holds the per-site static; a name held in a local
// variable fails to compile (the lambda cannot capture it).
#define TSCHED_OBS_PHASE(name)                                                 \
    ::tsched::obs::ScopedPhase TSCHED_OBS_CONCAT(tsched_obs_phase_, __LINE__)( \
        []() -> ::tsched::obs::LatencyHistogram& {                             \
            static ::tsched::obs::LatencyHistogram& tsched_obs_site =          \
                ::tsched::obs::registry().histogram(name);                     \
            return tsched_obs_site;                                            \
        }())

#define TSCHED_OBS_GAUGE_SET(name, value)                                      \
    do {                                                                       \
        static ::tsched::obs::Gauge& TSCHED_OBS_CONCAT(tsched_obs_gauge_,      \
                                                       __LINE__) =             \
            ::tsched::obs::registry().gauge(name);                             \
        TSCHED_OBS_CONCAT(tsched_obs_gauge_, __LINE__)                         \
            .set(static_cast<double>(value));                                  \
    } while (0)

#define TSCHED_OBS_GAUGE_ADD(name, delta)                                      \
    do {                                                                       \
        static ::tsched::obs::Gauge& TSCHED_OBS_CONCAT(tsched_obs_gauge_,      \
                                                       __LINE__) =             \
            ::tsched::obs::registry().gauge(name);                             \
        TSCHED_OBS_CONCAT(tsched_obs_gauge_, __LINE__)                         \
            .add(static_cast<double>(delta));                                  \
    } while (0)
