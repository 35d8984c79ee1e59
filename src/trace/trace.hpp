// tsched_trace macro front-end: named spans and counters.
//
//   TSCHED_SPAN("rank/upward");          // RAII: times the enclosing scope
//   TSCHED_COUNT("eft_evaluations");     // counter += 1
//   TSCHED_COUNT_ADD("oct_cells", n);    // counter += n
//
// Every build is instrumented.  A counter hit costs one relaxed atomic add:
// the registry lookup (which takes the registry mutex) happens once per call
// site via a function-local static, for counters and spans alike, so names
// must be string literals.  Span timers additionally read the steady clock
// twice per scope and add twice (count and total) relaxed.
#pragma once

#include <chrono>

#include "trace/counters.hpp"

namespace tsched::trace {

/// RAII scope timer feeding a SpanTimer; spans may nest freely (each scope
/// accumulates into its own named timer).
class ScopedSpan {
public:
    explicit ScopedSpan(SpanTimer& timer) noexcept
        : timer_(timer), start_(std::chrono::steady_clock::now()) {}
    ~ScopedSpan() {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        timer_.add(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanTimer& timer_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace tsched::trace

#define TSCHED_TRACE_CONCAT_INNER(a, b) a##b
#define TSCHED_TRACE_CONCAT(a, b) TSCHED_TRACE_CONCAT_INNER(a, b)

// The capture-less lambda holds the per-site static; a name held in a local
// variable fails to compile (the lambda cannot capture it).
#define TSCHED_SPAN(name)                                                      \
    ::tsched::trace::ScopedSpan TSCHED_TRACE_CONCAT(tsched_scoped_span_,       \
                                                    __LINE__)(                 \
        []() -> ::tsched::trace::SpanTimer& {                                  \
            static ::tsched::trace::SpanTimer& timer =                         \
                ::tsched::trace::registry().span(name);                        \
            return timer;                                                      \
        }())

#define TSCHED_COUNT_ADD(name, delta)                                          \
    do {                                                                       \
        static ::tsched::trace::Counter& TSCHED_TRACE_CONCAT(tsched_counter_,  \
                                                             __LINE__) =       \
            ::tsched::trace::registry().counter(name);                         \
        TSCHED_TRACE_CONCAT(tsched_counter_, __LINE__)                         \
            .add(static_cast<std::uint64_t>(delta));                           \
    } while (0)

#define TSCHED_COUNT(name) TSCHED_COUNT_ADD(name, 1)
