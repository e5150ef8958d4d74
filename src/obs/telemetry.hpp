// Telemetry entry points: compile-time-gated macros over the obs registry.
//
// Design rules (docs/OBSERVABILITY.md):
//
//   * Counters and histograms are cache-line sharded by OS thread
//     (obs/shard.hpp, aggregated on read) so instrumentation does not
//     perturb the contention it measures.
//   * Every macro resolves its registry handle once per call site via a
//     function-local static, so the steady-state cost of a counter bump is
//     a relaxed load + store on a shard only the calling thread writes.
//   * A component's own stats() counts live in an obs::CounterSet, which
//     also exports them: an event is counted once, never also through a
//     TOMA_CTR_* macro.
//   * With -DTOMA_TELEMETRY=0 every macro expands to a no-op that does not
//     evaluate its arguments; the obs *classes* still compile (and tests
//     exercise them) but no instrumented hot path touches them.
#pragma once

#include <cstdint>

#ifndef TOMA_TELEMETRY
#define TOMA_TELEMETRY 1  // CMake option TOMA_TELEMETRY (default ON)
#endif

#include "obs/context.hpp"   // IWYU pragma: export
#include "obs/registry.hpp"  // IWYU pragma: export
#include "obs/trace.hpp"     // IWYU pragma: export

#define TOMA_OBS_CAT2(a, b) a##b
#define TOMA_OBS_CAT(a, b) TOMA_OBS_CAT2(a, b)

#if TOMA_TELEMETRY

/// Bump a named sharded counter by `n`.
#define TOMA_CTR_ADD(name, n)                                             \
  do {                                                                    \
    static ::toma::obs::Counter& toma_obs_c_ =                            \
        ::toma::obs::registry().counter(name);                            \
    toma_obs_c_.add(n);                                                   \
  } while (0)
#define TOMA_CTR_INC(name) TOMA_CTR_ADD(name, 1)

/// Bump element `idx` of a fixed-width counter vector (exported as
/// "name[idx]"); out-of-range indices clamp to the last element.
#define TOMA_CTRV_INC(name, width, idx)                                   \
  do {                                                                    \
    static ::toma::obs::CounterVec& toma_obs_cv_ =                        \
        ::toma::obs::registry().counter_vec(name, width);                 \
    toma_obs_cv_.at(idx).inc();                                           \
  } while (0)

/// Record `value` into a named log2-bucketed histogram.
#define TOMA_HIST(name, value)                                            \
  do {                                                                    \
    static ::toma::obs::Histogram& toma_obs_h_ =                          \
        ::toma::obs::registry().histogram(name);                          \
    toma_obs_h_.record(value);                                            \
  } while (0)

/// Record into element `idx` of a histogram vector ("name[idx]").
#define TOMA_HISTV(name, width, idx, value)                               \
  do {                                                                    \
    static ::toma::obs::HistogramVec& toma_obs_hv_ =                      \
        ::toma::obs::registry().histogram_vec(name, width);               \
    toma_obs_hv_.at(idx).record(value);                                   \
  } while (0)

/// Wall-clock ns (0 when telemetry is compiled out, letting timing code
/// fold away). Pair with TOMA_HIST(name, TOMA_ELAPSED_NS(t0)).
#define TOMA_NOW_NS() ::toma::obs::now_ns()
/// ns since `t0` (a TOMA_NOW_NS() reading), saturating at 0.
#define TOMA_ELAPSED_NS(t0) ::toma::obs::elapsed_ns(t0, ::toma::obs::now_ns())

/// RAII: record the enclosing scope's duration (ns) into `name`.
#define TOMA_SCOPED_TIMER(name)                                           \
  static ::toma::obs::Histogram& TOMA_OBS_CAT(toma_obs_th_, __LINE__) =   \
      ::toma::obs::registry().histogram(name);                            \
  ::toma::obs::ScopedTimer TOMA_OBS_CAT(toma_obs_t_, __LINE__)(           \
      TOMA_OBS_CAT(toma_obs_th_, __LINE__))

/// Trace events (no-ops unless tracing was enabled at runtime). `name`
/// must be a string literal (the pointer is stored, not the contents).
#define TOMA_TRACE(name, arg)                                             \
  ::toma::obs::trace_event(name, ::toma::obs::TracePhase::kInstant, arg)
#define TOMA_TRACE_BEGIN(name, id)                                        \
  ::toma::obs::trace_event(name, ::toma::obs::TracePhase::kBegin, id)
#define TOMA_TRACE_END(name, id)                                          \
  ::toma::obs::trace_event(name, ::toma::obs::TracePhase::kEnd, id)

/// Scheduler hooks (tick source + fiber identity).
#define TOMA_OBS_TICK() ::toma::obs::advance_tick()
#define TOMA_OBS_SET_THREAD(sm, warp) ::toma::obs::set_thread_context(sm, warp)
#define TOMA_OBS_CLEAR_THREAD() ::toma::obs::clear_thread_context()

#else  // !TOMA_TELEMETRY — every macro is a no-op; arguments unevaluated.

#define TOMA_CTR_ADD(name, n) ((void)0)
#define TOMA_CTR_INC(name) ((void)0)
#define TOMA_CTRV_INC(name, width, idx) ((void)0)
#define TOMA_HIST(name, value) ((void)0)
#define TOMA_HISTV(name, width, idx, value) ((void)0)
#define TOMA_NOW_NS() (std::uint64_t{0})
#define TOMA_ELAPSED_NS(t0) (std::uint64_t{0})
#define TOMA_SCOPED_TIMER(name) ((void)0)
#define TOMA_TRACE(name, arg) ((void)0)
#define TOMA_TRACE_BEGIN(name, id) ((void)0)
#define TOMA_TRACE_END(name, id) ((void)0)
#define TOMA_OBS_TICK() ((void)0)
#define TOMA_OBS_SET_THREAD(sm, warp) ((void)0)
#define TOMA_OBS_CLEAR_THREAD() ((void)0)

#endif  // TOMA_TELEMETRY
