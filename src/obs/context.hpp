// Thread/fiber identity and time sources for the obs layer.
//
// obs sits between util and gpusim, so it cannot ask the simulator "which
// SM am I on?". Instead the scheduler pushes the identity of the fiber it
// is about to resume down through set_thread_context(); host threads
// (tests, benchmark setup) fall back to a stable hash of their OS thread
// id. Everything here is header-only and dependency-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace toma::obs {

/// SM-routed shards (epoch pins, trace rings; the counters and histograms
/// shard by OS thread instead, obs/shard.hpp). Fixed so handles need no
/// device knowledge; SM ids map onto shards modulo kShards (64 covers
/// every simulated device in-tree).
inline constexpr std::uint32_t kShards = 64;

namespace detail {

inline constexpr std::uint32_t kNoSm = 0xffffffffu;

// Set by the gpusim scheduler around every fiber resume; kNoSm on host
// threads.
inline thread_local std::uint32_t tl_sm = kNoSm;
inline thread_local std::uint32_t tl_warp = 0;

inline std::uint32_t host_thread_shard() {
  static thread_local const std::uint32_t shard = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards);
  return shard;
}

}  // namespace detail

/// Shard index for the calling context: the resident SM inside a kernel, a
/// stable hash of the OS thread id outside one.
inline std::uint32_t current_shard() {
  const std::uint32_t sm = detail::tl_sm;
  if (sm != detail::kNoSm) return sm % kShards;
  return detail::host_thread_shard();
}

/// Scheduler hook: publish the identity of the fiber about to run.
inline void set_thread_context(std::uint32_t sm, std::uint32_t warp) {
  detail::tl_sm = sm;
  detail::tl_warp = warp;
}

inline void clear_thread_context() { detail::tl_sm = detail::kNoSm; }

/// SM/warp of the calling context (trace record identity). Host threads
/// report kShards + shard so traces distinguish them from real SMs.
inline std::uint32_t current_sm() {
  const std::uint32_t sm = detail::tl_sm;
  return sm != detail::kNoSm ? sm : kShards + detail::host_thread_shard();
}
inline std::uint32_t current_warp() {
  return detail::tl_sm != detail::kNoSm ? detail::tl_warp : 0;
}

// --- monotonic tick source -------------------------------------------------
//
// The simulated-time axis for trace records: each SM scheduling round
// advances it by one, giving every trace event a globally ordered,
// scheduler-quantum-resolution timestamp (wall clock would interleave
// host noise into the simulated timeline).

namespace detail {
inline std::atomic<std::uint64_t> g_tick{0};
}

inline std::uint64_t current_tick() {
  return detail::g_tick.load(std::memory_order_relaxed);
}

inline std::uint64_t advance_tick() {
  return detail::g_tick.fetch_add(1, std::memory_order_relaxed) + 1;
}

// --- wall clock ------------------------------------------------------------
//
// Latency histograms measure real time a request was in flight (latencies
// span fiber suspensions). On x86-64 with an invariant TSC (constant rate,
// ticking through C-states) the source is the TSC itself: one rdtsc and a
// 64x64->128 fixed-point multiply, about 60% of the cost of a vDSO
// steady_clock read. The scale is calibrated once per process against
// steady_clock. Elsewhere, and on CPUs without an invariant TSC, now_ns()
// reads steady_clock; the choice is made once, at calibration.

/// steady_clock in ns: now_ns()'s source without an invariant TSC, and the
/// reference the TSC is calibrated against.
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {

/// ns = (tsc * mult) >> 32 + offset, with mult in ns per tick as 32.32
/// fixed point; offset aligns now_ns() with steady_now_ns() at the end of
/// calibration. mult == 0: no usable TSC, now_ns() reads steady_clock.
struct TscScale {
  std::uint64_t mult = 0;
  std::uint64_t offset = 0;
};

/// Checks CPUID for an invariant TSC and, if there is one, measures its
/// rate against steady_clock over a ~2 ms spin (obs/clock.cpp).
TscScale calibrate_tsc();

/// Calibrated once, on first use; obs/clock.cpp also forces that first use
/// during static initialisation, so no timed region ever pays for it.
inline const TscScale& tsc_scale() {
  static const TscScale scale = calibrate_tsc();
  return scale;
}

}  // namespace detail

/// Wall-clock nanoseconds for latency histograms. Only differences are
/// meaningful; take them with elapsed_ns().
inline std::uint64_t now_ns() {
#if defined(__x86_64__)
  const detail::TscScale& s = detail::tsc_scale();
  if (s.mult != 0) {
    const auto scaled = static_cast<unsigned __int128>(__rdtsc()) * s.mult;
    return static_cast<std::uint64_t>(scaled >> 32) + s.offset;
  }
#endif
  return steady_now_ns();
}

/// t1 - t0, saturating at 0. Every latency interval goes through here:
/// the TSCs of two CPUs may be slightly skewed, and a fiber stolen to
/// another worker between its two reads must record a 0, not a wrapped
/// 2^64 sample.
inline std::uint64_t elapsed_ns(std::uint64_t t0, std::uint64_t t1) {
  return t1 > t0 ? t1 - t0 : 0;
}

/// Start and end (now_ns) of one timed operation, handed from the layer
/// that timed it to a front-end reporting the same interval, so one
/// operation reads the clock once at each end.
struct OpSpan {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t ns() const { return elapsed_ns(t0, t1); }
};

}  // namespace toma::obs
