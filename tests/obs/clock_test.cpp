// The latency clock (obs::now_ns): agreement with steady_clock, per-thread
// monotonicity, the saturating interval helper, and the steady_clock
// fallback source.
#include "obs/context.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "gpusim/this_thread.hpp"
#include "obs/histogram.hpp"
#include "support/test_support.hpp"

namespace toma::obs {
namespace {

/// now_ns() read between two steady_now_ns() reads; retried until the
/// bracket is tight, so a preemption between the reads cannot pose as
/// clock error.
struct Bracketed {
  std::uint64_t lo, now, hi;
};
Bracketed bracketed_read() {
  for (;;) {
    const std::uint64_t lo = steady_now_ns();
    const std::uint64_t now = now_ns();
    const std::uint64_t hi = steady_now_ns();
    if (hi - lo < 20'000) return {lo, now, hi};
  }
}

TEST(Clock, NowTracksSteadyClockOverASleep) {
  const Bracketed a = bracketed_read();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  const Bracketed b = bracketed_read();
  const double measured = static_cast<double>(elapsed_ns(a.now, b.now));
  // The steady_clock interval lies between the inner and outer bracket
  // ends; allow 0.5% of it on either side.
  const double inner = static_cast<double>(b.lo - a.hi);
  const double outer = static_cast<double>(b.hi - a.lo);
  ASSERT_GE(inner, 20e6);
  EXPECT_GE(measured, inner * 0.995) << "outer " << outer;
  EXPECT_LE(measured, outer * 1.005) << "inner " << inner;
}

TEST(Clock, NowNeverDecreasesWithinAThread) {
  std::uint64_t prev = now_ns();
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t cur = now_ns();
    ASSERT_GE(cur, prev) << "read " << i;
    prev = cur;
  }
}

TEST(Clock, ElapsedSaturatesAtZero) {
  EXPECT_EQ(elapsed_ns(100, 250), 150u);
  EXPECT_EQ(elapsed_ns(250, 250), 0u);
  EXPECT_EQ(elapsed_ns(250, 100), 0u);
  EXPECT_EQ(elapsed_ns(~std::uint64_t{0}, 0), 0u);
  EXPECT_EQ((OpSpan{250, 100}.ns()), 0u);
  EXPECT_EQ((OpSpan{100, 250}.ns()), 150u);
}

TEST(Clock, SteadyFallbackIsSane) {
  const auto chrono_ns = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  const std::uint64_t lo = chrono_ns();
  const std::uint64_t s = steady_now_ns();
  const std::uint64_t hi = chrono_ns();
  EXPECT_GT(s, 0u);
  EXPECT_GE(s, lo);
  EXPECT_LE(s, hi);
  std::uint64_t prev = s;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t cur = steady_now_ns();
    ASSERT_GE(cur, prev);
    prev = cur;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(steady_now_ns() - s, 2'000'000u);
}

TEST(Clock, FibersMigratingBetweenReadsRecordNoWrappedInterval) {
  // Each fiber reads t0, yields (and may resume on another worker, whose
  // CPU's counter may be slightly behind), then records the interval:
  // every sample must be a plausible duration, never a wrapped 2^64 one.
  Histogram h;
  gpu::Device dev(test::small_device(/*num_sms=*/4, 512, /*workers=*/4));
  constexpr std::uint64_t kThreads = 2048;
  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx&) {
    const std::uint64_t t0 = now_ns();
    gpu::this_thread::yield();
    h.record(elapsed_ns(t0, now_ns()));
  });
  const HistogramSnapshot hs = h.snapshot();
  EXPECT_EQ(hs.count, kThreads);
  EXPECT_LT(hs.max, std::uint64_t{60} * 1'000'000'000);
}

}  // namespace
}  // namespace toma::obs
