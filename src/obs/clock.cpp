#include "obs/context.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace toma::obs::detail {

namespace {

#if defined(__x86_64__)
/// Calibration window: long enough that the ~20 ns uncertainty of each
/// endpoint pair is 1e-5 of it, short enough not to be noticed at start-up.
constexpr std::uint64_t kCalibrationNs = 2'000'000;

bool invariant_tsc() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  // CPUID.80000007H:EDX[8]; __get_cpuid returns 0 if the leaf is absent.
  return __get_cpuid(0x80000007u, &a, &b, &c, &d) != 0 && (d & (1u << 8));
}

struct Sample {
  std::uint64_t tsc;
  std::uint64_t ns;
};

/// One (TSC, steady_clock) pair: the steady read bracketed by two TSC
/// reads, keeping the tightest bracket of a few tries so a preemption
/// inside one try does not skew the pair.
Sample sample() {
  Sample best{0, 0};
  std::uint64_t best_width = ~std::uint64_t{0};
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t a = __rdtsc();
    const std::uint64_t ns = steady_now_ns();
    const std::uint64_t b = __rdtsc();
    if (b >= a && b - a < best_width) {
      best_width = b - a;
      best = {a + (b - a) / 2, ns};
    }
  }
  return best;
}
#endif

}  // namespace

TscScale calibrate_tsc() {
#if defined(__x86_64__)
  if (!invariant_tsc()) return {};
  const Sample s0 = sample();
  while (steady_now_ns() - s0.ns < kCalibrationNs) {
  }
  const Sample s1 = sample();
  if (s1.tsc <= s0.tsc || s1.ns <= s0.ns) return {};
  using u128 = unsigned __int128;
  const auto mult = static_cast<std::uint64_t>(
      (static_cast<u128>(s1.ns - s0.ns) << 32) / (s1.tsc - s0.tsc));
  if (mult == 0) return {};
  const auto scaled =
      static_cast<std::uint64_t>((static_cast<u128>(s1.tsc) * mult) >> 32);
  return {mult, s1.ns - scaled};
#else
  return {};
#endif
}

namespace {
// Calibrate during static initialisation, before main() starts timing
// anything. tsc_scale()'s function-local static keeps this safe whatever
// order the initialisers run in.
[[maybe_unused]] const bool g_calibrated = (tsc_scale(), true);
}  // namespace

}  // namespace toma::obs::detail
