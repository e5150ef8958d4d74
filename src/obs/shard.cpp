#include "obs/shard.hpp"

#include <bit>

#include "util/hints.hpp"

namespace toma::obs {

namespace {

constexpr std::uint32_t kUnleased = 0xffffffffu;
constexpr std::uint64_t kOwnedMask = (std::uint64_t{1} << kOwnedSlots) - 1;

// Bit i set = slot i leased. Acquire on lease / release on return hands
// the previous owner's shard contents to the next one.
std::atomic<std::uint64_t> g_leased{0};

thread_local std::uint32_t tl_slot = kUnleased;

struct Lease {
  std::uint32_t slot = kOverflowSlot;
  ~Lease() {
    if (slot != kOverflowSlot) {
      g_leased.fetch_and(~(std::uint64_t{1} << slot),
                         std::memory_order_release);
    }
    // Whatever this thread still records during its exit goes to the
    // shared shard: the slot may already belong to another thread.
    tl_slot = kOverflowSlot;
  }
};

TOMA_NOINLINE std::uint32_t lease_slot() {
  static thread_local Lease lease;
  std::uint64_t cur = g_leased.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t free = ~cur & kOwnedMask;
    if (free == 0) break;
    const auto s = static_cast<std::uint32_t>(std::countr_zero(free));
    if (g_leased.compare_exchange_weak(cur, cur | (std::uint64_t{1} << s),
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      lease.slot = s;
      break;
    }
  }
  tl_slot = lease.slot;
  return lease.slot;
}

}  // namespace

// Out of line on purpose: an inlined thread_local read could be hoisted
// across a fiber yield, and the fiber may resume on another OS thread.
TOMA_NOINLINE std::uint32_t thread_slot() {
  const std::uint32_t s = tl_slot;
  return TOMA_LIKELY(s != kUnleased) ? s : lease_slot();
}

std::uint32_t leased_slots() {
  return static_cast<std::uint32_t>(
      std::popcount(g_leased.load(std::memory_order_relaxed)));
}

}  // namespace toma::obs
