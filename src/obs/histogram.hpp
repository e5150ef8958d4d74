// Log2-bucketed latency/value histograms with quantile extraction.
//
// Bucket b == 0 holds the value 0; bucket b >= 1 holds values in
// [2^(b-1), 2^b). 48 buckets cover values up to 2^47 (~1.6 days in ns).
// Layout is shard-major — each shard owns a contiguous bucket array — and
// shards are owned by OS thread (obs/shard.hpp): a recording thread
// writes only lines of its own shard, with plain loads and stores. A
// shard is allocated the first time a thread of its slot records, so a
// histogram costs memory for the slots that record into it, not for all
// kThreadShards.
//
// Quantiles are extracted from the aggregated bucket counts with linear
// interpolation inside the winning bucket: exact enough for p50/p95/p99
// reporting (the bucket bounds are within 2x of the true value by
// construction; interpolation tightens typical error well below that).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "obs/context.hpp"
#include "obs/shard.hpp"
#include "util/assert.hpp"
#include "util/hints.hpp"

namespace toma::obs {

inline constexpr std::uint32_t kHistBuckets = 48;

/// Bucket index for a value (see the bucket-bound convention above).
constexpr std::uint32_t hist_bucket_of(std::uint64_t v) {
  const auto b = static_cast<std::uint32_t>(std::bit_width(v));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

/// Inclusive lower bound of a bucket.
constexpr std::uint64_t hist_bucket_lo(std::uint32_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

/// Exclusive upper bound of a bucket.
constexpr std::uint64_t hist_bucket_hi(std::uint32_t b) {
  return b == 0 ? 1 : std::uint64_t{1} << b;
}

/// Aggregated, immutable view of a histogram (also the unit of snapshot
/// diffing and JSON export).
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Interpolated quantile, q in [0, 1]. 0.0 on an empty histogram; q == 1
  /// returns the exact recorded max (no interpolation error at the top).
  double quantile(double q) const {
    TOMA_DASSERT(q >= 0.0 && q <= 1.0);
    if (count == 0) return 0.0;
    if (q >= 1.0) return static_cast<double>(max);
    const double rank = q * static_cast<double>(count - 1);
    std::uint64_t cum = 0;
    for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
      if (buckets[b] == 0) continue;
      const double lo_rank = static_cast<double>(cum);
      cum += buckets[b];
      if (rank < static_cast<double>(cum)) {
        if (b == 0) return 0.0;
        const double frac =
            (rank - lo_rank) / static_cast<double>(buckets[b]);
        const double lo = static_cast<double>(hist_bucket_lo(b));
        const double hi = static_cast<double>(hist_bucket_hi(b));
        // Interpolation assumes samples spread across the whole bucket;
        // clamp so a quantile never reports outside the observed range.
        const double v = lo + frac * (hi - lo);
        return std::min(std::max(v, static_cast<double>(min)),
                        static_cast<double>(max));
      }
    }
    return static_cast<double>(max);  // rank beyond last bucket (q == 1)
  }

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// This snapshot minus an earlier one (counts/sums subtract; min/max are
  /// not recoverable for an interval, so the later absolute values stand).
  HistogramSnapshot diff_since(const HistogramSnapshot& before) const {
    HistogramSnapshot d = *this;
    for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
      d.buckets[b] -= before.buckets[b] <= d.buckets[b] ? before.buckets[b]
                                                        : d.buckets[b];
    }
    d.count -= before.count <= d.count ? before.count : d.count;
    d.sum -= before.sum <= d.sum ? before.sum : d.sum;
    return d;
  }
};

class Histogram {
 public:
  Histogram() = default;
  ~Histogram() {
    for (auto& p : shards_) delete p.load(std::memory_order_relaxed);
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t v) {
    const std::uint32_t slot = thread_slot();
    Shard* sp = shards_[slot].load(std::memory_order_acquire);
    Shard& s = TOMA_LIKELY(sp != nullptr) ? *sp : install(slot);
    shard_add(s.buckets[hist_bucket_of(v)], 1, slot);
    shard_add(s.sum, v, slot);
    if (slot != kOverflowSlot) {
      if (v < s.min.load(std::memory_order_relaxed)) {
        s.min.store(v, std::memory_order_relaxed);
      }
      if (v > s.max.load(std::memory_order_relaxed)) {
        s.max.store(v, std::memory_order_relaxed);
      }
    } else {
      relax_min(s.min, v);
      relax_max(s.max, v);
    }
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot out;
    std::uint64_t mn = UINT64_MAX;
    for (const auto& p : shards_) {
      const Shard* sp = p.load(std::memory_order_acquire);
      if (sp == nullptr) continue;
      const Shard& s = *sp;
      for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
        const std::uint64_t n = s.buckets[b].load(std::memory_order_relaxed);
        out.buckets[b] += n;
        out.count += n;
      }
      out.sum += s.sum.load(std::memory_order_relaxed);
      const std::uint64_t smin = s.min.load(std::memory_order_relaxed);
      const std::uint64_t smax = s.max.load(std::memory_order_relaxed);
      if (smin < mn) mn = smin;
      if (smax > out.max) out.max = smax;
    }
    out.min = out.count == 0 ? 0 : mn;
    return out;
  }

 private:
  struct TOMA_CACHELINE_ALIGNED Shard {
    std::atomic<std::uint64_t> buckets[kHistBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{UINT64_MAX};
    std::atomic<std::uint64_t> max{0};
  };

  // First record from a slot: publish a fresh shard. Only the overflow
  // slot can race here (an owned slot has one live thread), and the
  // loser of that race frees its copy.
  TOMA_NOINLINE Shard& install(std::uint32_t slot) {
    Shard* fresh = new Shard;
    Shard* cur = nullptr;
    if (shards_[slot].compare_exchange_strong(cur, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return *fresh;
    }
    delete fresh;
    return *cur;
  }

  static void relax_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }
  static void relax_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }

  std::atomic<Shard*> shards_[kThreadShards] = {};
};

/// RAII scope timer recording elapsed wall-clock ns into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) : h_(h), t0_(now_ns()) {}
  ~ScopedTimer() { h_.record(elapsed_ns(t0_, now_ns())); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& h_;
  std::uint64_t t0_;
};

/// Fixed-width histogram array under one name ("name[i]"); same clamping
/// rule as CounterVec.
class HistogramVec {
 public:
  explicit HistogramVec(std::uint32_t width) : hists_(width) {
    TOMA_ASSERT(width > 0);
  }
  HistogramVec(const HistogramVec&) = delete;
  HistogramVec& operator=(const HistogramVec&) = delete;

  Histogram& at(std::uint32_t i) {
    const auto w = static_cast<std::uint32_t>(hists_.size());
    return hists_[i < w ? i : w - 1];
  }
  std::uint32_t width() const {
    return static_cast<std::uint32_t>(hists_.size());
  }
  const Histogram& get(std::uint32_t i) const { return hists_[i]; }

 private:
  std::vector<Histogram> hists_;
};

}  // namespace toma::obs
