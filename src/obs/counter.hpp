// Sharded monotonic counters.
//
// Counter: one cache-line shard per OS thread (obs/shard.hpp), so a bump
// is a relaxed load + store on a line only the bumping thread writes —
// instrumentation adds neither locked RMWs nor cross-thread cache traffic
// to the contention it measures. Reads aggregate all shards and are
// approximate under concurrency (like every other statistics read in the
// allocator).
//
// CounterSet: the same scheme for one component instance's fixed set of
// event counts (an allocator layer's stats()), shard-major so one bump
// touches one line of the calling thread's. With telemetry compiled in a
// set also exports its named counts through the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/shard.hpp"
#include "util/assert.hpp"
#include "util/hints.hpp"

namespace toma::obs {

class Counter {
 public:
  static constexpr std::uint32_t kShards = kThreadShards;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) {
    const std::uint32_t s = thread_slot();
    shard_add(shards_[s].v, n, s);
  }
  void inc() { add(1); }

  /// Aggregate over shards. O(kShards); intended for snapshots, not hot
  /// paths.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  // --- test introspection --------------------------------------------------
  static constexpr std::uint32_t shard_count() { return kShards; }
  std::uint64_t shard_value(std::uint32_t i) const {
    TOMA_DASSERT(i < kShards);
    return shards_[i].v.load(std::memory_order_relaxed);
  }

 private:
  struct TOMA_CACHELINE_ALIGNED Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// A fixed-width array of counters under one name, exported as "name[i]".
/// Used for per-order / per-size-class breakdowns where the index is only
/// known at runtime. Out-of-range indices clamp to the last element so an
/// unexpected order can never write out of bounds.
class CounterVec {
 public:
  explicit CounterVec(std::uint32_t width) : counters_(width) {
    TOMA_ASSERT(width > 0);
  }
  CounterVec(const CounterVec&) = delete;
  CounterVec& operator=(const CounterVec&) = delete;

  Counter& at(std::uint32_t i) {
    const auto w = static_cast<std::uint32_t>(counters_.size());
    return counters_[i < w ? i : w - 1];
  }
  std::uint32_t width() const {
    return static_cast<std::uint32_t>(counters_.size());
  }
  const Counter& get(std::uint32_t i) const { return counters_[i]; }

 private:
  std::vector<Counter> counters_;
};

/// One component instance's event counts (e.g. one allocator layer's
/// stats()), each counted once. Shard-major over thread slots: the
/// calling thread's counts sit on lines of its own. `names[i]` is the
/// registry counter count i exports under while telemetry is compiled
/// in — summed over live sets, plus the totals of destroyed ones, so an
/// exported value stays cumulative; an empty name keeps the count for
/// stats() only.
class CounterSet {
 public:
  static constexpr std::uint32_t kShards = kThreadShards;

  explicit CounterSet(std::vector<std::string> names);
  ~CounterSet();
  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;

  void add(std::uint32_t i, std::uint64_t n) {
    TOMA_DASSERT(i < size());
    const std::uint32_t s = thread_slot();
    shard_add(cell(s, i), n, s);
  }
  void inc(std::uint32_t i) { add(i, 1); }

  /// Aggregate of count i over shards (snapshot-grade, like Counter).
  std::uint64_t value(std::uint32_t i) const;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(names_.size());
  }
  const std::string& name(std::uint32_t i) const { return names_[i]; }

 private:
  struct TOMA_CACHELINE_ALIGNED Line {
    std::atomic<std::uint64_t> v[util::kCacheLine / 8] = {};
  };
  static constexpr std::uint32_t kPerLine = util::kCacheLine / 8;

  std::atomic<std::uint64_t>& cell(std::uint32_t shard, std::uint32_t i) {
    return lines_[shard * lines_per_shard_ + i / kPerLine].v[i % kPerLine];
  }
  const std::atomic<std::uint64_t>& cell(std::uint32_t shard,
                                         std::uint32_t i) const {
    return lines_[shard * lines_per_shard_ + i / kPerLine].v[i % kPerLine];
  }

  std::vector<std::string> names_;
  std::uint32_t lines_per_shard_;
  std::unique_ptr<Line[]> lines_;
};

}  // namespace toma::obs
