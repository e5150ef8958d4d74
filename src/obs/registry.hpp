// The telemetry registry: named counters, counter vectors, histograms and
// histogram vectors, plus snapshotting with diff and text/JSON export.
//
// Handles returned by counter()/histogram() are stable for the registry's
// lifetime (instruments are never deleted), which is what lets the macros
// cache them in function-local statics. The process-wide registry() is a
// leaky singleton so allocator destructors running during static teardown
// can still bump counters safely.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/counter.hpp"
#include "obs/histogram.hpp"

namespace toma::obs {

/// A point-in-time, fully aggregated view of a Registry. Value type:
/// snapshots can be stored, diffed and exported after the registry moved
/// on (or was torn down).
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Activity since `before` (counters subtract; histogram buckets/counts
  /// subtract, min/max keep the later absolute values).
  Snapshot diff_since(const Snapshot& before) const;

  /// Derived ratios: for every counter pair `<base>.hit` / `<base>.miss`
  /// with hit+miss > 0, maps `<base>.hit_rate` to hit / (hit + miss).
  /// Computed on demand so stored snapshots stay purely integral.
  std::map<std::string, double> derived_rates() const;

  /// Human-readable report: counters sorted by name, histograms with
  /// count/mean/p50/p95/p99/max. Zero-valued counters are kept — absence
  /// of events is information too.
  std::string to_text() const;

  /// Machine-readable JSON:
  /// {"counters":{...},"derived":{...},"histograms":{...}}.
  std::string to_json() const;

  /// The body of to_json() without the enclosing braces
  /// (`"counters":{...},"derived":{...},"histograms":{...}`), so richer
  /// exports (obs/export.hpp) can embed the same representation next to
  /// their own sections without re-serializing.
  std::string to_json_body() const;

  /// to_json() to a file; false on I/O failure.
  bool write_json(const std::string& path) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Thread-safe; O(log n) map lookup — call once per
  /// call site and cache the reference (the macros do).
  Counter& counter(const std::string& name);
  CounterVec& counter_vec(const std::string& name, std::uint32_t width);
  Histogram& histogram(const std::string& name);
  HistogramVec& histogram_vec(const std::string& name, std::uint32_t width);

  /// Export a CounterSet's named counts until detach(); CounterSet's
  /// constructor and destructor call these when telemetry is compiled in.
  void attach(const CounterSet& set);
  /// Stop exporting `set`, folding its final counts into the retired
  /// totals so exported values stay cumulative across instance lifetimes.
  void detach(const CounterSet& set);

  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<const CounterSet*> sets_;
  std::map<std::string, std::uint64_t> retired_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<CounterVec>> counter_vecs_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<HistogramVec>> histogram_vecs_;
};

/// The process-wide registry every TOMA_* macro records into.
Registry& registry();

}  // namespace toma::obs
