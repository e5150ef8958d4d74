// Shared pieces of the benchmark program: seeded input generation, the
// block stamp used by the correctness gate, robust statistics, the span
// recorder of the traced run, and the result/metric containers.
//
// Everything here sits outside the library: spans wrap calls into the
// public surfaces (gpu::Device::launch*, GpuAllocator::malloc/free, the
// toma_* C API) and counts come from public stats()/registry snapshots.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace perfbench {

namespace obs = toma::obs;

// --- seeded inputs -----------------------------------------------------------

/// splitmix64 finalizer: a stateless hash, so a size or stamp derives from
/// (seed, thread, round) alone and never from scheduling or addresses.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
inline std::uint64_t mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix(mix(mix(a) ^ b) ^ c);
}

/// Sequential splitmix64 stream (the host workload's generator).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() { return mix(s += 0x9e3779b97f4a7c15ull); }
  std::uint32_t below(std::uint32_t n) {
    return n != 0 ? static_cast<std::uint32_t>(next() % n) : 0;
  }
  bool chance(std::uint32_t percent) { return below(100) < percent; }
};

// --- block stamps --------------------------------------------------------------

/// Write `pattern` into the first and last 8 bytes of a block of `size`
/// (>= 8) requested bytes (the two overlap below 16 bytes; the tail is
/// written last). Two live blocks that overlap clobber each other's
/// stamps, which check_stamp() catches before the free.
inline void stamp(void* p, std::size_t size, std::uint64_t pattern) {
  auto* b = static_cast<unsigned char*>(p);
  std::memcpy(b, &pattern, 8);
  std::memcpy(b + size - 8, &pattern, 8);
}
inline bool check_stamp(const void* p, std::size_t size,
                        std::uint64_t pattern) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t tail = 0;
  std::memcpy(&tail, b + size - 8, 8);
  // Head bytes the tail did not overwrite.
  const std::size_t head = size - 8 < 8 ? size - 8 : 8;
  return tail == pattern && std::memcmp(b, &pattern, head) == 0;
}

// --- time ----------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}
inline double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v);

/// Quantile estimate of integer latency samples: the mean of the order
/// statistics whose rank lies within +-0.5 percentage points of q. A
/// single order statistic is an integer nanosecond count that can repeat
/// exactly between runs; the window mean keeps every digit of the data.
/// Reorders `v`. 0 when `v` is empty.
double window_quantile(std::vector<std::uint32_t>& v, double q);

/// Uniform sample of at most kCapacity latency values from an unbounded
/// stream (reservoir sampling with a seeded generator). The buffer is
/// allocated and touched up front, so the benchmark's own footprint does
/// not grow with throughput and peak_rss_mb measures the library.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 20;

  explicit Reservoir(std::uint64_t seed)
      : buf_(kCapacity, 0), rng_{mix(seed ^ 0x7e5e7u)} {}

  void add(std::uint32_t v) {
    if (seen_ < kCapacity) {
      buf_[seen_++] = v;
      return;
    }
    const std::uint64_t j = rng_.next() % ++seen_;
    if (j < kCapacity) buf_[j] = v;
  }
  /// Values observed (not just kept).
  std::uint64_t seen() const { return seen_; }
  void clear() { seen_ = 0; }
  double quantile(double q) {
    std::vector<std::uint32_t> v(buf_.begin(),
                                 buf_.begin() + static_cast<std::ptrdiff_t>(
                                                    std::min<std::uint64_t>(
                                                        seen_, kCapacity)));
    return window_quantile(v, q);
  }

 private:
  std::vector<std::uint32_t> buf_;
  Rng rng_;
  std::uint64_t seen_ = 0;
};

// --- result containers -----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run hands back to main(): its metrics, the attempt
/// counts for the result line, and every correctness violation seen.
struct Outcome {
  Metrics end_to_end;
  Metrics per_layer;
  std::uint64_t attempted = 0;  // allocator calls issued in timed phases
  std::uint64_t failed = 0;     // allocations that returned nullptr
  std::vector<std::string> violations;
  /// Extra sections for the ledger file (pre-rendered JSON members).
  std::vector<std::pair<std::string, std::string>> ledger;

  void violation(std::string what) {
    if (violations.size() < 32) violations.push_back(std::move(what));
    ++violation_count;
  }
  std::uint64_t violation_count = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // ledger and span files; empty = none
};

/// The number of set-up repetitions whose median is setup_s.
inline constexpr std::size_t kSetupReps = 25;

// --- registry deltas -------------------------------------------------------------

/// Counter and histogram activity between two registry snapshots.
struct Delta {
  obs::Snapshot d;
  std::uint64_t ctr(const std::string& name) const {
    auto it = d.counters.find(name);
    return it == d.counters.end() ? 0 : it->second;
  }
  obs::HistogramSnapshot hist(const std::string& name) const {
    auto it = d.histograms.find(name);
    return it == d.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  }
  /// hits / (hits + misses); 0 when the layer saw neither.
  double rate(const std::string& hit, const std::string& miss) const {
    const double h = static_cast<double>(ctr(hit));
    const double m = static_cast<double>(ctr(miss));
    return h + m > 0 ? h / (h + m) : 0.0;
  }
};

/// Fill the counter-derived per-layer metrics shared by every workload.
/// `ops` normalizes the per-kop rates.
void layer_counters(const Delta& d, double ops, Metrics* out);

/// Every per-layer metric name with its unit, in BENCHMARK.json order;
/// each workload reports all of them (0 where its layer is idle).
const std::vector<std::pair<const char*, const char*>>& per_layer_schema();

// --- spans -----------------------------------------------------------------------

/// One traced call: its start on the OS worker that issued it and its
/// end on the worker it returned on (a fiber that yields inside a call
/// may migrate between workers).
struct Span {
  std::uint64_t start;
  std::uint64_t end;
  std::uint16_t kind;  // SpanKind
  std::uint8_t route;  // Route (malloc only)
  std::uint8_t worker;
  std::uint8_t end_worker;
};

enum SpanKind : std::uint16_t {
  kMalloc = 0,
  kFree,
  kMallocAsync,
  kFreeAsync,
  kRealloc,
  kSync,
  kTrim,
  kDefrag,
  kBarrier,  // ThreadCtx::sync_block (device only; not an allocator call)
  kSpanKinds
};
const char* kind_name(std::uint16_t k);

/// Size class tier the request size routes to (GpuAllocator's split).
enum Route : std::uint8_t { kNoRoute = 0, kLane, kUalloc, kTbuddy };
inline Route route_of(std::size_t size) {
  if (size <= 64) return kLane;
  if (size <= 1024) return kUalloc;
  return kTbuddy;
}
const char* route_name(std::uint8_t r);

/// Per-OS-thread span buffers. A span is appended to the buffer of the
/// thread it ends on, so recording never contends; kMaxWorkers bounds the
/// OS threads a run may use.
class SpanRecorder {
 public:
  static constexpr std::uint32_t kMaxWorkers = 16;

  SpanRecorder(std::uint32_t workers, std::size_t reserve_per_worker);
  /// Index of the calling OS thread within the current launch, assigned
  /// on first use after new_launch(). Not inlined: a fiber may migrate
  /// between workers across an allocator call, and an inlined thread_local
  /// access could reuse a stale TLS address.
  static std::uint32_t worker_index();
  /// Start a new index assignment (call on the host before each launch:
  /// gpusim spawns fresh OS workers per launch).
  static void new_launch();

  /// Record a span that ends on the calling thread.
  void record_here(std::uint64_t start, std::uint64_t end, std::uint16_t kind,
                   std::uint8_t route, std::uint32_t start_worker) {
    const std::uint32_t w = worker_index();
    bufs_[w].push_back(Span{start, end, kind, route,
                            static_cast<std::uint8_t>(start_worker),
                            static_cast<std::uint8_t>(w)});
  }
  /// Move every buffered span out (sorted by start) and clear the buffers.
  std::vector<Span> drain();

 private:
  std::vector<std::vector<Span>> bufs_;
};

/// Self-time accounting of one parent span (a launch or a round).
struct SelfTimes {
  std::uint64_t total_ns = 0;        // parent duration x timelines
  std::uint64_t parent_self_ns = 0;  // time in no call and no barrier
  std::uint64_t kind_self_ns[kSpanKinds] = {};
  std::uint64_t kind_span_ns[kSpanKinds] = {};   // raw span durations
  std::uint64_t kind_clean_ns[kSpanKinds] = {};  // of undisturbed spans
  std::uint64_t outside = 0;  // spans not inside the parent interval

  std::uint64_t call_ns() const {
    std::uint64_t n = 0;
    for (int k = 0; k < kSpanKinds; ++k) n += k == kBarrier ? 0 : kind_self_ns[k];
    return n;
  }
  std::uint64_t call_span_ns() const {
    std::uint64_t n = 0;
    for (int k = 0; k < kSpanKinds; ++k) n += k == kBarrier ? 0 : kind_span_ns[k];
    return n;
  }
};

/// Self times over [t0, t1) on `timelines` workers. Spans of fibers that
/// yield inside a call overlap on one worker, so nesting does not tell
/// which fiber was running; events do: a span's start (on its start
/// worker) and end (on its end worker) are each emitted by the fiber
/// running there at that instant. Each worker's timeline is cut at its
/// events, and every piece is charged to the state the earlier event
/// entered: the span's kind after a start, the parent (kernel code and
/// gpusim scheduling, or the host loop) after an end. A span that ends on
/// another worker than it started on left its start worker before its
/// end, so its piece there is charged to its kind only up to its end.
/// Alongside, it sums the durations of undisturbed spans: those that start
/// and end on one worker with no other event strictly between.
SelfTimes sweep_self_times(const std::vector<Span>& spans, std::uint64_t t0,
                           std::uint64_t t1, std::uint32_t timelines);

/// Self times summed over many parents (the traced launches or rounds).
struct SelfTimeSum {
  SelfTimes sum;  // component-wise
  std::size_t parents = 0;

  void add(const SelfTimes& s);
  /// Share of the parents' time spent inside allocator calls.
  double call_share() const;
  /// Allocator-call self time / raw allocator-call span time.
  double call_self_over_span() const;
  /// The ledger's check against the raw span durations. Self time is a
  /// span's duration minus the time other work ran inside it, so each
  /// kind's self time lies between the summed durations of its undisturbed
  /// spans (nothing else ran inside them) and of all its spans. With one
  /// thread and no nested calls every span is undisturbed, and the bounds
  /// meet. Every span must lie inside its parent.
  bool consistent() const;
  /// {"<parents_key>": n, "total_ns": .., "<parent_key>": .., "<kind>_self_ns": ..}
  std::string to_json(const char* parents_key, const char* parent_key) const;
};

/// Latency aggregation per span kind and malloc route.
struct SpanStats {
  std::vector<std::uint32_t> dur[kSpanKinds];
  std::vector<std::uint32_t> malloc_route[4];
  void add(const Span& s) {
    const auto d = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(s.end - s.start, UINT32_MAX));
    dur[s.kind].push_back(d);
    if (s.kind == kMalloc) malloc_route[s.route].push_back(d);
  }
};

/// Rows of the span CSV a traced run writes (the first traced launch or
/// round, truncated).
inline constexpr std::size_t kSpanCsvRows = 50000;

/// Write the first kSpanCsvRows spans as CSV (kind,route,worker,start_ns,
/// end_ns relative to `origin`). Returns false on I/O failure.
bool write_spans_csv(const std::string& path, const std::vector<Span>& spans,
                     std::uint64_t origin);

// --- process facts ---------------------------------------------------------------

double peak_rss_mb();

}  // namespace perfbench
