// Device workloads: closed-loop churn kernels on the gpusim device calling
// GpuAllocator::malloc/free from every simulated thread.
//
// One episode = a fresh allocator, a churn launch (each thread frees the
// oldest block of its ring, allocates a seeded size, stamps it and meets
// a block barrier, round after round), a hold-point sample with the live
// set still held, and a drain launch that checks and frees every block.
// Every episode of a run issues the same seeded inputs, so at one worker
// its counters repeat exactly; the timed region is the two launches.
#include "workloads.hpp"

#include <cstdio>
#include <memory>

#include "alloc/allocator.hpp"
#include "gpusim/gpusim.hpp"

namespace perfbench {
namespace {

namespace alloc = toma::alloc;
namespace gpu = toma::gpu;

struct Shape {
  std::uint32_t workers;
  std::uint32_t threads;
  std::uint32_t block;
  std::uint32_t ring;
  std::uint32_t rounds;
  bool large;  // device_pressure's TBuddy-route size mix
  alloc::HeapConfig heap;
};

Shape shape_for(const std::string& name) {
  Shape s{};
  s.block = 256;
  s.heap.num_arenas = 8;
  s.heap.heapsan = false;
  s.heap.vmm = true;
  if (name == "device_pressure") {
    s.workers = 1;
    s.threads = 1024;
    s.ring = 2;
    s.rounds = 192;
    s.large = true;
    s.heap.pool_bytes = std::size_t{512} << 20;
    s.heap.chunk_bytes = 4u << 20;
    s.heap.max_chunks = 72;  // 288 MiB: ~8% above the held set's peak
  } else {
    s.workers = name == "device_contended" ? 4 : 1;
    s.threads = 16384;
    s.ring = 4;
    s.rounds = 24;
    s.large = false;
    s.heap.pool_bytes = std::size_t{256} << 20;
  }
  return s;
}

/// Seeded request size of (thread, round).
std::uint32_t size_for(const Shape& s, std::uint64_t seed, std::uint64_t tid,
                       std::uint32_t round) {
  const std::uint64_t h = mix3(seed, tid, round);
  const auto u = static_cast<std::uint32_t>(h >> 32);
  if (!s.large) {
    // Half lane classes (8-64 B), half magazine classes (65 B-1 KiB).
    return (h & 1) != 0 ? 8 + u % 57 : 65 + u % 960;
  }
  // One in eight small (8 B-1 KiB); the rest log-uniform over 2-512 KiB.
  if ((h & 7) == 0) return 8 + u % 1017;
  const std::uint32_t e = 11 + static_cast<std::uint32_t>((h >> 3) % 8);
  const std::uint32_t lo = 1u << e;
  return lo + u % lo;
}

inline std::uint64_t pattern_for(std::uint64_t seed, std::uint64_t tid,
                                 std::uint32_t round) {
  return mix3(seed ^ 0x5354414d50ull, tid, round) | 1;  // never all-zero
}

struct Slot {
  void* p = nullptr;
  std::uint32_t size = 0;
  std::uint32_t round = 0;
};

struct Tally {
  std::uint32_t frees = 0;
  std::uint32_t fails = 0;
  std::uint32_t bad = 0;  // stamp mismatches
};

/// Latency samples: one thread in kSampleStride times its calls in
/// untraced episodes (the end-to-end op_p50/op_p99).
constexpr std::uint32_t kSampleStride = 8;
constexpr std::uint32_t kNoSample = UINT32_MAX;

/// Untraced episodes whose counters make up the per-layer counts.
constexpr std::size_t kCounterEpisodes = 3;

/// A sampled call's first-event slot: armed (kArmed | generation) while
/// the call waits for the first event another fiber emits on its start
/// worker, then that event's time.
constexpr std::uint64_t kArmed = std::uint64_t{1} << 63;

/// Per-worker event record, touched only by the fiber running on that
/// worker. Every call boundary and barrier is an event. A call whose
/// start and end are consecutive events on one worker ran without being
/// descheduled; otherwise the events other fibers emitted in between
/// bound the time it spent off the worker.
struct alignas(64) WorkerEvents {
  std::uint64_t n = 0;   // events so far
  std::uint64_t ns = 0;  // time of the latest event
  std::atomic<std::uint64_t>* watch = nullptr;  // armed sampled call
  std::uint64_t watch_gen = 0;
};

/// Everything one episode's kernels touch. Lives on the host; kernels
/// capture it by reference and the launches are synchronous.
struct Episode {
  const Shape& shape;
  std::uint64_t seed;
  alloc::GpuAllocator* ga = nullptr;
  SpanRecorder* rec = nullptr;  // non-null in traced episodes
  std::vector<Slot> slots;
  std::vector<Tally> tallies;
  std::vector<std::uint32_t> lat;  // per sampled thread: 2*rounds + ring
  std::uint32_t lat_stride;
  std::vector<std::atomic<std::uint64_t>> first_event;  // per sampled thread
  std::vector<std::uint64_t> suspended;                 // per sampled thread
  WorkerEvents events[SpanRecorder::kMaxWorkers];

  Episode(const Shape& s, std::uint64_t sd)
      : shape(s),
        seed(sd),
        slots(std::size_t{s.threads} * s.ring),
        tallies(s.threads),
        lat_stride(2 * s.rounds + s.ring),
        first_event((s.threads + kSampleStride - 1) / kSampleStride),
        suspended(first_event.size()) {}

  /// Record an event at `t` on worker `w`; fires an armed watch there.
  std::uint64_t event(std::uint32_t w, std::uint64_t t) {
    WorkerEvents& e = events[w];
    e.ns = t;
    if (e.watch != nullptr) {
      std::uint64_t armed = kArmed | e.watch_gen;
      e.watch->compare_exchange_strong(armed, t, std::memory_order_relaxed);
      e.watch = nullptr;
    }
    return ++e.n;
  }

  /// Run one allocator call under this episode's instrumentation: a span
  /// when traced; otherwise an event at each end, plus the call's
  /// on-worker latency for a sampled thread.
  template <typename Call>
  void instrumented(std::uint16_t kind, std::uint8_t route,
                    std::uint32_t* lat_slot, Call&& call) {
    if (rec != nullptr) {
      const std::uint32_t w = SpanRecorder::worker_index();
      const std::uint64_t t0 = now_ns();
      call();
      rec->record_here(t0, now_ns(), kind, route, w);
      return;
    }
    if (lat_slot == nullptr) {
      event(SpanRecorder::worker_index(), now_ns());
      call();
      event(SpanRecorder::worker_index(), now_ns());
      return;
    }
    // The slot's index in `lat` names this call uniquely, so a watch left
    // armed on another worker by an earlier call cannot fire for it.
    const auto gen = static_cast<std::uint64_t>(lat_slot - lat.data());
    const std::size_t k = gen / lat_stride;  // the sampled thread
    const std::uint32_t w0 = SpanRecorder::worker_index();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t e0 = event(w0, t0);
    first_event[k].store(kArmed | gen, std::memory_order_relaxed);
    events[w0].watch = &first_event[k];
    events[w0].watch_gen = gen;
    call();
    const std::uint32_t w1 = SpanRecorder::worker_index();
    const std::uint64_t t1 = now_ns();
    const std::uint64_t last_other = events[w1].ns;
    const std::uint64_t e1 = event(w1, t1);
    std::uint64_t own = t1 - t0;
    if (w0 != w1 || e1 != e0 + 1) {
      // Descheduled inside the call: it ran from t0 until the first event
      // of another fiber on w0, and again from the last such event on w1
      // until t1. The time between is other fibers' and gpusim's.
      std::uint64_t first = first_event[k].exchange(0, std::memory_order_relaxed);
      if ((first & kArmed) != 0 || first > t1) first = t1;
      const std::uint64_t before = first - t0;
      const std::uint64_t after = t1 - std::max(last_other, t0);
      own = std::min(own, before + after);
      ++suspended[k];
    }
    *lat_slot =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(own, kNoSample - 1));
  }

  void* do_malloc(std::uint32_t size, std::uint32_t* lat_slot) {
    void* p = nullptr;
    instrumented(kMalloc, route_of(size), lat_slot,
                 [&] { p = ga->malloc(size); });
    return p;
  }

  void do_free(Slot& s, std::uint64_t tid, Tally& t, std::uint32_t* lat_slot) {
    if (!check_stamp(s.p, s.size, pattern_for(seed, tid, s.round))) ++t.bad;
    instrumented(kFree, route_of(s.size), lat_slot, [&] { ga->free(s.p); });
    ++t.frees;
    s.p = nullptr;
  }

  std::uint32_t* lat_base(std::uint64_t tid) {
    if (rec != nullptr || tid % kSampleStride != 0) return nullptr;
    return &lat[(tid / kSampleStride) * lat_stride];
  }

  void churn(gpu::ThreadCtx& t) {
    const std::uint64_t tid = t.global_rank();
    Slot* ring = &slots[tid * shape.ring];
    Tally& tally = tallies[tid];
    std::uint32_t* lat_slot = lat_base(tid);
    for (std::uint32_t r = 0; r < shape.rounds; ++r) {
      Slot& s = ring[r % shape.ring];
      if (s.p != nullptr) {
        do_free(s, tid, tally, lat_slot != nullptr ? lat_slot + 2 * r + 1
                                                   : nullptr);
      }
      const std::uint32_t size = size_for(shape, seed, tid, r);
      void* p = do_malloc(size, lat_slot != nullptr ? lat_slot + 2 * r
                                                    : nullptr);
      if (p == nullptr) {
        ++tally.fails;
      } else {
        stamp(p, size, pattern_for(seed, tid, r));
        s = Slot{p, size, r};
      }
      barrier(t);
    }
  }

  void barrier(gpu::ThreadCtx& t) {
    if (rec == nullptr) {
      event(SpanRecorder::worker_index(), now_ns());
      t.sync_block();
      event(SpanRecorder::worker_index(), now_ns());
      return;
    }
    const std::uint32_t w = SpanRecorder::worker_index();
    const std::uint64_t t0 = now_ns();
    t.sync_block();
    rec->record_here(t0, now_ns(), kBarrier, kNoRoute, w);
  }

  void drain(gpu::ThreadCtx& t) {
    const std::uint64_t tid = t.global_rank();
    Slot* ring = &slots[tid * shape.ring];
    Tally& tally = tallies[tid];
    std::uint32_t* lat_slot = lat_base(tid);
    for (std::uint32_t k = 0; k < shape.ring; ++k) {
      if (ring[k].p == nullptr) continue;
      do_free(ring[k], tid, tally,
              lat_slot != nullptr ? lat_slot + 2 * shape.rounds + k : nullptr);
    }
  }
};

/// Per-episode results.
struct EpisodeResult {
  double launch_s = 0;  // churn + drain
  double churn_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t fails = 0;
  double mapped_over_live = 0;
  double mapped_mib = 0;  // at the hold point
  Metrics layer;  // counter-derived per-layer values
  std::vector<Span> churn_spans;
  SelfTimes churn_self, drain_self;
  std::uint64_t churn_t0 = 0, churn_t1 = 0;
};

class DeviceRun {
 public:
  DeviceRun(const Options& opt, Outcome* out)
      : opt_(opt), shape_(shape_for(opt.workload)), out_(out) {}

  /// One timed set-up: device construction, a warm launch (the first
  /// launch after construction runs up to 2x slower, so it stays out of
  /// the episodes) and allocator creation. The new device replaces the
  /// current one. setup_s is the median of kSetupReps set-ups, one before
  /// each of the first episodes, so they sample the host's noise over the
  /// run rather than over its first seconds.
  void setup_once() {
    dev_.reset();
    const auto t0 = Clock::now();
    gpu::DeviceConfig dc;
    dc.num_sms = 8;
    dc.num_workers = shape_.workers;
    dev_ = std::make_unique<gpu::Device>(dc);
    dev_->launch_linear(shape_.threads, shape_.block,
                        [](gpu::ThreadCtx& t) { t.sync_block(); });
    auto ga = std::make_unique<alloc::GpuAllocator>(shape_.heap);
    setup_reps_.push_back(secs_since(t0));
  }

  /// Episode `k` of a phase. Its inputs derive from (seed, k), so every
  /// run with the same seed issues the same episode sequence, and a run's
  /// median averages over several input draws.
  EpisodeResult episode(SpanRecorder* rec, std::uint64_t k) {
    EpisodeResult r;
    Episode ep(shape_, mix3(opt_.seed, k, 0x45504953));
    ep.rec = rec;
    if (rec == nullptr) {
      ep.lat.assign(std::size_t{(shape_.threads + kSampleStride - 1) /
                                kSampleStride} * ep.lat_stride,
                    kNoSample);
    }
    auto ga = std::make_unique<alloc::GpuAllocator>(shape_.heap);
    ep.ga = ga.get();
    const gpu::DeviceStats ds0 = dev_->stats();
    const obs::Snapshot s0 = obs::registry().snapshot();

    SpanRecorder::new_launch();
    r.churn_t0 = now_ns();
    dev_->launch_linear(shape_.threads, shape_.block,
                        [&ep](gpu::ThreadCtx& t) { ep.churn(t); });
    r.churn_t1 = now_ns();
    if (rec != nullptr) r.churn_spans = rec->drain();

    // Hold point: the live set is still held.
    std::uint64_t live_req = 0;
    for (const Slot& s : ep.slots) live_req += s.p != nullptr ? s.size : 0;
    r.mapped_mib = static_cast<double>(ga->mapped_bytes()) / (1 << 20);
    r.mapped_over_live = live_req > 0 ? static_cast<double>(ga->mapped_bytes()) /
                                            static_cast<double>(live_req)
                                      : 0.0;

    SpanRecorder::new_launch();
    const std::uint64_t d0 = now_ns();
    dev_->launch_linear(shape_.threads, shape_.block,
                        [&ep](gpu::ThreadCtx& t) { ep.drain(t); });
    const std::uint64_t d1 = now_ns();
    r.churn_s = static_cast<double>(r.churn_t1 - r.churn_t0) * 1e-9;
    r.launch_s = r.churn_s + static_cast<double>(d1 - d0) * 1e-9;

    if (rec != nullptr) {
      const std::vector<Span> drain_spans = rec->drain();
      r.churn_self = sweep_self_times(r.churn_spans, r.churn_t0, r.churn_t1,
                                      shape_.workers);
      r.drain_self = sweep_self_times(drain_spans, d0, d1, shape_.workers);
      for (const Span& s : r.churn_spans) span_stats_.add(s);
      for (const Span& s : drain_spans) span_stats_.add(s);
    } else {
      for (std::uint32_t v : ep.lat) {
        if (v != kNoSample) lat_.add(v);
      }
      for (std::uint64_t n : ep.suspended) suspended_ += n;
    }

    // Correctness gate: stamps intact, every byte returned, heap
    // structurally consistent.
    std::uint64_t frees = 0, bad = 0;
    for (const Tally& t : ep.tallies) {
      frees += t.frees;
      r.fails += t.fails;
      bad += t.bad;
    }
    r.allocs = std::uint64_t{shape_.threads} * shape_.rounds;
    r.ops = r.allocs + frees;
    if (bad != 0) {
      out_->violation("device: " + std::to_string(bad) +
                      " blocks failed their stamp check (overlap or corruption)");
    }
    if (frees != r.allocs - r.fails) {
      out_->violation("device: frees do not match successful allocations");
    }
    if (ga->bytes_in_use() != 0) {
      out_->violation("device: " + std::to_string(ga->bytes_in_use()) +
                      " bytes still in use after the drain launch");
    }
    if (!ga->check_consistency()) {
      out_->violation("device: GpuAllocator::check_consistency() failed");
    }

    const obs::Snapshot s1 = obs::registry().snapshot();
    const gpu::DeviceStats ds1 = dev_->stats();
    Delta d{s1.diff_since(s0)};
    const double ops = static_cast<double>(r.ops);
    layer_counters(d, ops, &r.layer);
    r.layer["tbuddy.failed_allocs"].value =
        static_cast<double>(ga->stats().buddy.failed_allocs);
    r.layer["gpusim.fiber_resumes_per_op"].value =
        static_cast<double>(ds1.fiber_resumes - ds0.fiber_resumes) / ops;
    r.layer["gpusim.warp_parks_per_op"].value =
        static_cast<double>(ds1.warp_parks - ds0.warp_parks) / ops;
    r.layer["gpusim.warp_steals"].value =
        static_cast<double>(ds1.warp_steals - ds0.warp_steals);
    r.layer["fail_frac"].value =
        static_cast<double>(r.fails) / static_cast<double>(r.allocs);
    return r;
  }

  /// Run episodes while another one fits in `seconds` of wall time (at
  /// least `min_episodes`).
  std::vector<EpisodeResult> phase(double seconds, int min_episodes,
                                   SpanRecorder* rec) {
    std::vector<EpisodeResult> eps;
    const auto t0 = Clock::now();
    double last = 0;  // wall time of the previous episode and set-up
    while (static_cast<int>(eps.size()) < min_episodes ||
           secs_since(t0) + last <= seconds) {
      const auto e0 = Clock::now();
      if (setup_reps_.size() < kSetupReps) setup_once();
      eps.push_back(episode(rec, eps.size()));
      last = secs_since(e0);
      // Raw spans are kept for the first traced episode only (the CSV).
      if (eps.size() > 1) eps.back().churn_spans = {};
      out_->attempted += eps.back().ops;
      out_->failed += eps.back().fails;
      if (out_->violation_count != 0) break;
    }
    return eps;
  }

  void run() {
    if (!opt_.trace) {
      const auto eps = phase(opt_.seconds, 3, nullptr);
      while (setup_reps_.size() < kSetupReps) setup_once();
      end_to_end(eps, median(setup_reps_));
      return;
    }
    const auto plain = phase(opt_.seconds / 2, kCounterEpisodes, nullptr);
    // Per thread and round: a free, a malloc and a barrier span.
    SpanRecorder rec(shape_.workers,
                     std::size_t{shape_.threads} * shape_.rounds * 3 /
                             shape_.workers +
                         1024);
    const auto traced = phase(opt_.seconds / 2, 2, &rec);
    per_layer(plain, traced);
  }

 private:
  static double ops_per_s(const std::vector<EpisodeResult>& eps) {
    std::vector<double> v;
    for (const auto& e : eps) v.push_back(static_cast<double>(e.ops) / e.launch_s);
    return median(v);
  }

  void end_to_end(const std::vector<EpisodeResult>& eps, double setup_s) {
    Metrics& m = out_->end_to_end;
    std::uint64_t allocs = 0, fails = 0;
    std::vector<double> mol, mapped;
    for (const auto& e : eps) {
      allocs += e.allocs;
      fails += e.fails;
      mol.push_back(e.mapped_over_live);
      mapped.push_back(e.mapped_mib);
    }
    m["ops_per_s"] = {ops_per_s(eps), "ops/s"};
    m["op_p50_ns"] = {lat_.quantile(0.50), "ns"};
    m["op_p99_ns"] = {lat_.quantile(0.99), "ns"};
    m["alloc_ok_frac"] = {1.0 - static_cast<double>(fails) /
                                    static_cast<double>(allocs),
                          "ratio"};
    m["mapped_over_live"] = {median(mol), "ratio"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    m["setup_s"] = {setup_s, "s"};
    std::printf("info: %zu episodes, %zu latency samples (1 thread in %u "
                "timed; %llu of them descheduled inside the call), %u "
                "worker(s), %.1f MiB "
                "mapped at the hold point\n",
                eps.size(), lat_.seen(), kSampleStride,
                static_cast<unsigned long long>(suspended_), shape_.workers,
                median(mapped));
  }

  void per_layer(const std::vector<EpisodeResult>& plain,
                 const std::vector<EpisodeResult>& traced) {
    Metrics& m = out_->per_layer;
    // Counter metrics: the median over the first kCounterEpisodes
    // untraced episodes, whose inputs are fixed by the seed (at one worker
    // their counts repeat exactly from run to run).
    std::map<std::string, std::vector<double>> per_ep;
    const std::size_t n = std::min<std::size_t>(kCounterEpisodes, plain.size());
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto& [k, v] : plain[i].layer) per_ep[k].push_back(v.value);
    }
    for (const auto& [k, v] : per_ep) m[k].value = median(v);
    // Traced episode i replays untraced episode i's inputs: compare their
    // counts (tracing changes timing only, so one worker must agree).
    bool identical = true;
    for (std::size_t i = 0; i < std::min(n, traced.size()); ++i) {
      for (const auto& [k, v] : plain[i].layer) {
        if (k.ends_with("_ns")) continue;  // wait and grace sums are times
        if (v.value != traced[i].layer.at(k).value) {
          if (identical) std::printf("info: %s differs on a repeat\n", k.c_str());
          identical = false;
        }
      }
    }

    std::vector<double> launch_s, overhead_s;
    SelfTimeSum churn, drain;
    for (const auto& e : traced) {
      launch_s.push_back(e.churn_s);
      overhead_s.push_back(
          static_cast<double>(e.churn_self.total_ns - e.churn_self.call_ns()) *
          1e-9);
      churn.add(e.churn_self);
      drain.add(e.drain_self);
    }
    if (!churn.consistent() || !drain.consistent()) {
      out_->violation(
          "ledger: a call kind's self time falls outside its spans' "
          "durations, or a span lies outside its launch");
    }
    m["gpusim.launch_s"].value = median(launch_s);
    m["gpusim.overhead_s"].value = median(overhead_s);
    m["ledger.call_self_share"].value =
        static_cast<double>(churn.sum.call_ns() + drain.sum.call_ns()) /
        static_cast<double>(std::max<std::uint64_t>(
            1, churn.sum.total_ns + drain.sum.total_ns));
    m["ledger.call_self_over_span"].value =
        static_cast<double>(churn.sum.call_ns() + drain.sum.call_ns()) /
        static_cast<double>(std::max<std::uint64_t>(
            1, churn.sum.call_span_ns() + drain.sum.call_span_ns()));
    m["op_lat.samples"].value = static_cast<double>(lat_.seen());
    m["op_lat.suspended_frac"].value =
        static_cast<double>(suspended_) /
        static_cast<double>(std::max<std::uint64_t>(1, lat_.seen()));
    m["trace.overhead_ratio"].value = ops_per_s(plain) / ops_per_s(traced);

    std::printf("info: %zu untraced + %zu traced episodes; counters %s "
                "when an episode's inputs are repeated\n",
                plain.size(), traced.size(),
                identical ? "identical" : "differ");
    ledger_sections(traced, churn, identical);
  }

  void ledger_sections(const std::vector<EpisodeResult>& traced,
                       const SelfTimeSum& churn, bool identical) {
    out_->ledger.emplace_back(
        "churn_launch_self_times",
        churn.to_json("launches", "kernel_and_sched_self_ns"));
    std::string lat = "{";
    bool first = true;
    for (int k = 0; k < kSpanKinds; ++k) {
      auto& v = span_stats_.dur[k];
      if (v.empty()) continue;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\":{\"count\":%zu,\"p50_ns\":%.1f,\"p99_ns\":%.1f}",
                    first ? "" : ",", kind_name(static_cast<std::uint16_t>(k)),
                    v.size(), window_quantile(v, 0.5), window_quantile(v, 0.99));
      lat += buf;
      first = false;
    }
    lat += "}";
    out_->ledger.emplace_back("traced_call_latency", lat);
    out_->ledger.emplace_back("repeat_counters_identical",
                              identical ? "true" : "false");
    if (!opt_.out_dir.empty() && !traced.empty()) {
      const std::string path = opt_.out_dir + "/" + opt_.workload + "-seed" +
                               std::to_string(opt_.seed) + "-spans.csv";
      if (!write_spans_csv(path, traced.front().churn_spans,
                           traced.front().churn_t0)) {
        std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      }
    }
  }

  const Options& opt_;
  Shape shape_;
  Outcome* out_;
  std::unique_ptr<gpu::Device> dev_;
  std::vector<double> setup_reps_;
  Reservoir lat_{opt_.seed};    // on-worker latency of sampled calls
  std::uint64_t suspended_ = 0;  // sampled calls that were descheduled
  SpanStats span_stats_;
};

}  // namespace

std::uint32_t device_workers(const std::string& workload) {
  return shape_for(workload).workers;
}

void run_device(const Options& opt, Outcome* out) {
  DeviceRun run(opt, out);
  run.run();
}

}  // namespace perfbench
