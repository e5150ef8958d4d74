#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double window_quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const double last = static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::max(0.0, (q - 0.005) * last));
  const auto hi = static_cast<std::size_t>(std::min(last, (q + 0.005) * last));
  // Two selections leave exactly the order statistics lo..hi in v[lo..hi].
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  if (hi > lo) {
    std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                     v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  }
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

const char* kind_name(std::uint16_t k) {
  static const char* kNames[kSpanKinds] = {
      "malloc", "free", "malloc_async", "free_async",
      "realloc", "sync", "trim",      "defrag", "barrier"};
  return k < kSpanKinds ? kNames[k] : "?";
}

const char* route_name(std::uint8_t r) {
  static const char* kNames[] = {"none", "lane", "ualloc", "tbuddy"};
  return r < 4 ? kNames[r] : "?";
}

const std::vector<std::pair<const char*, const char*>>& per_layer_schema() {
  static const std::vector<std::pair<const char*, const char*>> kSchema = {
      // gpusim
      {"gpusim.launch_s", "s"},
      {"gpusim.overhead_s", "s"},
      {"gpusim.fiber_resumes_per_op", "ratio"},
      {"gpusim.warp_parks_per_op", "ratio"},
      {"gpusim.warp_steals", "count"},
      // alloc/fixed_lane
      {"lane.hit_rate", "ratio"},
      {"lane.refills_per_kop", "1/kop"},
      {"lane.spill_blocks", "count"},
      // alloc/ualloc
      {"ualloc.magazine.hit_rate", "ratio"},
      {"ualloc.bins_created", "count"},
      {"ualloc.chunks_created", "count"},
      {"ualloc.tail_use", "count"},
      {"ualloc.list_retries", "count"},
      {"ualloc.arena_fallbacks", "count"},
      // alloc/tbuddy
      {"tbuddy.quicklist.hit_rate", "ratio"},
      {"tbuddy.splits_per_alloc", "ratio"},
      {"tbuddy.merges", "count"},
      {"tbuddy.failed_allocs", "count"},
      {"tbuddy.descent_retries", "count"},
      {"tbuddy.lock_contended", "count"},
      {"tbuddy.cas_claim_share", "ratio"},
      // sync
      {"sync.bsem.acquired", "count"},
      {"sync.bsem.grow", "count"},
      {"sync.bsem.wait_ns", "ns"},
      {"sync.rcu.full_barrier", "count"},
      {"sync.rcu.grace_ns", "ns"},
      {"sync.cmutex.collective_acquire", "count"},
      // vmm backing
      {"vmm.grows_per_kop", "1/kop"},
      {"vmm.shrinks_per_kop", "1/kop"},
      {"vmm.map_bytes", "bytes"},
      // vmm defrag
      {"defrag.step_ns.count", "count"},
      {"defrag.step_ns.p50", "ns"},
      {"defrag.step_ns.p99", "ns"},
      {"defrag.moved_bytes", "bytes"},
      {"defrag.useful_ratio", "ratio"},
      {"defrag.pin_stalls", "count"},
      // alloc/pool and alloc/stream
      {"stream.reuse_hit_rate", "ratio"},
      {"stream.sync_ns.count", "count"},
      {"stream.sync_ns.p50", "ns"},
      {"stream.sync_ns.p99", "ns"},
      {"stream.drain_batch", "count"},
      {"pool.trim_ns.count", "count"},
      {"pool.trim_ns.p50", "ns"},
      {"pool.trim_ns.p99", "ns"},
      // capi per-call spans
      {"capi.malloc_ns.count", "count"},
      {"capi.malloc_ns.p50", "ns"},
      {"capi.malloc_ns.p99", "ns"},
      {"capi.malloc_ns.lane.count", "count"},
      {"capi.malloc_ns.lane.p50", "ns"},
      {"capi.malloc_ns.lane.p99", "ns"},
      {"capi.malloc_ns.ualloc.count", "count"},
      {"capi.malloc_ns.ualloc.p50", "ns"},
      {"capi.malloc_ns.ualloc.p99", "ns"},
      {"capi.malloc_ns.tbuddy.count", "count"},
      {"capi.malloc_ns.tbuddy.p50", "ns"},
      {"capi.malloc_ns.tbuddy.p99", "ns"},
      {"capi.free_ns.count", "count"},
      {"capi.free_ns.p50", "ns"},
      {"capi.free_ns.p99", "ns"},
      {"capi.malloc_async_ns.count", "count"},
      {"capi.malloc_async_ns.p50", "ns"},
      {"capi.malloc_async_ns.p99", "ns"},
      {"capi.free_async_ns.count", "count"},
      {"capi.free_async_ns.p50", "ns"},
      {"capi.free_async_ns.p99", "ns"},
      {"capi.realloc_ns.count", "count"},
      {"capi.realloc_ns.p50", "ns"},
      {"capi.realloc_ns.p99", "ns"},
      // end-to-end companions and the ledger's own checks
      {"fail_frac", "ratio"},
      {"op_lat.samples", "count"},
      {"op_lat.suspended_frac", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"ledger.call_self_share", "ratio"},
      {"ledger.call_self_over_span", "ratio"},
  };
  return kSchema;
}

void layer_counters(const Delta& d, double ops, Metrics* out) {
  auto set = [out](const char* name, double v) { (*out)[name].value = v; };
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const double kops = ops > 0 ? ops / 1000.0 : 1.0;

  set("lane.hit_rate", d.rate("ualloc.lane.hit", "ualloc.lane.miss"));
  set("lane.refills_per_kop", u(d.ctr("ualloc.lane.refill")) / kops);
  set("lane.spill_blocks", u(d.ctr("ualloc.lane.spill_blocks")));

  set("ualloc.magazine.hit_rate",
      d.rate("ualloc.magazine.hit", "ualloc.magazine.miss"));
  set("ualloc.bins_created", u(d.ctr("ualloc.bin_create")));
  set("ualloc.chunks_created", u(d.ctr("ualloc.chunk_fetch")));
  set("ualloc.tail_use", u(d.ctr("ualloc.tail_use")));
  set("ualloc.list_retries", u(d.ctr("ualloc.list_retry")));
  set("ualloc.arena_fallbacks", u(d.ctr("ualloc.arena_fallback")));

  set("tbuddy.quicklist.hit_rate",
      d.rate("tbuddy.quicklist.hit", "tbuddy.quicklist.miss"));
  // Allocations the buddy tree itself served (quicklist hits bypass it).
  const std::uint64_t tree_allocs = d.ctr("tbuddy.claim.cas_fast") +
                                    d.ctr("tbuddy.claim.lock_slow");
  const std::uint64_t buddy_allocs =
      tree_allocs + d.ctr("tbuddy.quicklist.hit");
  set("tbuddy.splits_per_alloc",
      buddy_allocs > 0 ? u(d.ctr("tbuddy.split")) / u(buddy_allocs) : 0.0);
  set("tbuddy.merges", u(d.ctr("tbuddy.merge")));
  set("tbuddy.descent_retries", u(d.ctr("tbuddy.descent_retry")));
  set("tbuddy.lock_contended", u(d.ctr("tbuddy.lock_contended")));
  set("tbuddy.cas_claim_share",
      d.rate("tbuddy.claim.cas_fast", "tbuddy.claim.lock_slow"));

  set("sync.bsem.acquired", u(d.ctr("sync.bsem.acquired")));
  set("sync.bsem.grow", u(d.ctr("sync.bsem.grow")));
  set("sync.bsem.wait_ns", u(d.hist("sync.bsem.wait_ns").sum));
  set("sync.rcu.full_barrier", u(d.ctr("sync.rcu.full_barrier")));
  set("sync.rcu.grace_ns", u(d.hist("sync.rcu.grace_ns").sum));
  set("sync.cmutex.collective_acquire",
      u(d.ctr("sync.cmutex.collective_acquire")));

  set("vmm.grows_per_kop", u(d.ctr("vmm.grow")) / kops);
  set("vmm.shrinks_per_kop", u(d.ctr("vmm.shrink")) / kops);
  set("vmm.map_bytes", u(d.ctr("vmm.map_bytes")));

  set("defrag.moved_bytes", u(d.ctr("vmm.defrag.moved_bytes")));
  set("defrag.pin_stalls", u(d.ctr("vmm.defrag.pin_stalls")));

  set("stream.reuse_hit_rate",
      d.rate("pool.stream.reuse.hit", "pool.stream.reuse.miss"));
  set("stream.drain_batch", d.hist("pool.stream.drain_batch").mean());
}

SpanRecorder::SpanRecorder(std::uint32_t workers,
                           std::size_t reserve_per_worker)
    : bufs_(kMaxWorkers) {
  for (std::uint32_t w = 0; w < workers && w < kMaxWorkers; ++w) {
    bufs_[w].reserve(reserve_per_worker);
  }
}

namespace {
std::atomic<std::uint32_t> g_launch{1};
std::atomic<std::uint32_t> g_next_worker{0};
}  // namespace

__attribute__((noinline)) std::uint32_t SpanRecorder::worker_index() {
  thread_local std::uint32_t launch = 0;
  thread_local std::uint32_t idx = 0;
  const std::uint32_t l = g_launch.load(std::memory_order_relaxed);
  if (launch != l) {
    launch = l;
    idx = g_next_worker.fetch_add(1, std::memory_order_relaxed) % kMaxWorkers;
  }
  return idx;
}

void SpanRecorder::new_launch() {
  g_next_worker.store(0, std::memory_order_relaxed);
  g_launch.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span> SpanRecorder::drain() {
  std::size_t n = 0;
  for (const auto& b : bufs_) n += b.size();
  std::vector<Span> all;
  all.reserve(n);
  for (auto& b : bufs_) {
    all.insert(all.end(), b.begin(), b.end());
    b.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  return all;
}

SelfTimes sweep_self_times(const std::vector<Span>& spans, std::uint64_t t0,
                           std::uint64_t t1, std::uint32_t timelines) {
  SelfTimes st;
  st.total_ns = (t1 - t0) * timelines;
  constexpr std::uint16_t kParent = kSpanKinds;
  struct Event {
    std::uint64_t t;
    std::uint64_t seq;    // ties: span order, a span's start before its end
    std::uint64_t until;  // a start's cap on its piece
    std::uint16_t state;  // entered at t: a kind, or kParent
  };
  std::vector<std::vector<Event>> lines(SpanRecorder::kMaxWorkers);
  std::vector<std::vector<std::uint64_t>> times(SpanRecorder::kMaxWorkers);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start < t0 || s.end > t1 || s.end < s.start ||
        s.worker >= timelines || s.end_worker >= timelines) {
      ++st.outside;
      continue;
    }
    st.kind_span_ns[s.kind] += s.end - s.start;
    const std::uint64_t until = s.worker == s.end_worker ? t1 : s.end;
    lines[s.worker].push_back({s.start, 2 * i, until, s.kind});
    lines[s.end_worker].push_back({s.end, 2 * i + 1, t1, kParent});
    times[s.worker].push_back(s.start);
    times[s.end_worker].push_back(s.end);
  }
  for (auto& t : times) std::sort(t.begin(), t.end());
  for (const Span& s : spans) {
    if (s.start < t0 || s.end > t1 || s.end < s.start ||
        s.worker >= timelines || s.worker != s.end_worker) {
      continue;
    }
    const auto& t = times[s.worker];
    if (std::lower_bound(t.begin(), t.end(), s.end) ==
        std::upper_bound(t.begin(), t.end(), s.start)) {
      st.kind_clean_ns[s.kind] += s.end - s.start;
    }
  }
  for (std::uint32_t w = 0; w < timelines; ++w) {
    auto& ev = lines[w];
    // At one instant, the end of an earlier span comes before the start
    // of a later one: the span that begins there owns the next piece.
    std::sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
      return a.t != b.t ? a.t < b.t : a.seq < b.seq;
    });
    std::uint64_t prev = t0;
    std::uint64_t until = t1;
    std::uint16_t state = kParent;
    auto charge = [&](std::uint64_t to) {
      if (state == kParent) {
        st.parent_self_ns += to - prev;
        return;
      }
      const std::uint64_t mine = std::min(to, std::max(until, prev)) - prev;
      st.kind_self_ns[state] += mine;
      st.parent_self_ns += to - prev - mine;
    };
    for (const Event& e : ev) {
      charge(e.t);
      prev = e.t;
      until = e.until;
      state = e.state;
    }
    charge(t1);
  }
  return st;
}

void SelfTimeSum::add(const SelfTimes& s) {
  sum.total_ns += s.total_ns;
  sum.parent_self_ns += s.parent_self_ns;
  for (int k = 0; k < kSpanKinds; ++k) {
    sum.kind_self_ns[k] += s.kind_self_ns[k];
    sum.kind_span_ns[k] += s.kind_span_ns[k];
    sum.kind_clean_ns[k] += s.kind_clean_ns[k];
  }
  sum.outside += s.outside;
  ++parents;
}

double SelfTimeSum::call_share() const {
  return sum.total_ns > 0 ? static_cast<double>(sum.call_ns()) /
                                static_cast<double>(sum.total_ns)
                          : 0.0;
}

double SelfTimeSum::call_self_over_span() const {
  const std::uint64_t span = sum.call_span_ns();
  return span > 0 ? static_cast<double>(sum.call_ns()) /
                        static_cast<double>(span)
                  : 0.0;
}

bool SelfTimeSum::consistent() const {
  if (sum.outside != 0) return false;
  for (int k = 0; k < kSpanKinds; ++k) {
    const std::uint64_t self = sum.kind_self_ns[k];
    if (self < sum.kind_clean_ns[k] || self > sum.kind_span_ns[k]) {
      return false;
    }
  }
  return true;
}

std::string SelfTimeSum::to_json(const char* parents_key,
                                 const char* parent_key) const {
  std::string t = "{\"" + std::string(parents_key) +
                  "\":" + std::to_string(parents) +
                  ",\"total_ns\":" + std::to_string(sum.total_ns) + ",\"" +
                  parent_key + "\":" + std::to_string(sum.parent_self_ns);
  for (int k = 0; k < kSpanKinds; ++k) {
    if (sum.kind_self_ns[k] == 0) continue;
    t += ",\"" + std::string(kind_name(static_cast<std::uint16_t>(k))) +
         "_self_ns\":" + std::to_string(sum.kind_self_ns[k]);
  }
  return t + "}";
}

bool write_spans_csv(const std::string& path, const std::vector<Span>& spans,
                     std::uint64_t origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,route,worker,start_ns,end_ns\n");
  const std::size_t n = std::min(kSpanCsvRows, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s,%s,%u,%llu,%llu\n", kind_name(s.kind),
                 route_name(s.route), static_cast<unsigned>(s.worker),
                 static_cast<unsigned long long>(s.start - origin),
                 static_cast<unsigned long long>(s.end - origin));
  }
  return std::fclose(f) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
