#include "alloc/pool.hpp"

#include <algorithm>
#include <cstdint>

#include "alloc/device_heap.hpp"
#include "gpusim/sched.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"

namespace toma::alloc {

namespace {

/// Registry name with the pool identity as a Prometheus-style label
/// (obs/export.hpp parses it back out): `metric{pool="<name>"}`.
/// Quotes/backslashes in pool names are escaped so the label block stays
/// parseable.
std::string pool_series(const char* metric, const std::string& pool) {
  std::string out(metric);
  out += "{pool=\"";
  for (const char c : pool) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\"}";
  return out;
}

std::uint8_t outcome_of(AllocStatus st) {
  return static_cast<std::uint8_t>(st);
}

/// Pools in kIncremental mode, round-robined by the gpusim scheduler's
/// idle hook (one defrag_step per idle slot). A plain mutex + vector:
/// registration is rare, and the hook only try-locks, so an idle worker
/// never blocks behind pool construction/destruction. ~Pool removes
/// itself under the mutex, which is what makes the raw Pool* safe — the
/// hook can never be running against a pool past its destructor.
class IdleDefragRegistry {
 public:
  static IdleDefragRegistry& instance() {
    static IdleDefragRegistry r;
    return r;
  }

  void add(Pool* p) {
    std::lock_guard<std::mutex> g(mu_);
    if (std::find(pools_.begin(), pools_.end(), p) == pools_.end()) {
      pools_.push_back(p);
    }
    gpu::set_scheduler_idle_hook(&IdleDefragRegistry::idle_hook);
  }

  void remove(Pool* p) {
    std::lock_guard<std::mutex> g(mu_);
    pools_.erase(std::remove(pools_.begin(), pools_.end(), p),
                 pools_.end());
    if (pools_.empty()) gpu::set_scheduler_idle_hook(nullptr);
  }

  static bool idle_hook() {
    IdleDefragRegistry& r = instance();
    std::unique_lock<std::mutex> g(r.mu_, std::try_to_lock);
    if (!g.owns_lock() || r.pools_.empty()) return false;
    Pool* p = r.pools_[r.rr_++ % r.pools_.size()];
    // Worth the idle slot only if the step actually evacuated something;
    // a zero step lets the worker go back to yielding.
    return p->defrag_step() != 0;
  }

 private:
  std::mutex mu_;
  std::vector<Pool*> pools_;
  std::size_t rr_ = 0;
};

}  // namespace

Pool::Pool(std::string name, const HeapConfig& cfg)
    : name_(std::move(name)),
      num_arenas_(cfg.num_arenas),
      alloc_(cfg),
      streams_(alloc_),
      release_threshold_(cfg.release_threshold),
      slo_ns_(cfg.slo_latency_ns),
      counts_({"pool.sync", "", "pool.threshold_trim",
               pool_series("pool.slo_violation", name_)}) {
  set_defrag_mode(cfg.defrag_mode);
#if TOMA_TELEMETRY
  h_malloc_ns_ =
      &obs::registry().histogram(pool_series("pool.malloc_ns", name_));
  h_free_ns_ = &obs::registry().histogram(pool_series("pool.free_ns", name_));
#endif
  TOMA_CTR_INC("pool.create");
}

Pool::~Pool() {
  // Out of the idle registry first: from here no scheduler worker can
  // start a defrag_step against this pool.
  IdleDefragRegistry::instance().remove(this);
  streams_.sync_all();
  if (device_heap() == &alloc_) set_device_heap(nullptr);
  TOMA_CTR_INC("pool.destroy");
}

void Pool::observe_latency(obs::Histogram* h, std::uint64_t ns) {
#if TOMA_TELEMETRY
  h->record(ns);
  const std::uint64_t slo = slo_ns_.load(std::memory_order_relaxed);
  if (slo != 0 && ns > slo) counts_.inc(kSloViolations);
#else
  (void)h;
  (void)ns;
#endif
}

std::uint16_t Pool::record_id() {
  obs::Recorder& rec = obs::Recorder::instance();
  const std::uint64_t gen = rec.generation();
  if (rec_gen_.load(std::memory_order_acquire) != gen) {
    obs::RecordedPool info;
    info.name = name_;
    info.pool_bytes = alloc_.pool_bytes();
    info.quota_bytes = alloc_.quota_bytes();
    info.release_threshold = release_threshold_.load(std::memory_order_relaxed);
    info.num_arenas = num_arenas_;
    if (async_enabled()) info.flags |= obs::kRecPoolAsync;
    if (alloc_.heapsan_enabled()) info.flags |= obs::kRecPoolHeapSan;
    rec_id_.store(rec.intern_pool(info), std::memory_order_relaxed);
    rec_gen_.store(gen, std::memory_order_release);
  }
  return rec_id_.load(std::memory_order_relaxed);
}

void* Pool::malloc(std::size_t size, AllocStatus* status) {
  AllocStatus st = AllocStatus::kOk;
  obs::OpSpan span;
  void* p = alloc_.malloc(size, &st, &span);
  observe_latency(h_malloc_ns_, span.ns());
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_alloc(record_id(), obs::RecOp::kMalloc, size,
                                       0, true, p, outcome_of(st));
  }
  if (status != nullptr) *status = st;
  return p;
}

void Pool::free(void* p) {
  if (p == nullptr) return;  // a no-op: no latency sample, no SLO check
  // Record *before* the underlying free: once the block is back in the
  // allocator a racing thread can re-allocate the same pointer, and the
  // recorder's ptr->id map must not see that re-use first.
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_free(record_id(), obs::RecOp::kFree, p, 0,
                                      true);
  }
  obs::OpSpan span;
  alloc_.free(p, &span);
  observe_latency(h_free_ns_, span.ns());
}

void* Pool::calloc(std::size_t n, std::size_t size, AllocStatus* status) {
  AllocStatus st = AllocStatus::kOk;
  obs::OpSpan span;
  void* p = alloc_.calloc(n, size, &st, &span);
  observe_latency(h_malloc_ns_, span.ns());
  if (obs::recording_enabled()) {
    // Record the *total* request so replay issues calloc(1, total); an
    // overflowing n*size records as total 0, which replays to the same
    // kInvalidArg outcome.
    const bool overflow = size != 0 && n > SIZE_MAX / size;
    const std::size_t total = overflow ? 0 : n * size;
    obs::Recorder::instance().on_alloc(record_id(), obs::RecOp::kCalloc, total,
                                       0, true, p, outcome_of(st));
  }
  if (status != nullptr) *status = st;
  return p;
}

void* Pool::realloc(void* p, std::size_t size, AllocStatus* status) {
  [[maybe_unused]] const std::uint64_t t0 = TOMA_NOW_NS();
  const std::uint16_t rec =
      obs::recording_enabled() && (p != nullptr || size != 0) ? record_id() : 0;
  AllocStatus st = AllocStatus::kOk;
  void* q = alloc_.realloc(p, size, &st);
  observe_latency(h_malloc_ns_, TOMA_ELAPSED_NS(t0));
  if (obs::recording_enabled() && (p != nullptr || size != 0)) {
    obs::Recorder::instance().on_realloc(rec, p, q, size, outcome_of(st));
  }
  if (status != nullptr) *status = st;
  return q;
}

void* Pool::malloc_async(std::size_t size, gpu::Stream& s,
                         AllocStatus* status) {
  AllocStatus st = AllocStatus::kOk;
  void* p = nullptr;
  // The op's interval: a reuse hit is timed here; otherwise it is the
  // allocator's own span, stretched back over the pending-block scan
  // when there was one (span.t0 != 0).
  obs::OpSpan span;
  // Reuse is disabled while HeapSan is engaged: a sanitized pointer is
  // not a raw block base, and handing it back without the redzone /
  // shadow bookkeeping would blind the sanitizer.
  if (async_enabled() && size != 0 && !alloc_.heapsan().engaged()) {
    const std::size_t effective = GpuAllocator::effective_size(size);
    // 8..64 B requests skip the per-(pool, stream) pending-block scan:
    // the fixed lane's slab-refilled classes recycle them in O(1)
    // through alloc_.malloc below, and the linear probe was *slower*
    // than a plain malloc at these sizes (the 16 B async regression).
    if (!(alloc_.fixed_lane_enabled() &&
          effective <= kFixedLaneSlabMaxSize)) {
      span.t0 = TOMA_NOW_NS();
      p = streams_.try_reuse(effective, s);
      if (p != nullptr) span.t1 = TOMA_NOW_NS();
    }
  }
  if (p == nullptr) {
    const std::uint64_t scan_t0 = span.t0;
    p = alloc_.malloc(size, &st, &span);
    if (scan_t0 != 0) span.t0 = scan_t0;
  }
  observe_latency(h_malloc_ns_, span.ns());
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_alloc(record_id(), obs::RecOp::kMallocAsync,
                                       size, s.id(),
                                       &s == &gpu::default_stream(), p,
                                       outcome_of(st));
  }
  maybe_defrag_tick();
  if (status != nullptr) *status = st;
  return p;
}

void Pool::free_async(void* p, gpu::Stream& s) {
  if (p == nullptr) return;
  // As in free(): record while the pointer identity is still uniquely
  // ours, before any path that could hand it back to the allocator.
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_free(record_id(), obs::RecOp::kFreeAsync, p,
                                      s.id(), &s == &gpu::default_stream());
  }
  obs::OpSpan span;
  if (!async_enabled() || alloc_.heapsan().engaged()) {
    // Degenerate (paper-faithful) mode: the ordering contract holds
    // trivially because the free completes before free_async returns.
    TOMA_CTR_INC("pool.stream.passthrough");
    alloc_.free(p, &span);
  } else if (alloc_.lane_routable(p)) {
    // Small slab-refilled blocks bypass the pending-block machinery: the
    // free completes now (the ordering contract again holds trivially)
    // and the block lands on the freeing SM's lane, where the next small
    // malloc_async picks it up in O(1) instead of scanning the stream's
    // pending list.
    TOMA_CTR_INC("pool.stream.lane_route");
    alloc_.free(p, &span);
  } else {
    // Parked without the allocator: the one free path timed here.
    span.t0 = TOMA_NOW_NS();
    streams_.free_async(p, s);
    span.t1 = TOMA_NOW_NS();
  }
  observe_latency(h_free_ns_, span.ns());
  maybe_defrag_tick();
}

std::size_t Pool::sync(gpu::Stream& s) {
  const std::size_t n = streams_.sync(s);
  counts_.inc(kSyncs);
  maybe_release();
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_sync(record_id(), obs::RecOp::kSync, s.id(),
                                      &s == &gpu::default_stream(), n);
  }
  return n;
}

std::size_t Pool::sync_all() {
  const std::size_t n = streams_.sync_all();
  counts_.inc(kSyncAlls);
  maybe_release();
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_sync(record_id(), obs::RecOp::kSyncAll, 0,
                                      true, n);
  }
  return n;
}

std::size_t Pool::release_stream(gpu::Stream& s) {
  const std::size_t n = streams_.release_stream(s);
  maybe_release();
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_sync(record_id(), obs::RecOp::kStreamRelease,
                                      s.id(), &s == &gpu::default_stream(), n);
  }
  return n;
}

std::size_t Pool::trim() {
  streams_.sync_all();
  const std::size_t chunks = alloc_.trim();
  alloc_.shrink_backing();
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_sync(record_id(), obs::RecOp::kTrim, 0, true,
                                      chunks);
  }
  return chunks;
}

void Pool::set_async(bool on) {
  async_on_.store(on, std::memory_order_relaxed);
  if (!on) streams_.sync_all();
}

std::size_t Pool::stranded_bytes() const {
  // pool = live blocks + tree-accounted free space + everything stranded
  // in between (front-end caches, partial bins, quarantine, pending
  // async frees). Saturating: the three reads race with concurrent
  // allocation, and an instantaneous overshoot must not wrap.
  const std::size_t mapped = alloc_.mapped_bytes();
  const std::size_t used = alloc_.bytes_in_use();
  const std::size_t tree_free =
      const_cast<GpuAllocator&>(alloc_).buddy().free_bytes();
  const std::size_t accounted = used + tree_free;
  return accounted >= mapped ? 0 : mapped - accounted;
}

void Pool::set_defrag_mode(DefragMode m) {
  defrag_mode_.store(static_cast<std::uint8_t>(m),
                     std::memory_order_relaxed);
  alloc_.set_incremental_defrag(m == DefragMode::kIncremental);
  if (m == DefragMode::kIncremental) {
    IdleDefragRegistry::instance().add(this);
  } else {
    IdleDefragRegistry::instance().remove(this);
  }
}

void Pool::maybe_defrag_tick() {
  if (defrag_mode() != DefragMode::kIncremental) return;
  if ((op_counter_.fetch_add(1, std::memory_order_relaxed) &
       (kVmmDefragOpInterval - 1)) != 0) {
    return;
  }
  alloc_.defrag_step();
}

void Pool::maybe_release() {
  // The sync-point defrag runs before the threshold check: compaction is
  // what turns "stranded in sparse bins" into whole free chunks the trim
  // and shrink below can actually return. Under kIncremental a sync
  // point pays one bounded slice instead of a run to convergence.
  const DefragMode mode = defrag_mode();
  if (mode == DefragMode::kSync) {
    alloc_.defrag();
  } else if (mode == DefragMode::kIncremental) {
    alloc_.defrag_step();
  }
  const std::size_t threshold =
      release_threshold_.load(std::memory_order_relaxed);
  if (threshold == kReleaseRetainAll) return;
  if (stranded_bytes() <= threshold) return;
  alloc_.trim();
  alloc_.shrink_backing();
  counts_.inc(kThresholdTrims);
}

PoolStats Pool::stats() const {
  PoolStats s;
  s.alloc = alloc_.stats();
  s.stream = streams_.stats();
  s.syncs = counts_.value(kSyncs) + counts_.value(kSyncAlls);
  s.threshold_trims = counts_.value(kThresholdTrims);
  s.slo_violations = counts_.value(kSloViolations);
  s.slo_target_ns = slo_ns_.load(std::memory_order_relaxed);
  s.bytes_in_use = alloc_.bytes_in_use();
  s.quota_bytes = alloc_.quota_bytes();
  s.release_threshold = release_threshold_.load(std::memory_order_relaxed);
  return s;
}

// --- PoolManager -----------------------------------------------------------

PoolManager& PoolManager::instance() {
  // Leaky: the default pool may back the device heap until process exit.
  static PoolManager* m = new PoolManager();
  return *m;
}

Pool* PoolManager::create(const std::string& name, const HeapConfig& cfg) {
  if (name.empty() || !cfg.valid()) return nullptr;
  std::lock_guard<std::mutex> g(mu_);
  auto [it, inserted] = pools_.try_emplace(name);
  if (!inserted) return nullptr;
  it->second = std::make_unique<Pool>(name, cfg);
  return it->second.get();
}

Pool* PoolManager::find(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = pools_.find(name);
  return it != pools_.end() ? it->second.get() : nullptr;
}

bool PoolManager::destroy(const std::string& name) {
  if (name == kDefaultName) return false;
  std::unique_ptr<Pool> doomed;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = pools_.find(name);
    if (it == pools_.end()) return false;
    doomed = std::move(it->second);
    pools_.erase(it);
  }
  // Destruction (drain + allocator teardown) runs outside the manager
  // lock so a slow teardown cannot stall unrelated pool lookups.
  doomed.reset();
  return true;
}

Pool& PoolManager::default_pool(const HeapConfig& cfg) {
  Pool* pool;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto [it, inserted] = pools_.try_emplace(kDefaultName);
    if (inserted) it->second = std::make_unique<Pool>(kDefaultName, cfg);
    pool = it->second.get();
  }
  // Back the legacy device_malloc/device_free globals unless the
  // application installed its own heap first.
  install_device_heap_if_absent(&pool->allocator());
  return *pool;
}

std::size_t PoolManager::sync_stream(gpu::Stream& s) {
  std::vector<Pool*> all;
  {
    std::lock_guard<std::mutex> g(mu_);
    all.reserve(pools_.size());
    for (auto& [name, pool] : pools_) all.push_back(pool.get());
  }
  std::size_t n = 0;
  for (Pool* pool : all) n += pool->sync(s);
  return n;
}

std::size_t PoolManager::release_stream(gpu::Stream& s) {
  std::vector<Pool*> all;
  {
    std::lock_guard<std::mutex> g(mu_);
    all.reserve(pools_.size());
    for (auto& [name, pool] : pools_) all.push_back(pool.get());
  }
  std::size_t n = 0;
  for (Pool* pool : all) n += pool->release_stream(s);
  return n;
}

std::vector<std::string> PoolManager::names() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::string> out;
  out.reserve(pools_.size());
  for (const auto& [name, pool] : pools_) out.push_back(name);
  return out;
}

std::size_t PoolManager::pool_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return pools_.size();
}

}  // namespace toma::alloc
