// Multi-pool manager: named, quota-bounded GpuAllocator pools with a
// stream-ordered asynchronous front-end (see docs/API.md and
// docs/INTERNALS.md §6).
//
// The paper exposes one process-global heap (§2.1). A production host
// serves many concurrent workloads, so the organizing abstraction here is
// the *pool*: each tenant/workload gets an isolated GpuAllocator with its
// own byte quota (interference is bounded — one tenant at quota fails
// with AllocStatus::kQuota while the others keep allocating at full
// speed) and its own release threshold governing how much cached memory a
// sync point may retain (the cudaMemPool release-threshold analogue).
// PoolManager owns the pools by name; the legacy device_malloc/free
// globals are thin wrappers over the manager's "default" pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/stream.hpp"
#include "gpusim/stream.hpp"

namespace toma::obs {
class Counter;
class Histogram;
}  // namespace toma::obs

namespace toma::alloc {

struct PoolStats {
  GpuAllocatorStats alloc;
  StreamFrontEndStats stream;
  std::uint64_t syncs = 0;            // Pool::sync calls
  std::uint64_t threshold_trims = 0;  // trims forced by release threshold
  std::uint64_t slo_violations = 0;   // ops slower than the SLO target
  std::uint64_t slo_target_ns = 0;    // 0 = no SLO
  std::size_t bytes_in_use = 0;
  std::size_t quota_bytes = 0;        // 0 = unlimited
  std::size_t release_threshold = 0;
};

class Pool {
 public:
  Pool(std::string name, const HeapConfig& cfg);
  /// Drains every pending async free, then tears the allocator down. If
  /// this pool's allocator is the installed device heap it is
  /// uninstalled first.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  const std::string& name() const { return name_; }
  GpuAllocator& allocator() { return alloc_; }
  const GpuAllocator& allocator() const { return alloc_; }

  // --- synchronous surface -------------------------------------------------
  // Thin forwarding plus the pool's observability duties: per-pool
  // latency histograms (`pool.malloc_ns{pool=...}` / `pool.free_ns`),
  // SLO-violation accounting, and flight-recorder hooks (obs/recorder.hpp)
  // when a recording session is active. The device-side hot path
  // (device_malloc -> GpuAllocator) bypasses all of this by design.
  void* malloc(std::size_t size, AllocStatus* status = nullptr);
  void free(void* p);
  void* calloc(std::size_t n, std::size_t size,
               AllocStatus* status = nullptr);
  void* realloc(void* p, std::size_t size, AllocStatus* status = nullptr);
  std::size_t usable_size(void* p) const { return alloc_.usable_size(p); }

  // --- stream-ordered surface ----------------------------------------------
  /// malloc whose result is ordered after prior work on `s`: a pending
  /// same-stream free of a block with exactly the right capacity is
  /// reused directly (no allocator round trip); otherwise an ordinary
  /// malloc. With async off or HeapSan engaged this is plain malloc.
  void* malloc_async(std::size_t size, gpu::Stream& s,
                     AllocStatus* status = nullptr);

  /// Defer freeing `p` until `s` synchronizes (O(1) on the hot path).
  /// With async off or HeapSan engaged the free happens immediately —
  /// the ordering contract still holds, trivially.
  void free_async(void* p, gpu::Stream& s);

  /// Stream sync point: drain `s`'s deferred frees through the normal
  /// free paths, then apply the release threshold (trim when more than
  /// `release_threshold` bytes sit stranded in caches / partial bins).
  /// Returns the number of frees drained.
  std::size_t sync(gpu::Stream& s);

  /// sync() across every stream that has pending frees on this pool.
  std::size_t sync_all();

  /// Drain `s` and forget its per-pool slot (stream destruction).
  std::size_t release_stream(gpu::Stream& s);

  // --- maintenance ----------------------------------------------------------
  /// Drain pending frees, then scavenge caches back to maximal buddy
  /// blocks (GpuAllocator::trim). Returns chunks released by UAlloc.
  std::size_t trim();

  void set_release_threshold(std::size_t bytes) {
    release_threshold_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t release_threshold() const {
    return release_threshold_.load(std::memory_order_relaxed);
  }

  /// Runtime switch for the async front-end (default: the compile-time
  /// TOMA_STREAM_ASYNC). Turning it off drains all pending frees.
  void set_async(bool on);
  bool async_enabled() const {
    return async_on_.load(std::memory_order_relaxed);
  }

  std::size_t bytes_in_use() const { return alloc_.bytes_in_use(); }
  std::size_t quota_bytes() const { return alloc_.quota_bytes(); }
  void set_quota(std::size_t bytes) { alloc_.set_quota(bytes); }

  /// Per-operation latency SLO target in ns (0 = no SLO). An op slower
  /// than the target bumps `pool.slo_violation{pool=...}` and
  /// stats().slo_violations. Exported quantiles always come from the
  /// latency histograms regardless of the target.
  void set_slo_latency(std::uint64_t ns) {
    slo_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t slo_latency() const {
    return slo_ns_.load(std::memory_order_relaxed);
  }

  /// Bytes stranded outside both live allocations and the buddy tree
  /// (lane/quicklist caches, partial bins, quarantine) — what the
  /// release threshold compares against. Measured against the *mapped*
  /// footprint: unmapped VA of an elastic pool is not stranded, it was
  /// never resident.
  std::size_t stranded_bytes() const;

  /// When the compactor runs (default: cfg.defrag_mode). kSync runs it
  /// to convergence at sync points (GpuAllocator::defrag); kIncremental
  /// runs bounded defrag_step() slices piggybacked on the async surface
  /// (one per kVmmDefragOpInterval ops), at sync points, and in gpusim
  /// scheduler idle slots. Only meaningful on a vmm-backed pool. Both
  /// moving modes require two-phase relocation hooks with a prepare
  /// callback (set_relocation_hooks); nothing moves until one is
  /// registered.
  void set_defrag_mode(DefragMode m);
  DefragMode defrag_mode() const {
    return static_cast<DefragMode>(
        defrag_mode_.load(std::memory_order_relaxed));
  }
  bool defrag_enabled() const { return defrag_mode() != DefragMode::kOff; }

  /// One bounded incremental compaction slice (GpuAllocator::defrag_step);
  /// bytes evacuated. Safe to call concurrently with traffic.
  std::size_t defrag_step(std::size_t budget_bytes = 0) {
    return alloc_.defrag_step(budget_bytes);
  }

  /// Two-phase relocation hooks for defrag (see RelocationHooks).
  void set_relocation_hooks(RelocationHooks hooks) {
    alloc_.set_relocation_hooks(std::move(hooks));
  }

  PoolStats stats() const;
  bool check_consistency() const { return alloc_.check_consistency(); }

 private:
  /// Trim if stranded_bytes() exceeds the release threshold.
  void maybe_release();

  /// kIncremental piggyback: every kVmmDefragOpInterval-th async op pays
  /// one defrag_step. A relaxed counter mask — the cadence does not need
  /// to be exact, only amortized.
  void maybe_defrag_tick();

  /// Record an op's latency (`ns`) into `h` and check it against the SLO
  /// target. Compiles to nothing with telemetry off.
  void observe_latency(obs::Histogram* h, std::uint64_t ns);

  /// The pool's id in the active flight-recorder session, interning on
  /// first use per session (the recorder generation changes on start()).
  std::uint16_t record_id();

  std::string name_;
  std::uint32_t num_arenas_;  // retained for the flight-recorder header
  GpuAllocator alloc_;
  StreamFrontEnd streams_;
  std::atomic<std::size_t> release_threshold_;
  std::atomic<bool> async_on_{TOMA_STREAM_ASYNC != 0};
  std::atomic<std::uint8_t> defrag_mode_{0};  // DefragMode
  std::atomic<std::uint32_t> op_counter_{0};  // async-op tick counter
  std::atomic<std::uint64_t> slo_ns_{0};
  // PoolStats counts: sync() calls (exported as pool.sync), sync_all()
  // calls, threshold trims and SLO violations (exported per pool).
  enum Count : std::uint32_t {
    kSyncs, kSyncAlls, kThresholdTrims, kSloViolations
  };
  obs::CounterSet counts_;
  // Registry handles resolved once at construction (null with telemetry
  // compiled out); the registry never deletes instruments.
  obs::Histogram* h_malloc_ns_ = nullptr;
  obs::Histogram* h_free_ns_ = nullptr;
  std::atomic<std::uint64_t> rec_gen_{0};
  std::atomic<std::uint16_t> rec_id_{0};
};

/// Process-wide registry of named pools. Leaky singleton (like the obs
/// registry) so the default pool backing the legacy device heap survives
/// static teardown.
class PoolManager {
 public:
  static constexpr const char* kDefaultName = "default";

  static PoolManager& instance();

  PoolManager(const PoolManager&) = delete;
  PoolManager& operator=(const PoolManager&) = delete;

  /// Create a pool. nullptr when the name is taken or the config is
  /// invalid (the C facade distinguishes via find()/HeapConfig::valid()).
  Pool* create(const std::string& name, const HeapConfig& cfg = {});

  /// Look up a pool by name; nullptr when absent.
  Pool* find(const std::string& name) const;

  /// Destroy a pool by name. The default pool refuses (the legacy
  /// device-heap wrappers depend on it); returns false then and for
  /// unknown names. Outstanding allocations from the pool must have been
  /// freed (destruction with live blocks is a use-after-free in waiting,
  /// exactly as with a raw GpuAllocator).
  bool destroy(const std::string& name);

  /// The "default" pool, created on first use with `cfg` (first call
  /// wins) and installed as the process device heap when none is
  /// installed — device_malloc and toma_malloc(nullptr, ...) then share
  /// one pool.
  Pool& default_pool(const HeapConfig& cfg = {});

  /// Is the default pool created already? (Introspection for tests.)
  bool has_default() const { return find(kDefaultName) != nullptr; }

  /// Sync `s` on every pool (the C facade's toma_stream_sync). Returns
  /// total frees drained.
  std::size_t sync_stream(gpu::Stream& s);

  /// Drain + forget `s`'s slot on every pool (stream destruction).
  std::size_t release_stream(gpu::Stream& s);

  std::vector<std::string> names() const;
  std::size_t pool_count() const;

 private:
  PoolManager() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Pool>> pools_;
};

}  // namespace toma::alloc
