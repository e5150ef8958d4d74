// GpuAllocator: the public malloc/free facade (paper §4).
//
// Size routing on malloc: requests round up to a power of two; sizes
// 8..1024 B go to UAlloc, everything larger (including the degenerate
// 2 KB case, which rounds to one 4 KB page) goes to TBuddy.
//
// Alignment routing on free: TBuddy blocks are always 4 KB aligned and
// UAlloc blocks never are, so a single alignment test replaces any shared
// ownership structure — eliminating what would otherwise be a global
// point of contention.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "alloc/config.hpp"
#include "alloc/fixed_lane.hpp"
#include "alloc/tbuddy.hpp"
#include "alloc/ualloc.hpp"
#include "obs/context.hpp"
#include "obs/counter.hpp"
#include "san/heapsan.hpp"
#include "sync/epoch_pin.hpp"
#include "sync/spin_mutex.hpp"
#include "vmm/backing.hpp"

namespace toma::alloc {

/// Why an allocation attempt returned nullptr. Surfaced through the
/// status out-parameters below and mapped to `toma_status_t` by the C
/// facade (include/toma/toma.h) — a quota rejection and true pool
/// exhaustion are different operational events and alert differently.
enum class AllocStatus : std::uint8_t {
  kOk = 0,
  kInvalidArg,  // size 0 / overflowing count*size
  kOom,         // pool exhausted at the routed size (true exhaustion)
  kQuota,       // the per-pool byte quota would be exceeded
};

/// `release_threshold` value meaning "never auto-trim on stream sync".
inline constexpr std::size_t kReleaseRetainAll = SIZE_MAX;

/// When a pool runs its compactor (one engine, the per-chunk evacuation
/// of docs/INTERNALS.md §8; the modes differ only in when it runs).
///   kOff          no compaction (shrink alone reclaims whole-free chunks)
///   kSync         at Pool::sync: defrag() runs the engine until no
///                 victim is left
///   kIncremental  bounded defrag_step() slices piggybacked on async
///                 traffic and scheduler idle slots
/// Both moving modes need relocation hooks with a prepare callback
/// (RelocationHooks); without one nothing moves.
enum class DefragMode : std::uint8_t { kOff = 0, kSync = 1, kIncremental = 2 };

/// Two-phase relocation contract. For every block compaction wants to
/// move:
///
///   prepare(old, new, size) -> bool   asked *before* any bytes move. The
///       host locks its references to `old` and returns true to admit the
///       move, or false to veto it (unknown pointer, block mid-use, ...).
///       A vetoed block stays at `old` untouched. Compaction REQUIRES a
///       prepare hook that returns false for pointers the host does not
///       own live: blocks parked in pool-level caches (the fixed lanes,
///       the HeapSan quarantine) census as live but must not be
///       moved-and-committed blindly.
///   commit(old, new, size)            the payload now lives at `new`;
///       the host rewrites its references and unlocks. From the moment
///       commit returns, the host uses `new` only — frees/reallocs
///       already in flight at `old` resolve through the forward table.
///   abort(old)                        a move admitted by prepare could
///       not complete; references to `old` stay valid. (No current code
///       path fails between prepare and commit; the hook completes the
///       contract for future use and for symmetric host bookkeeping.)
///
/// Hooks run under the allocator's defrag lock: they must be quick and
/// must not call back into this pool. With prepare unset, compaction
/// moves nothing.
struct RelocationHooks {
  std::function<bool(void*, void*, std::size_t)> prepare;
  std::function<void(void*, void*, std::size_t)> commit;
  std::function<void(void*)> abort;
};

/// Construction parameters for a heap/pool. Replaces the positional
/// `(pool_bytes, num_arenas)` constructors: designated initializers keep
/// call sites readable as the knob count grows —
///
///   GpuAllocator a(HeapConfig{.pool_bytes = 16 << 20, .quota_bytes = 1 << 20});
///
/// Defaults reproduce the previous constructor's behaviour exactly (the
/// compile-time front-end toggles, no quota, retain-all threshold).
struct HeapConfig {
  /// Pool reservation (a power of two >= kChunkSize; the host-side
  /// analogue of cudaMalloc'ing the pool).
  std::size_t pool_bytes = 64 << 20;
  /// UAlloc arena count; normally the device's SM count.
  std::uint32_t num_arenas = 8;
  /// Byte quota on live allocations (charged at block granularity);
  /// 0 = unlimited (only the pool itself bounds usage).
  std::size_t quota_bytes = 0;
  /// Stream-sync trim threshold: when a sync point observes more than
  /// this many bytes stranded in caches/partial bins, the pool trims
  /// (CUDA's cudaMemPoolAttrReleaseThreshold analogue; CUDA defaults to
  /// 0 = release everything, we default to retain-all — the
  /// throughput-oriented choice).
  std::size_t release_threshold = kReleaseRetainAll;
  /// Per-operation latency SLO target in wall-clock ns for the pool's
  /// host-facing surface (Pool::malloc/free and the async forms): an
  /// operation slower than this bumps the pool's SLO-violation counter
  /// (`pool.slo_violation{pool="..."}`). 0 = no SLO. Telemetry-off
  /// builds never observe violations (the clock is compiled out).
  std::uint64_t slo_latency_ns = 0;
  /// Fixed-lane refill slab depth: blocks fetched from UAlloc per bulk
  /// transaction on a slab-refilled lane's miss/top-up (8..64 B; the
  /// free-stocked classes never refill). 0 = the per-class default
  /// (fixed_lane_refill(cls), one bin's worth capped at
  /// kFixedLaneMaxRefill). A nonzero depth decouples the slab size from
  /// the bin capacity — the abl_fixed_lane ablation sweeps this to find
  /// where deeper refills stop paying (values above kFixedLaneMaxRefill
  /// are clamped to it; the transfer array bounds a single transaction).
  std::uint32_t fixed_lane_refill_depth = 0;
  bool heapsan = TOMA_HEAPSAN != 0;
  bool quicklist = TOMA_TBUDDY_QUICKLIST != 0;
  bool cas_claim = TOMA_TBUDDY_CAS_CLAIM != 0;
  bool fixed_lane = TOMA_FIXED_LANE != 0;

  // --- elastic virtual backing (docs/INTERNALS.md §8) ----------------------
  /// Back the pool with an elastic chunked mapping: `pool_bytes` becomes a
  /// VA reservation, physical chunks map on demand (grow on exhaustion,
  /// unmap at trim). OFF = the fixed-size eagerly-committed pool.
  bool vmm = TOMA_VMM != 0;
  /// Backing-chunk granule (power-of-two multiple of kChunkSize dividing
  /// pool_bytes); 0 = auto (pool/64 clamped to [256 KB, 4 MB]).
  std::size_t chunk_bytes = 0;
  /// Chunks mapped at creation — also the shrink floor. >= 1.
  std::uint32_t initial_chunks = 1;
  /// Growth ceiling in chunks; 0 = the whole reservation.
  std::uint32_t max_chunks = 0;
  /// When the compactor runs (see DefragMode). Moved blocks change
  /// address, so only opt in when every consumer tolerates relocation
  /// through RelocationHooks.
  DefragMode defrag_mode = DefragMode::kOff;

  /// Constructible without asserting? (The C facade validates before
  /// constructing; the constructor itself still asserts.)
  bool valid() const {
    if (!(util::is_pow2(pool_bytes) && pool_bytes >= kChunkSize &&
          num_arenas >= 1)) {
      return false;
    }
    if (!vmm) return true;
    const std::size_t cb = vmm_chunk_bytes_for(pool_bytes, chunk_bytes);
    if (!util::is_pow2(cb) || cb < kChunkSize || cb > pool_bytes) {
      return false;
    }
    const std::size_t slots = pool_bytes / cb;
    const std::size_t cap = max_chunks == 0 ? slots : max_chunks;
    return initial_chunks >= 1 && initial_chunks <= slots &&
           initial_chunks <= cap;
  }
};

struct GpuAllocatorStats {
  TBuddyStats buddy;
  UAllocStats ualloc;
  FixedLaneStats lane;
  san::HeapSanStats heapsan;
  vmm::BackingStats vmm;  // zeroed when the pool is fixed-size
  std::uint64_t mallocs = 0;
  std::uint64_t failed_mallocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t reallocs = 0;          // realloc calls that resized (p, n>0)
  std::uint64_t reallocs_inplace = 0;  // ...of which returned p unchanged
  std::uint64_t quota_rejects = 0;     // failed_mallocs due to the quota
  std::size_t bytes_in_use = 0;        // live bytes at block granularity
  std::size_t quota_bytes = 0;         // 0 = unlimited
  std::size_t mapped_bytes = 0;        // resident footprint (= pool size
                                       // when fixed)
  std::uint64_t defrag_passes = 0;     // defrag() runs (sync points)
  std::uint64_t defrag_moves = 0;      // blocks moved, either mode
  std::uint64_t defrag_steps = 0;      // defrag_step() calls that ran
  std::uint64_t defrag_moved_bytes = 0;  // bytes moved, either mode
  std::uint64_t defrag_forwarded = 0;  // frees/reallocs resolved via the
                                       // forward table
  std::uint64_t defrag_pin_stalls = 0;  // retirement waits on pin epochs
};

class GpuAllocator {
 public:
  explicit GpuAllocator(const HeapConfig& cfg);

  /// Legacy positional form; equivalent to
  /// HeapConfig{.pool_bytes = pool_bytes, .num_arenas = num_arenas}.
  GpuAllocator(std::size_t pool_bytes, std::uint32_t num_arenas);
  ~GpuAllocator();

  GpuAllocator(const GpuAllocator&) = delete;
  GpuAllocator& operator=(const GpuAllocator&) = delete;

  /// Device-side malloc. Returns nullptr for size 0, oversized requests,
  /// pool exhaustion, or quota rejection; `status` (optional) reports
  /// which. `span` (optional) receives the interval the call timed for
  /// alloc.malloc_ns — left untouched when it timed nothing (size 0) and
  /// zero with telemetry compiled out — so a front-end reports the same
  /// interval without reading the clock again.
  void* malloc(std::size_t size, AllocStatus* status = nullptr,
               obs::OpSpan* span = nullptr);

  /// Device-side free. nullptr is ignored (`span` untouched); otherwise
  /// `span` as in malloc(), for alloc.free_ns.
  void free(void* p, obs::OpSpan* span = nullptr);

  /// Zero-initialized allocation of n*size bytes (overflow-checked);
  /// `span` as in malloc() (untouched on an overflowing request).
  void* calloc(std::size_t n, std::size_t size,
               AllocStatus* status = nullptr, obs::OpSpan* span = nullptr);

  /// Standard realloc semantics: grows/shrinks `p` to `size` bytes,
  /// preserving min(old, new) bytes; realloc(nullptr, s) == malloc(s);
  /// realloc(p, 0) frees p and returns nullptr. On failure the original
  /// block is untouched and nullptr is returned. Fast path: when the new
  /// size rounds to the block's existing capacity (same size class /
  /// buddy order), `p` is returned unchanged — no copy, no free/malloc
  /// round trip (counted in stats().reallocs_inplace).
  void* realloc(void* p, std::size_t size, AllocStatus* status = nullptr);

  /// Actual byte capacity of a live allocation (>= the requested size).
  std::size_t usable_size(void* p) const;

  /// The size a request will actually occupy (rounding + routing),
  /// exposed for fragmentation accounting in benchmarks.
  static std::size_t effective_size(std::size_t size);

  std::size_t pool_bytes() const { return pool_bytes_; }

  /// Physically mapped bytes right now: the resident footprint. Equals
  /// pool_bytes() for a fixed-size pool; tracks chunk grow/shrink under
  /// the elastic backing.
  std::size_t mapped_bytes() const {
    return vmm_ != nullptr ? vmm_->mapped_bytes() : pool_bytes_;
  }

  // --- quota ---------------------------------------------------------------
  // Live bytes are charged at block granularity (the rounded class/order
  // size — what the request actually occupies) when a block leaves the
  // underlying allocators and uncharged when it returns. Blocks parked in
  // the fixed lanes/quicklists are pool-level caches, not tenant usage, so
  // they are not charged; HeapSan-quarantined blocks *are* still charged
  // (they pin real memory until evicted — a quota-hit pool under HeapSan
  // flushes its quarantine and retries before rejecting).

  /// Live bytes right now (block-granular).
  std::size_t bytes_in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }
  /// Current quota (0 = unlimited).
  std::size_t quota_bytes() const {
    return quota_.load(std::memory_order_relaxed);
  }
  /// Adjust the quota at runtime. Lowering below current usage rejects
  /// new allocations until usage drains — existing blocks are unaffected.
  void set_quota(std::size_t bytes) {
    quota_.store(bytes, std::memory_order_relaxed);
  }

  TBuddy& buddy() { return *buddy_; }
  UAlloc& ualloc() { return *ualloc_; }
  FixedLane& fixed_lane() { return *lane_; }
  san::HeapSan& heapsan() { return *san_; }

  /// Runtime switch for the fixed lane, the cache in front of every
  /// UAlloc class (default: the compile-time TOMA_FIXED_LANE option).
  /// Disabling flushes every lane-resident block back into the bin
  /// accounting: the paper's exact front end.
  void set_fixed_lane(bool on) { lane_->set_enabled(on); }
  bool fixed_lane_enabled() const { return lane_->enabled(); }

  /// Should Pool::free_async free `p` now instead of parking it on its
  /// stream? True for slab-refilled UAlloc blocks (8..64 B) while the
  /// lane is on: the lane recycles them in O(1) anyway, and skipping the
  /// per-(pool, stream) pending-block machinery is cheaper. Larger
  /// classes keep the stream's reuse path.
  bool lane_routable(void* p) const {
    return lane_->enabled() && !util::is_aligned(p, kPageSize) &&
           ualloc_->usable_size(p) <= kFixedLaneSlabMaxSize;
  }

  /// Runtime switch for the HeapSan layer (default: the compile-time
  /// TOMA_HEAPSAN option). Enabling sanitizes subsequent allocations;
  /// blocks allocated while enabled stay tracked until freed and evicted,
  /// so disabling mid-run is always safe.
  void set_heapsan(bool on) { san_->set_enabled(on); }
  bool heapsan_enabled() const { return san_->enabled(); }

  // --- elastic backing (grow / shrink / defrag) ----------------------------

  /// Was this pool constructed on the elastic backing store? (The
  /// reservation shape is fixed at construction; set_vmm only gates the
  /// elastic *operations* at runtime.)
  bool has_vmm() const { return vmm_ != nullptr; }
  vmm::BackingStore& backing() { return *vmm_; }

  /// Runtime switch for grow-on-exhaustion / shrink-at-trim / defrag on a
  /// vmm-backed pool (default ON when constructed with cfg.vmm). Turning
  /// it off freezes the mapping at its current size — the pool behaves
  /// fixed-size from then on. No effect on a fixed-size pool.
  void set_vmm(bool on) { vmm_on_.store(on, std::memory_order_relaxed); }
  bool vmm_enabled() const {
    return vmm_ != nullptr && vmm_on_.load(std::memory_order_relaxed);
  }

  /// Unmap whole free backing chunks back to the OS, never shrinking the
  /// mapping below initial_chunks. Flushes the TBuddy quicklists first so
  /// deferred frees coalesce, then repeatedly extracts the largest free
  /// block of at least one chunk and unmaps its chunks. Returns chunks
  /// unmapped. Safe concurrently with allocation (extraction claims
  /// blocks through the ordinary two-stage protocol).
  std::size_t shrink_backing();

  /// Sync-point compaction (DefragMode::kSync): flush the parked blocks
  /// (release_cached), then run the defrag_step engine until no victim
  /// is left — each backing chunk evacuated at most once per call —
  /// retire what has drained, and trim and shrink. Returns blocks moved.
  /// No-op (0) unless vmm_enabled() and a prepare hook is registered.
  /// Disarms the epoch pins on return when no evacuation state is
  /// outstanding.
  std::size_t defrag();

  /// One bounded slice of compaction, safe concurrently with allocator
  /// traffic (docs/INTERNALS.md §8): advances the per-chunk evacuation
  /// state machine — retire the forwarding-queue head if its pin epoch
  /// drained, select a sparse victim chunk if none is active, then
  /// evacuate at most `budget_bytes` (0 = the kVmmDefragStepBytes
  /// default) of live blocks through the two-phase hooks. Returns bytes
  /// moved this call. Returns 0 immediately when another thread is
  /// mid-step (try-lock), when vmm is off, or when no prepare hook is
  /// registered and nothing is outstanding (see RelocationHooks).
  std::size_t defrag_step(std::size_t budget_bytes = 0);

  /// Register the two-phase relocation hooks (replaces any previous
  /// hooks).
  void set_relocation_hooks(RelocationHooks hooks);

  /// Arm/disarm the epoch-pin facility for compaction. Arming is
  /// implicit in defrag_step() and defrag(); disarming only takes effect
  /// once no evacuation state is outstanding.
  void set_incremental_defrag(bool on);

  /// Scavenge cached-but-empty UAlloc bins/chunks back into the buddy
  /// pool (malloc_trim analogue): releases the parked blocks first (see
  /// release_cached), then the TBuddy quicklists — UAlloc's retired
  /// chunks land in the order-6 quicklist, so the buddy flush must run
  /// second for those chunks to coalesce back into maximal blocks.
  /// Returns chunks released.
  std::size_t trim() {
    release_cached();
    const std::size_t chunks = ualloc_->trim();
    buddy_->trim();
    return chunks;
  }

  /// Return every block parked above the UAlloc bins to the bin
  /// accounting: the HeapSan quarantine (quarantined blocks pin bins and
  /// pages), then the fixed lanes. Parked blocks keep their bitmap bits
  /// claimed, so trim, defrag's census and chunk retirement all flush
  /// through here first. No chunk is returned to the buddy. Returns
  /// blocks flushed.
  std::size_t release_cached() {
    const std::size_t quarantined =
        san_->engaged() ? san_->flush_quarantine() : 0;
    return quarantined + lane_->flush();
  }

  GpuAllocatorStats stats() const;

  /// Combined quiescent consistency check (tests).
  bool check_consistency() const {
    return buddy_->check_consistency() && ualloc_->check_consistency() &&
           lane_->check_consistency();
  }

 private:
  /// Route a rounded request to UAlloc or TBuddy (the paper's size split).
  void* route_alloc(std::size_t rounded);
  /// The UAlloc route with the fixed lane in front: a lane pop (or slab
  /// refill), then UAlloc itself. Tenant allocations and defrag's
  /// destination blocks both come through here.
  void* ualloc_alloc(std::size_t rounded);
  /// Free a decoded UAlloc block through the lane (UAlloc directly when
  /// the lane is off).
  void ualloc_free(void* p, BinHeader* bin, std::uint32_t idx);
  /// Return an evicted HeapSan base pointer to its owner by alignment,
  /// without touching the user-facing malloc/free statistics.
  void free_base(void* base);
  /// Bytes a request rounded to `rounded` occupies in its owner (the
  /// quota charge; equals the block's usable capacity).
  static std::size_t charged_size(std::size_t rounded) {
    return rounded <= kMaxUAllocSize
               ? rounded
               : util::align_up(rounded, kPageSize);
  }
  /// Quota admission: charge `n` bytes, or fail without charging.
  bool reserve_bytes(std::size_t n);

  /// TBuddy's grower (TBuddy::set_grower): under grow_mu_, retry (true)
  /// if a block was injected since `epoch`, else map and inject the next
  /// backing chunk (true), or refuse (false) when vmm is off, the quota
  /// caps the mapping, or the ceiling (max_chunks) is reached.
  bool grow_backing(std::uint64_t epoch);
  /// Would mapping one more chunk push the resident footprint past the
  /// quota? (The grower's refusal, and kQuota rather than kOom.)
  bool quota_caps_mapping() const;

  // --- compaction engine (docs/INTERNALS.md §8) ---------------------------

  /// One chunk's evacuation in flight: parked destination slots, held
  /// (already-moved) source slots, and — once forwarding — the retire
  /// token its unmap waits on. Source slots stay claimed until the pin
  /// epoch drains so a forwarded old address can never be reallocated
  /// while its forward entry is live.
  struct EvacState {
    std::uint32_t chunk = 0;  // backing-chunk slot being evacuated
    std::uint64_t token = 0;  // retirement epoch token (0 = not issued)
    bool released = false;    // held slots returned to the allocator
    std::uint32_t extract_retries = 0;
    std::uint32_t stall_sweeps = 0;  // sweeps that made no progress
    std::vector<std::pair<BinHeader*, std::uint32_t>> held;  // ualloc slots
    std::vector<void*> held_buddy;  // parked tenant-path buddy blocks
    std::set<const void*> held_addrs;
  };

  /// The pin facility when armed, nullptr when off (so a disabled pin
  /// costs one relaxed load on the hot paths).
  sync::EpochPins* pin_target() const {
    return pins_on_.load(std::memory_order_relaxed) ? &pins_ : nullptr;
  }
  /// Forward-table resolution at the free/realloc (consuming) and
  /// usable_size (read-only) entry points. Must run before any block
  /// decode: a forwarded old address may lie in retired (PROT_NONE)
  /// memory.
  void* resolve_forward(void* p, bool consume) const;
  /// Tenant-path parking: a freshly routed allocation that landed inside
  /// the chunk being evacuated is absorbed into the evacuation's held
  /// set (true) so route_alloc retries — the compactor strictly drains
  /// the victim's free space instead of racing tenant traffic for it.
  bool evac_park(void* p);

  /// Retire the forwarding-queue head once its pin epoch drained; false
  /// when the queue is empty or the head is still pinned.
  bool step_retire();
  /// Census + CAS kLive -> kEvacuating. A non-null `evacuated` skips the
  /// chunks it marks and marks the one selected (defrag()'s
  /// once-per-run rule).
  bool select_victim(std::vector<bool>* evacuated);
  std::size_t step_evacuate(std::size_t budget_bytes);  // one sweep slice
  void begin_forwarding();       // kEvacuating -> kForwarding transition
  /// Move one block of the victim `ev` through the two-phase hooks: the
  /// source slot stays claimed in `ev`'s held set and a forward entry
  /// names the new address.
  enum class MoveResult : std::uint8_t { kMoved, kVetoed, kNoDest };
  MoveResult move_block(EvacState& ev, BinHeader* bin, std::uint32_t idx,
                        std::size_t cls_bytes);

  std::size_t pool_bytes_;
  void* pool_;
  std::unique_ptr<vmm::BackingStore> vmm_;  // null = fixed-size pool
  std::uint32_t vmm_chunk_order_ = 0;       // buddy order of one chunk
  std::uint32_t vmm_initial_chunks_ = 0;    // shrink floor
  std::atomic<bool> vmm_on_{false};
  sync::SpinMutex grow_mu_;
  // Lock order: defrag_mu_ before grow_mu_ before park_mu_; never
  // reversed. defrag_mu_ serializes defrag()/defrag_step()/hook
  // registration (steps try-lock so piggyback callers never spin);
  // park_mu_ alone guards the active evacuation's held set against
  // tenant-path parking. Any allocation may take grow_mu_ (TBuddy's
  // grower), so nothing allocates while holding grow_mu_ or park_mu_.
  sync::SpinMutex defrag_mu_;
  sync::SpinMutex park_mu_;
  RelocationHooks hooks_;
  mutable sync::EpochPins pins_;
  std::atomic<bool> pins_on_{false};
  std::atomic<std::uint32_t> evac_chunk_{UINT32_MAX};  // kEvacuating victim
  std::unique_ptr<EvacState> active_;                  // under defrag_mu_
  std::vector<std::unique_ptr<EvacState>> forwarding_;  // FIFO retire queue
  std::uint32_t select_backoff_ = 0;  // steps to skip after a dry census
  std::unique_ptr<TBuddy> buddy_;
  std::unique_ptr<UAlloc> ualloc_;
  std::unique_ptr<FixedLane> lane_;
  std::unique_ptr<san::HeapSan> san_;
  std::atomic<std::size_t> quota_{0};
  std::atomic<std::size_t> in_use_{0};

  // GpuAllocatorStats counts, each bumped once, exported under the
  // registry names below.
  enum Count : std::uint32_t {
    kMallocs, kFailed, kFrees, kReallocs, kReallocsInplace, kQuotaRejects,
    kDefragPasses, kDefragMoves, kDefragSteps, kDefragMovedBytes,
    kDefragForwarded, kDefragPinStalls
  };
  mutable obs::CounterSet counts_{{
      "alloc.malloc", "alloc.failed", "alloc.free", "alloc.realloc",
      "alloc.realloc_inplace", "alloc.quota_reject", "vmm.defrag_passes",
      "vmm.defrag_moves", "vmm.defrag.steps", "vmm.defrag.moved_bytes",
      "vmm.defrag.forwarded", "vmm.defrag.pin_stalls"}};
};

}  // namespace toma::alloc
