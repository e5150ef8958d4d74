// FixedLane: the constant-time parked-block cache in front of every UAlloc
// size class (8 B..1 KiB), after Blelloch & Wei, "Concurrent Fixed-Size
// Allocation and Free in Constant Time" (arXiv:2008.04296). The paper's
// UAlloc has no front-end cache; this is the only one.
//
// Structure (docs/INTERNALS.md §4d):
//
//   * One lane per (SM, size class): a LIFO stack of free blocks linked
//     through their own dead payload, push/pop O(1) under a lane-private
//     spin lock (uncontended in the steady state).
//   * Two stocking policies, split by bin capacity at compile time
//     (fixed_lane_slab_refilled in alloc/config.hpp):
//       - slab-refilled classes (8..64 B) are stocked ahead of demand.
//         A refill fetches fixed_lane_refill(cls) blocks per
//         bulk-semaphore transaction (UAlloc::allocate_batch) — either a
//         batched claim over the listed bins or one freshly grown bin
//         whose first half is the slab — looping until the lane reaches
//         its low-water mark, so a per-thread single malloc costs
//         1/refill-th of a semaphore round trip. A pop that drains the
//         stock below fixed_lane_top_trigger(cls) restocks proactively
//         (top-up); an in-kernel miss coalesces the warp — mates that
//         missed the same empty lane rendezvous, the leader fetches one
//         slab ungated (a stampede of leaders briefly over-stocks and the
//         spill hysteresis reclaims the excess — gating the leader would
//         strand its whole warp, measurably worse), and the members pop
//         the freshly stocked lane after one broadcast. A push that
//         crosses fixed_lane_capacity(cls) drains the lane down to the
//         low-water mark through the paper's free-publication path, so
//         one crossing buys cap/2 further O(1) frees.
//       - free-stocked classes (128 B..1 KiB) are stocked by frees only.
//         A miss falls through to UAlloc (whose warp-coalesced path
//         serves the group), and a push onto a full lane (two bins'
//         worth) publishes that one block through the free path.
//
// Invariant: a lane-resident block is, to the bin machinery, still
// *allocated* — its bitmap bit stays claimed, its bin's free_count
// excludes it, and no semaphore unit exists for it. flush() re-publishes
// every cached block, so trim(), pool-pressure OOM retries, defrag and
// runtime disable all see exact accounting. Blocks leave through
// UAlloc's allocation paths and return through UAlloc::free, so UAlloc's
// allocs - frees counts exactly the blocks outside the bin accounting:
// live or lane-resident.
//
// The lane sits in GpuAllocator's UAlloc route (allocation, free, and
// defrag's destination blocks); UAlloc itself never sees a cached block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/config.hpp"
#include "obs/counter.hpp"
#include "sync/spin_mutex.hpp"

namespace toma::gpu {
class ThreadCtx;
}

namespace toma::alloc {

class UAlloc;
struct BinHeader;

struct FixedLaneStats {
  std::uint64_t hits = 0;           // allocations served by a lane pop
  std::uint64_t misses = 0;         // pops on an empty lane (slab-refilled
                                    // classes refill next)
  std::uint64_t refills = 0;        // slab refill transactions
  std::uint64_t refill_blocks = 0;  // blocks fetched by refills
  std::uint64_t topups = 0;         // proactive low-stock restocks (on hits)
  std::uint64_t spills = 0;         // pushes past a lane's bound
  std::uint64_t spill_blocks = 0;   // blocks those spills published
  std::uint64_t flushes = 0;        // blocks drained by flush()
  std::uint64_t cached = 0;         // blocks lane-resident right now
};

class FixedLane {
 public:
  /// `num_arenas` lanes per class, matching the UAlloc arena (= SM) count.
  /// `refill_depth` overrides the slab-refilled classes' slab size
  /// (fixed_lane_refill(cls)) when nonzero; clamped to kFixedLaneMaxRefill.
  FixedLane(UAlloc& ua, bool enabled, std::uint32_t refill_depth = 0);
  ~FixedLane();

  FixedLane(const FixedLane&) = delete;
  FixedLane& operator=(const FixedLane&) = delete;

  /// Runtime switch (default: the compile-time TOMA_FIXED_LANE). Turning
  /// the lane off flushes every cached block back into the bin
  /// accounting, so the paper-faithful configuration is reachable at any
  /// quiescent point.
  void set_enabled(bool on) {
    on_.store(on, std::memory_order_relaxed);
    if (!on) flush();
  }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  /// Allocate a block of rounded power-of-two `size` (8..1024) from the
  /// calling SM's lane; a slab-refilled class refills a slab from UAlloc
  /// on a miss. nullptr on a free-stocked miss, or when the refill found
  /// no memory anywhere — the caller falls through to the ordinary
  /// allocation path (which can still satisfy a single block where a
  /// slab failed).
  void* allocate(std::size_t size);

  /// Free-side hook, called with `p` already decoded to block `idx` of
  /// `bin`. Caches `p` on the calling SM's lane (cross-SM frees land on
  /// the *freeing* SM — the block carries its identity in the bin
  /// header); a push past the lane's bound publishes through the free
  /// path here. Returns false only when the lane is off; the caller then
  /// frees through UAlloc.
  bool try_free_decoded(void* p, BinHeader* bin, std::uint32_t idx);

  /// Drain every lane: each cached block re-enters the accounting through
  /// the free-publication path. Returns blocks flushed. Safe concurrently
  /// with allocation (new blocks may be cached while we drain; each
  /// *observed* block is flushed exactly once).
  std::size_t flush();

  /// Blocks cached right now across all lanes (quiescent-exact).
  std::size_t cached_count() const;

  /// Blocks cached in one (arena, class) lane (tests, stats).
  std::uint32_t lane_count(std::uint32_t arena, std::uint32_t cls) const;

  FixedLaneStats stats() const;

  /// Test hook: verify every cached block still holds its claimed bitmap
  /// bit, belongs to the class it is filed under, and chain lengths match
  /// the counts. Quiescent-only, like UAlloc::check_consistency.
  bool check_consistency() const;

 private:
  /// One (SM, class) lane. Blocks are linked through their first word
  /// (every UAlloc class is >= 8 B and 8-byte aligned). Cache-line aligned
  /// so neighbouring lanes never false-share.
  struct alignas(64) Lane {
    mutable sync::SpinMutex mu;
    void* head = nullptr;
    std::atomic<std::uint32_t> count{0};
    /// At most ONE thread refills a lane at a time. A fiber that yields
    /// inside the refill's semaphore wait would otherwise let every
    /// warp-mate that missed the same empty lane fetch its own slab —
    /// the lane would balloon far past its capacity bound. Losers fall
    /// through to the ordinary single-block path instead of piling on.
    std::atomic<bool> refilling{false};

    void* pop();
    /// Push one block; returns the count *after* the push (the caller
    /// applies the spill hysteresis).
    std::uint32_t push(void* p);
    /// Push one block unless the lane already holds `cap`; false when
    /// full (the free-stocked bound, checked under the lock).
    bool push_below(void* p, std::uint32_t cap);
    /// Splice a pre-linked chain of n blocks (head first) in O(1);
    /// returns the count after the splice (spill-hysteresis input).
    std::uint32_t push_chain(void* chain_head, void* chain_tail,
                             std::uint32_t n);
    /// Detach the whole chain; count is zeroed. Returns the old head.
    void* pop_all();
  };

  Lane& lane(std::uint32_t arena, std::uint32_t cls) {
    return lanes_[arena * kNumSizeClasses + cls];
  }
  const Lane& lane(std::uint32_t arena, std::uint32_t cls) const {
    return lanes_[arena * kNumSizeClasses + cls];
  }

  /// In-kernel miss path: warp-mates that missed the same empty lane form
  /// one coalesced group, the leader fetches one slab for everyone (plus
  /// the stock-ahead surplus), and the members pop the freshly stocked
  /// lane — one transaction and one warp sync per miss *group*, where the
  /// per-block path below UAlloc would pay a sync per warp forever.
  void* allocate_coalesced_miss(Lane& ln, std::uint32_t home_arena,
                                std::uint32_t cls, gpu::ThreadCtx& ctx);

  /// Solo miss path (host threads, singleton groups): refill under the
  /// lane's single-refiller gate; a caller that finds the gate held falls
  /// through to the ordinary single-block path.
  void* gated_refill(Lane& ln, std::uint32_t home_arena, std::uint32_t cls);

  /// Slab refill on a miss: fetch up to `max_batches` batches from UAlloc
  /// (stopping at the low-water mark), keep one block for the caller,
  /// splice the rest into `ln`. Coalesced-miss leaders pass 1 — a stampede
  /// of concurrent leaders already multiplies the fetch, so each looping
  /// to the target would overshoot the cap and churn the spill path.
  void* refill(Lane& ln, std::uint32_t home_arena, std::uint32_t cls,
               std::uint32_t max_batches = kFixedLaneRefillBatches);

  /// Spill hysteresis: drain `ln` down to the low-water mark through the
  /// free-publication path.
  void spill(Lane& ln, std::uint32_t cls);

  /// Spill statistics: one spill that published `blocks` blocks.
  void count_spill(std::uint64_t blocks);

  /// Refill slab size for `cls`: the configured override, or the
  /// per-class default tied to the bin capacity.
  std::uint32_t refill_want(std::uint32_t cls) const {
    return refill_depth_ != 0 ? refill_depth_ : fixed_lane_refill(cls);
  }

  UAlloc* ua_;
  std::uint32_t num_arenas_;
  std::uint32_t refill_depth_;  // 0 = per-class default
  std::atomic<bool> on_;
  std::vector<Lane> lanes_;  // num_arenas_ * kNumSizeClasses

  // Every lane op bumps one of these, on a line of the calling thread's
  // own, exported under the registry names below.
  enum Count : std::uint32_t {
    kHits, kMisses, kRefills, kRefillBlocks, kTopups, kSpills, kSpillBlocks,
    kFlushes
  };
  obs::CounterSet counts_{{"ualloc.lane.hit", "ualloc.lane.miss",
                           "ualloc.lane.refill", "ualloc.lane.refill_blocks",
                           "ualloc.lane.topup", "ualloc.lane.spill",
                           "ualloc.lane.spill_blocks", "ualloc.lane.flush"}};
};

}  // namespace toma::alloc
