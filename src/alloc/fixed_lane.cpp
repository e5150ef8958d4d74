#include "alloc/fixed_lane.hpp"

#include <cstdio>

#include "alloc/ualloc.hpp"
#include "gpusim/this_thread.hpp"
#include "gpusim/warp.hpp"
#include "sync/spin_mutex.hpp"
#include "util/assert.hpp"

namespace toma::alloc {

// ---------------------------------------------------------------------------
// Lane: the O(1) block stack
// ---------------------------------------------------------------------------

void* FixedLane::Lane::pop() {
  // Single relaxed load so a cold lane costs one cache probe.
  if (count.load(std::memory_order_relaxed) == 0) return nullptr;
  sync::LockGuard<sync::SpinMutex> g(mu);
  void* p = head;
  if (p == nullptr) return nullptr;
  head = *static_cast<void**>(p);
  count.fetch_sub(1, std::memory_order_relaxed);
  return p;
}

std::uint32_t FixedLane::Lane::push(void* p) {
  sync::LockGuard<sync::SpinMutex> g(mu);
  *static_cast<void**>(p) = head;
  head = p;
  return count.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool FixedLane::Lane::push_below(void* p, std::uint32_t cap) {
  sync::LockGuard<sync::SpinMutex> g(mu);
  if (count.load(std::memory_order_relaxed) >= cap) return false;
  *static_cast<void**>(p) = head;
  head = p;
  count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint32_t FixedLane::Lane::push_chain(void* chain_head, void* chain_tail,
                                          std::uint32_t n) {
  sync::LockGuard<sync::SpinMutex> g(mu);
  *static_cast<void**>(chain_tail) = head;
  head = chain_head;
  return count.fetch_add(n, std::memory_order_relaxed) + n;
}

void* FixedLane::Lane::pop_all() {
  sync::LockGuard<sync::SpinMutex> g(mu);
  void* p = head;
  head = nullptr;
  count.store(0, std::memory_order_relaxed);
  return p;
}

// ---------------------------------------------------------------------------
// FixedLane
// ---------------------------------------------------------------------------

FixedLane::FixedLane(UAlloc& ua, bool enabled, std::uint32_t refill_depth)
    : ua_(&ua),
      num_arenas_(ua.num_arenas()),
      refill_depth_(refill_depth < kFixedLaneMaxRefill ? refill_depth
                                                       : kFixedLaneMaxRefill),
      on_(enabled),
      lanes_(static_cast<std::size_t>(num_arenas_) * kNumSizeClasses) {}

FixedLane::~FixedLane() = default;

void* FixedLane::allocate(std::size_t size) {
  TOMA_DASSERT(size >= kMinAlloc && size <= kMaxUAllocSize);
  const std::uint32_t cls = size_class_of(size);
  const bool slab = fixed_lane_slab_refilled(cls);
  const std::uint32_t a = gpu::this_thread::sm_id_or_hash(num_arenas_);
  Lane& ln = lane(a, cls);
  if (void* p = ln.pop()) {
    counts_.inc(kHits);
    // Proactive top-up: if this pop drained the stock below the trigger,
    // restock before the lane runs empty. The popper already holds its
    // block — no caller is stalled on this batch — and a lane that never
    // empties serves every other thread with a sync-free pop instead of
    // a warp rendezvous.
    if (slab &&
        ln.count.load(std::memory_order_relaxed) <
            fixed_lane_top_trigger(cls) &&
        !ln.refilling.exchange(true, std::memory_order_acquire)) {
      counts_.inc(kTopups);
      void* extra = refill(ln, a, cls);
      if (extra != nullptr) ln.push(extra);
      ln.refilling.store(false, std::memory_order_release);
    }
    return p;
  }
  if (!slab) {
    // Free-stocked miss: UAlloc serves it, coalescing the warp's misses
    // into one semaphore transaction itself.
    counts_.inc(kMisses);
    return nullptr;
  }
  // Miss. In-kernel, resolve it warp-cooperatively: the lanes of this
  // warp that missed the same empty lane share one slab transaction and
  // the warp sync they would have paid anyway one layer down.
  if (gpu::ThreadCtx* ctx = gpu::this_thread::current()) {
    return allocate_coalesced_miss(ln, a, cls, *ctx);
  }
  return gated_refill(ln, a, cls);
}

void* FixedLane::allocate_coalesced_miss(Lane& ln, std::uint32_t home_arena,
                                         std::uint32_t cls,
                                         gpu::ThreadCtx& ctx) {
  const gpu::CoalescedGroup g = gpu::coalesce_warp(ctx, &ln);
  if (g.size() == 1) return gated_refill(ln, home_arena, cls);
  constexpr std::uint64_t kFailed = 0, kStocked = 1;
  if (g.is_leader()) {
    // The rendezvous takes scheduling rounds; another warp's leader may
    // have stocked the lane meanwhile. Only fetch a slab if the stock
    // cannot cover this group.
    void* lead = nullptr;
    bool ok = ln.count.load(std::memory_order_relaxed) >= g.size();
    if (!ok) {
      // Fetch without the single-refiller gate: a stampede of leaders
      // briefly over-stocks (the spill hysteresis reclaims the excess),
      // but a gated leader would strand its whole group on the per-warp
      // semaphore path — measurably the worse trade at every size.
      counts_.inc(kMisses);
      lead = refill(ln, home_arena, cls, /*max_batches=*/1);
      ok = lead != nullptr;
    }
    gpu::warp_broadcast(ctx, g, ok ? kStocked : kFailed);
    if (lead != nullptr) return lead;
    if (!ok) return nullptr;
  } else if (gpu::warp_broadcast(ctx, g, kFailed) == kFailed) {
    // The leader's slab found no memory; every member falls through to
    // the single-block path, which can succeed where a slab could not.
    counts_.inc(kMisses);
    return nullptr;
  }
  if (void* p = ln.pop()) {
    counts_.inc(kHits);
    return p;
  }
  // Stock stolen between the broadcast and our pop — rare, harmless.
  counts_.inc(kMisses);
  return nullptr;
}

void* FixedLane::gated_refill(Lane& ln, std::uint32_t home_arena,
                              std::uint32_t cls) {
  counts_.inc(kMisses);
  if (ln.refilling.exchange(true, std::memory_order_acquire)) {
    // Another thread is already fetching this lane's slab. Don't pile on
    // — the caller falls through to the ordinary single-block path, so
    // an empty lane costs at most one slab transaction no matter how
    // many threads miss it together.
    return nullptr;
  }
  void* p = refill(ln, home_arena, cls);
  ln.refilling.store(false, std::memory_order_release);
  return p;
}

void* FixedLane::refill(Lane& ln, std::uint32_t home_arena, std::uint32_t cls,
                        std::uint32_t max_batches) {
  // Each bulk transaction buys a whole slab: the semaphore wait, the RCU
  // traversal (or the fresh bin), and the listing dance are paid once per
  // fixed_lane_refill(cls) allocations instead of once per block. Up to
  // kFixedLaneRefillBatches slabs are fetched per gate hold — waiters
  // drain the lane as batches land, so a deeper refill widens the window
  // one gate negotiation feeds.
  void* blocks[kFixedLaneMaxRefill];
  const std::uint32_t want = refill_want(cls);
  const std::uint32_t target = fixed_lane_low_water(cls);
  void* first = nullptr;
  for (std::uint32_t b = 0; b < max_batches; ++b) {
    // Stock to the low-water mark, not just one slab: consumers drain the
    // lane while the batch claim runs, and a lane that stays stocked
    // serves the next warps with a plain pop — no rendezvous at all.
    if (first != nullptr &&
        ln.count.load(std::memory_order_relaxed) >= target) {
      break;
    }
    const std::uint32_t got =
        ua_->allocate_batch(home_arena, cls, blocks, want);
    if (got == 0) break;
    counts_.inc(kRefills);
    counts_.add(kRefillBlocks, got);
    std::uint32_t keep = 0;
    if (first == nullptr) {
      first = blocks[0];
      keep = 1;
    }
    if (got > keep) {
      // Link the surplus outside the lane lock, splice in O(1).
      for (std::uint32_t i = keep; i + 1 < got; ++i) {
        *static_cast<void**>(blocks[i]) = blocks[i + 1];
      }
      const std::uint32_t cnt =
          ln.push_chain(blocks[keep], blocks[got - 1], got - keep);
      // Frees may have piled onto the lane while the batch claim waited;
      // keep the capacity bound honest (and stop deepening into it).
      if (cnt > fixed_lane_capacity(cls)) {
        spill(ln, cls);
        break;
      }
    }
    // A short batch means the pool is tight; don't pound it for depth.
    if (got < want) break;
  }
  return first;
}

bool FixedLane::try_free_decoded(void* p, BinHeader* bin,
                                 std::uint32_t idx) {
  if (!enabled()) return false;
  const std::uint32_t cls = bin->size_class;
  // Cache on the *freeing* SM's lane (cheapest locality for the next
  // malloc here), whatever arena owns the bin. The bitmap bit stays
  // claimed while cached: to the accounting, the block is still
  // allocated.
  const std::uint32_t a = gpu::this_thread::sm_id_or_hash(num_arenas_);
  Lane& ln = lane(a, cls);
  if (fixed_lane_slab_refilled(cls)) {
    if (ln.push(p) > fixed_lane_capacity(cls)) spill(ln, cls);
    return true;
  }
  // Free-stocked: no hysteresis. A full lane publishes just this block —
  // draining to a low-water mark at these bin sizes retires bins the
  // next frees would have to rebuild.
  if (!ln.push_below(p, fixed_lane_capacity(cls))) {
    ua_->free_decoded(bin, idx);
    count_spill(1);
  }
  return true;
}

void FixedLane::spill(Lane& ln, std::uint32_t cls) {
  const std::uint32_t low = fixed_lane_low_water(cls);
  std::uint64_t n = 0;
  while (ln.count.load(std::memory_order_relaxed) > low) {
    void* p = ln.pop();
    if (p == nullptr) break;
    ua_->free(p);
    ++n;
  }
  count_spill(n);
}

void FixedLane::count_spill(std::uint64_t blocks) {
  counts_.inc(kSpills);
  counts_.add(kSpillBlocks, blocks);
}

std::size_t FixedLane::flush() {
  std::size_t flushed = 0;
  for (Lane& ln : lanes_) {
    void* p = ln.pop_all();
    while (p != nullptr) {
      void* next = *static_cast<void**>(p);
      ua_->free(p);
      p = next;
      ++flushed;
    }
  }
  if (flushed > 0) counts_.add(kFlushes, flushed);
  return flushed;
}

std::size_t FixedLane::cached_count() const {
  std::size_t n = 0;
  for (const Lane& ln : lanes_) {
    n += ln.count.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint32_t FixedLane::lane_count(std::uint32_t arena,
                                    std::uint32_t cls) const {
  return lane(arena, cls).count.load(std::memory_order_relaxed);
}

FixedLaneStats FixedLane::stats() const {
  FixedLaneStats s;
  s.hits = counts_.value(kHits);
  s.misses = counts_.value(kMisses);
  s.refills = counts_.value(kRefills);
  s.refill_blocks = counts_.value(kRefillBlocks);
  s.topups = counts_.value(kTopups);
  s.spills = counts_.value(kSpills);
  s.spill_blocks = counts_.value(kSpillBlocks);
  s.flushes = counts_.value(kFlushes);
  s.cached = cached_count();
  return s;
}

bool FixedLane::check_consistency() const {
  bool ok = true;
  for (std::uint32_t a = 0; a < num_arenas_; ++a) {
    for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
      const Lane& ln = lane(a, c);
      sync::LockGuard<sync::SpinMutex> g(ln.mu);
      std::uint32_t walked = 0;
      for (void* p = ln.head; p != nullptr; p = *static_cast<void**>(p)) {
        ++walked;
        std::uint32_t idx;
        BinHeader* bin = ua_->decode_block(p, &idx);
        if (bin->size_class != c) {
          std::fprintf(stderr,
                       "FixedLane: lane %u/%u caches block of class %u\n", a,
                       c, bin->size_class);
          ok = false;
        }
        if (!bin->bitmap().test(idx)) {
          std::fprintf(stderr,
                       "FixedLane: cached block %p lost its claimed bit\n",
                       p);
          ok = false;
        }
      }
      const std::uint32_t cnt = ln.count.load(std::memory_order_relaxed);
      if (walked != cnt || cnt > fixed_lane_capacity(c)) {
        std::fprintf(stderr,
                     "FixedLane: lane %u/%u chain %u vs count %u (cap %u)\n",
                     a, c, walked, cnt, fixed_lane_capacity(c));
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace toma::alloc
