// Allocator geometry (paper §4).
//
// All constants follow the paper:
//   page      4 KB   — TBuddy order-0 block; also the UAlloc bin size
//   chunk   256 KB   — UAlloc arena granule, carved out of TBuddy
//   bin       4 KB   — fixed-size-class block container, 128 B header
//   tail     128 B   — per-bin spill space living in bins 0/1 of the chunk
//   min allocation 8 B, UAlloc classes 8..1024 B (2 KB rounds to 4 KB:
//   a bin cannot hold two 2 KB blocks — the paper's degenerate case)
//
// NOTE on the chunk size: the paper says chunks are 512 KB, but its own
// layout — a single one-word bitmap "to track the state of the 64 bins in
// the chunk", two header bins, and 62 tails of 128 B (= exactly the
// payload of those two bins) — pins the chunk at 64 x 4 KB = 256 KB.
// 512 KB / 4 KB would be 128 bins and would need 126 tails and a two-word
// bitmap. We implement the precisely-specified 64-bin structure and treat
// the stated 512 KB as the paper's internal inconsistency (see DESIGN.md).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bitops.hpp"

namespace toma::alloc {

inline constexpr std::size_t kPageSize = 4096;
inline constexpr std::size_t kChunkSize = 256 * 1024;
inline constexpr std::size_t kBinSize = kPageSize;
inline constexpr std::size_t kBinHeaderSize = 128;
inline constexpr std::size_t kTailSize = 128;
inline constexpr std::size_t kMinAlloc = 8;
inline constexpr std::size_t kMaxUAllocSize = 1024;

inline constexpr std::uint32_t kBinsPerChunk =
    static_cast<std::uint32_t>(kChunkSize / kBinSize);          // 64
inline constexpr std::uint32_t kHeaderBins = 2;                 // bins 0 and 1
inline constexpr std::uint32_t kDataBins = kBinsPerChunk - kHeaderBins;  // 62
inline constexpr std::size_t kBinDataSize = kBinSize - kBinHeaderSize;  // 3968
/// Logical bin payload once its tail is appended (sizes <= 128 B only).
inline constexpr std::size_t kBinLogicalSize = kBinDataSize + kTailSize;  // 4096

/// Number of UAlloc size classes: 8, 16, 32, 64, 128, 256, 512, 1024.
inline constexpr std::uint32_t kNumSizeClasses = 8;

/// Size class index for a (power-of-two) size in [8, 1024].
constexpr std::uint32_t size_class_of(std::size_t pow2_size) {
  return util::log2_floor(pow2_size) - util::log2_floor(kMinAlloc);
}

/// Block size of a size class.
constexpr std::size_t size_of_class(std::uint32_t cls) {
  return kMinAlloc << cls;
}

/// Blocks a bin of class `cls` can hold. Classes whose block fits in a
/// tail slot (<= 128 B) use the full logical 4 KB; larger classes only the
/// 3968 B physical payload. (1 KB -> 3 blocks; the paper's moderate-failure
/// sizes. 2 KB would be 1 block, which is why it rounds to 4 KB instead.)
/// Block sizes are powers of two, so the division is a shift: the fixed
/// lane evaluates this per push and pop, where a runtime 64-bit division
/// would cost tens of cycles.
constexpr std::uint32_t bin_capacity(std::uint32_t cls) {
  const std::uint32_t shift = util::log2_floor(kMinAlloc) + cls;
  return static_cast<std::uint32_t>(
      (size_of_class(cls) <= kTailSize ? kBinLogicalSize : kBinDataSize) >>
      shift);
}

/// TBuddy order for an allocation of `bytes` (bytes > kMaxUAllocSize*2
/// rounds up to pages). Order 0 is one page.
constexpr std::uint32_t order_for_bytes(std::size_t bytes) {
  const std::size_t pages =
      (bytes + kPageSize - 1) / kPageSize;
  return util::log2_ceil(pages);
}

/// TBuddy order of one UAlloc chunk (256 KB / 4 KB = 64 pages = order 6).
inline constexpr std::uint32_t kChunkOrder = 6;

// --- fixed-size lane: the parked-block cache (not in the paper; §4d) -------
//
// A per-(SM, size-class) constant-time LIFO of blocks in front of the
// bulk-semaphore/RCU bin machinery, for every UAlloc class (8 B..1 KiB),
// after Blelloch & Wei, "Concurrent Fixed-Size Allocation and Free in
// Constant Time" (arXiv:2008.04296). A lane-resident block keeps its
// bitmap bit claimed and owns no semaphore unit — the same
// claimed-while-cached invariant the quicklists and the HeapSan
// quarantine rely on — so the lane commutes with every accounting
// invariant below it.
//
// One structure, two stocking policies, split by bin capacity:
//   * slab-refilled classes (bins of >= 64 blocks: 8..64 B) are stocked
//     ahead of demand — a miss fetches whole slabs in one bulk-semaphore
//     transaction, low stock tops up, in-kernel misses coalesce per
//     warp, and a push past the capacity spills to the low-water mark;
//   * free-stocked classes (128 B..1 KiB) are stocked by frees only,
//     capped at two bins' worth; a push onto a full lane frees that one
//     block through the paper's free path.
// A 1 KiB bin holds 3 blocks, too few to feed a 32-thread miss group
// from one slab, and spilling to a low-water mark at those sizes
// retires and rebuilds bins (docs/INTERNALS.md §4d has the numbers).

/// Compile-time default for the fixed lane (CMake option TOMA_FIXED_LANE,
/// default ON). GpuAllocator::set_fixed_lane() toggles at runtime; this
/// macro only selects the starting state, so a lane-OFF build still
/// compiles (and tests) the machinery. OFF is the paper's exact front
/// end: no cache in front of the bins for any class.
#ifndef TOMA_FIXED_LANE
#define TOMA_FIXED_LANE 1
#endif

/// The policy split: a class whose bin holds at least this many blocks
/// is slab-refilled; smaller bins are free-stocked.
inline constexpr std::uint32_t kFixedLaneSlabMinBlocks = 64;

/// Is class `cls` slab-refilled (true) or free-stocked (false)?
constexpr bool fixed_lane_slab_refilled(std::uint32_t cls) {
  return bin_capacity(cls) >= kFixedLaneSlabMinBlocks;
}

/// Largest slab-refilled block size. The stream shortcut
/// (GpuAllocator::lane_routable, Pool::malloc_async's reuse skip) is
/// keyed on the slab-refilled classes only.
inline constexpr std::size_t kFixedLaneSlabMaxSize = 64;

/// Largest refill slab: bound on blocks fetched per bulk-semaphore
/// transaction, sizing the stack-local transfer array in the refill path
/// (256 pointers = 2 KB, safe on 32 KB fiber stacks).
inline constexpr std::uint32_t kFixedLaneMaxRefill = 256;

/// Refill slab size: blocks fetched from UAlloc in ONE bulk-semaphore
/// transaction. A whole bin where the transfer array allows it — the
/// batch then claims a freshly grown bin outright instead of leaving it
/// half-listed.
constexpr std::uint32_t fixed_lane_refill(std::uint32_t cls) {
  return bin_capacity(cls) < kFixedLaneMaxRefill ? bin_capacity(cls)
                                                 : kFixedLaneMaxRefill;
}

/// Bulk transactions per refill: each batch reuses the same stack-local
/// array (the slab is spliced into the lane between batches), and the
/// loop stops early once the lane reaches its low-water stock, so this
/// is a ceiling, not a quota.
inline constexpr std::uint32_t kFixedLaneRefillBatches = 4;

/// Cached-block bound of one (SM, class) lane: two bins' worth. A
/// slab-refilled lane never holds less than 256 blocks — the larger of
/// those classes have small bins (64 x 64 B), and a lane that can buffer
/// only a couple of warps' worth of stock drains to empty between
/// refills; the stock-ahead that makes pops sync-free needs headroom in
/// blocks, not bins. 256 blocks of 64 B is 16 KB per (SM, class).
constexpr std::uint32_t fixed_lane_capacity(std::uint32_t cls) {
  const std::uint32_t two_bins = 2 * bin_capacity(cls);
  if (!fixed_lane_slab_refilled(cls)) return two_bins;
  return two_bins < 256 ? 256 : two_bins;
}

/// Hysteresis (slab-refilled classes): a push that crosses the capacity
/// spills the lane down to the low-water mark through the real free
/// path, so one crossing buys cap/2 further O(1) frees before the next
/// spill. The low-water mark is also the refill target: a refill stocks
/// to here, no further.
constexpr std::uint32_t fixed_lane_low_water(std::uint32_t cls) {
  return fixed_lane_capacity(cls) / 2;
}

/// Proactive top-up trigger (slab-refilled classes): a *successful* pop
/// that leaves the stock below this mark refills the lane in the
/// background of its own hit — the popper already holds its block, so
/// the batch transaction adds latency to one hit in ~low_water rather
/// than a rendezvous for a whole stalled warp. This is what keeps the
/// lane from oscillating between full and empty under allocation-only
/// bursts.
constexpr std::uint32_t fixed_lane_top_trigger(std::uint32_t cls) {
  return fixed_lane_capacity(cls) / 4;
}

static_assert(fixed_lane_slab_refilled(size_class_of(kFixedLaneSlabMaxSize)) &&
                  !fixed_lane_slab_refilled(
                      size_class_of(kFixedLaneSlabMaxSize) + 1),
              "kFixedLaneSlabMaxSize is the largest slab-refilled class");

// --- TBuddy quicklist front-end (not in the paper; docs/INTERNALS.md §4c) --
//
// Each TBuddy order keeps a bounded Treiber stack of recently freed blocks
// whose tree nodes stay *Busy* and whose semaphore units stay consumed, so
// the invariant "semaphore value == Available blocks in the tree" never
// sees cached blocks at all. Free pushes instead of cascading merges
// (deferred coalescing); allocate pops before touching the semaphore or
// the tree. Merges run only when the per-order high-water mark is hit or
// when trim()/pool pressure demands the memory back.

/// Compile-time default for the TBuddy quicklist (CMake option
/// TOMA_TBUDDY_QUICKLIST, default ON). TBuddy::set_quicklist() toggles at
/// runtime; this macro only selects the starting state, so a
/// quicklist-OFF build still compiles (and tests) the machinery.
#ifndef TOMA_TBUDDY_QUICKLIST
#define TOMA_TBUDDY_QUICKLIST 1
#endif

/// Compile-time default for the optimistic single-CAS descent claim
/// (CMake option TOMA_TBUDDY_CAS_CLAIM, default ON).
/// TBuddy::set_cas_claim() toggles at runtime.
#ifndef TOMA_TBUDDY_CAS_CLAIM
#define TOMA_TBUDDY_CAS_CLAIM 1
#endif

/// High-water mark (cached-block cap) of one per-order quicklist. A flat
/// cap would let large orders strand megabytes, so the cap also shrinks
/// with the share of the pool one order can hold: at most half the blocks
/// that exist at that order. The root order caps at 0 — caching the whole
/// pool would pin every byte while reporting nothing allocatable.
inline constexpr std::uint32_t kQuicklistHighWater = 32;

constexpr std::uint32_t quicklist_capacity(std::uint32_t order,
                                           std::uint32_t max_order) {
  const std::uint32_t blocks_at_order = 1u << (max_order - order);
  const std::uint32_t half = blocks_at_order / 2;
  return half < kQuicklistHighWater ? half : kQuicklistHighWater;
}

/// Hysteresis: a spill (push on a full quicklist) flushes the list down to
/// the low-water mark through the real free path, so one crossing of the
/// high-water mark buys cap/2 further O(1) frees before the next flush.
constexpr std::uint32_t quicklist_low_water(std::uint32_t cap) {
  return cap / 2;
}

// --- stream-ordered front-end (not in the paper; docs/INTERNALS.md §6) -----
//
// Per-(pool, stream) deferred free lists in front of the whole allocator:
// free_async parks the block on its stream (bitmap bit / tree node / quota
// charge stay claimed — the fixed lane's invariant trick one layer up), and
// the batch drains through the normal free path at the stream's next sync
// point. malloc_async may reuse a same-stream pending block directly:
// stream order guarantees the old use finished before the new one starts,
// the same observation cudaMallocAsync's memory pools exploit.

/// Compile-time default for the stream-ordered async front-end (CMake
/// option TOMA_STREAM_ASYNC, default ON). Pool::set_async() toggles at
/// runtime; this macro only selects the starting state, so an async-OFF
/// build still compiles (and tests) the machinery — free_async then
/// degenerates to an immediate synchronous free.
#ifndef TOMA_STREAM_ASYNC
#define TOMA_STREAM_ASYNC 1
#endif

/// Deferred frees one (pool, stream) slot may hold before free_async
/// drains it inline — bounds how much memory pending batches can strand
/// on a stream that never synchronizes.
inline constexpr std::uint32_t kStreamPendingCap = 4096;

// --- elastic virtual backing store (not in the paper; docs/INTERNALS.md §8) -
//
// The pool's address range is reserved up front (PROT_NONE) but physical
// chunks are mapped on demand — the host-side analogue of the CUDA VMM
// API (cuMemAddressReserve/cuMemMap). TBuddy starts with an *empty* tree;
// each mapped backing chunk is injected as a free block, so an unmapped
// region is simply absent from the accounting (Busy, recordless, no
// semaphore unit) and can never be handed out or merged into.

/// Compile-time default for the elastic backing store (CMake option
/// TOMA_VMM, default ON). HeapConfig{.vmm = ...} selects per pool;
/// GpuAllocator::set_vmm() gates grow/shrink/defrag at runtime. An OFF
/// build reverts to the fixed-size eagerly-committed pool.
#ifndef TOMA_VMM
#define TOMA_VMM 1
#endif

/// Default backing-chunk granule as a divisor of the pool size: pool/64
/// tracks the pool's scale (64 MiB pool -> 1 MiB chunks), clamped to
/// [kVmmMinChunkBytes, kVmmMaxDefaultChunkBytes]. A backing chunk must be
/// a power-of-two multiple of the UAlloc chunk (256 KB) so whole UAlloc
/// chunks — and every smaller buddy block, by alignment — never straddle
/// an unmapped boundary.
inline constexpr std::size_t kVmmChunkDivisor = 64;
inline constexpr std::size_t kVmmMinChunkBytes = kChunkSize;       // 256 KB
inline constexpr std::size_t kVmmMaxDefaultChunkBytes = 4u << 20;  // 4 MB

/// Resolve the backing-chunk size for a pool (0 = auto).
constexpr std::size_t vmm_chunk_bytes_for(std::size_t pool_bytes,
                                          std::size_t requested) {
  if (requested != 0) return requested;
  std::size_t c = pool_bytes / kVmmChunkDivisor;
  if (c < kVmmMinChunkBytes) c = kVmmMinChunkBytes;
  if (c > kVmmMaxDefaultChunkBytes) c = kVmmMaxDefaultChunkBytes;
  if (c > pool_bytes) c = pool_bytes;
  return c;
}

/// Defragmentation victim threshold: a backing chunk is evacuation-worthy
/// when its live bytes fill strictly less than this fraction of the chunk
/// (numerator/denominator to stay constexpr-friendly). Fuller chunks are
/// keepers — they serve as compaction destinations.
inline constexpr std::uint32_t kVmmDefragOccupancyNum = 1;
inline constexpr std::uint32_t kVmmDefragOccupancyDen = 2;

/// Incremental defrag: bytes one defrag_step(0) evacuates by default.
/// Sized so a step stays well under a scheduler quantum — the point of
/// incremental compaction is that no single step is a stop-the-world
/// pause.
inline constexpr std::size_t kVmmDefragStepBytes = 64u << 10;  // 64 KB

/// Piggyback cadence for Pool's kIncremental driver: one defrag_step per
/// this many malloc_async/free_async operations (power of two — the
/// counter is masked, not divided).
inline constexpr std::uint32_t kVmmDefragOpInterval = 64;

/// Steps a failed victim selection (nothing sparse enough, or not enough
/// slack) suppresses the census walk for.
inline constexpr std::uint32_t kVmmDefragSelectBackoff = 16;

/// Zero-progress sweeps tolerated before an evacuation is pushed into
/// the forwarding pipeline anyway (retirement's extraction then fails on
/// the stragglers and hands the chunk back).
inline constexpr std::uint32_t kVmmDefragStallLimit = 64;

/// Quiesced-but-failed whole-chunk extraction attempts before a
/// forwarding chunk is abandoned back to kLive.
inline constexpr std::uint32_t kVmmDefragExtractRetries = 8;

// --- HeapSan sanitizer layer (not in the paper; docs/INTERNALS.md §5) ------
//
// Redzones + poison + quarantine + shadow table under GpuAllocator. Freed
// blocks sit in a bounded quarantine whose bitmap bits / tree nodes /
// semaphore units stay consumed — the same "cached blocks are still
// allocated to the accounting" trick the fixed lane and quicklists use.

/// Compile-time default for the HeapSan layer (CMake option TOMA_HEAPSAN,
/// default OFF). GpuAllocator::set_heapsan() toggles at runtime; this
/// macro only selects the starting state, so every build compiles (and
/// tests) the machinery.
#ifndef TOMA_HEAPSAN
#define TOMA_HEAPSAN 0
#endif

static_assert(kChunkSize / kPageSize == (1u << kChunkOrder));
static_assert(kBinsPerChunk == 64, "one 64-bit word tracks the chunk bins");
static_assert(kDataBins == 62, "two header bins leave 62 data bins");
static_assert(kDataBins * kTailSize == kHeaderBins * kBinDataSize,
              "tails exactly fill the header bins' payload");
static_assert(size_of_class(kNumSizeClasses - 1) == kMaxUAllocSize);
static_assert(bin_capacity(0) == 512, "8 B bins track 512 blocks");
static_assert(bin_capacity(kNumSizeClasses - 1) == 3, "1 KB bins hold 3");

}  // namespace toma::alloc
