// UAlloc: the fine-grained UnAligned Allocator (paper §4.2).
//
// Memory layout (all constants in alloc/config.hpp):
//
//   arena  — one per SM; holds per-size-class bin free-lists and the
//            chunk list. A thread allocates from the arena of the SM it
//            runs on (hashed OS-thread id outside a kernel).
//   chunk  — 512 KB from TBuddy, 512 KB aligned, split into 64 bins.
//            Bin 0 starts with the 128 B chunk header; the remaining
//            3,968 B of bins 0 and 1 are 62 tail slots of 128 B, one per
//            data bin (bins 2..63).
//   bin    — 4 KB, 4 KB aligned. 128 B header (512-bit occupancy bitmap +
//            metadata), 3,968 B payload. For size classes <= 128 B the
//            bin's tail is logically appended, making the payload a full
//            4 KB — no space is lost to the header.
//
// Because every bin's first 128 B are metadata, no UAlloc block is ever
// 4 KB aligned; TBuddy blocks always are. free() routes on that bit.
//
// Concurrency design (the part the paper's §3/§4 techniques exist for):
//
//   * Per (arena, class) accounting: a bulk semaphore counts claimable
//     blocks across the class's listed bins (batch = bin capacity).
//     wait() == kAcquired guarantees a claimable block exists; the thread
//     traverses the bin list under RCU and claims bitmap bits lock-free.
//     wait() == kMustGrow makes the thread construct a *new bin*.
//   * Bin lists are RCU doubly-linked lists: exhausted bins are unlinked
//     by writers and become reusable only after a grace period — the
//     deferred step travels through the *conditional* RCU barrier, i.e.
//     it is delegated to an already-waiting thread whenever possible.
//   * Bin slots inside chunks use the same two-stage scheme (a per-arena
//     bulk semaphore over chunk bitmaps, batch = 62); growing allocates a
//     fresh chunk from TBuddy under the chunk list's *collective mutex*,
//     so warp-mates needing chunks enter the critical section together.
//   * Freed blocks are published with a parked-unit protocol: the freeing
//     thread clears the bitmap bit, parks one unit on the bin, and the
//     first actor that observes the bin in a stable list state (LISTED or
//     UNLISTED->relist) converts parked units into semaphore signals.
//     This keeps the invariant "semaphore value == claimable blocks in
//     listed bins" across unlink/relist races with a tiny per-bin
//     cold-path lock instead of a global one.
//   * Fully-free bins retire their slot back to the chunk; fully-free
//     chunks retire back to TBuddy — both opportunistically, gated by
//     try_wait so accounting never goes negative (no false starvation,
//     no phantom units).
//
// UAlloc itself caches nothing: the constant-time parked-block cache in
// front of it (not in the paper) is the FixedLane, owned by GpuAllocator
// (alloc/fixed_lane.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/config.hpp"
#include "alloc/tbuddy.hpp"
#include "gpusim/warp.hpp"
#include "obs/counter.hpp"
#include "sync/bulk_semaphore.hpp"
#include "sync/collective_mutex.hpp"
#include "sync/rcu.hpp"
#include "sync/rcu_list.hpp"
#include "sync/spin_mutex.hpp"
#include "util/atomic_bitmap.hpp"
#include "util/intrusive_list.hpp"

namespace toma::alloc {

struct ChunkHeader;
class UAlloc;

/// Listing state of a bin relative to its size-class free-list.
enum class BinState : std::uint32_t {
  kUnlisted = 0,   // not in the list; relinkable
  kListed = 1,     // reachable by readers
  kDraining = 2,   // unlinked (exhausted), grace period pending
  kRelisting = 3,  // being re-inserted
  kRetiring = 4,   // unlinked (fully free), slot being returned
};

/// 128-byte header at the start of every bin, placement-initialized in
/// pool memory.
struct BinHeader {
  std::uint64_t bitmap_words[8];  // 1 = block in use
  sync::RcuListNode list_node;    // size-class free-list linkage
  sync::RcuCallback rcu_cb;       // deferred unlink completion / retire
  ChunkHeader* chunk;             // owning chunk (for arena backpointer)
  std::atomic<std::uint32_t> free_count;  // claimable (signaled) blocks
  std::atomic<std::uint32_t> parked;      // freed blocks not yet signaled
  std::atomic<BinState> state;
  sync::SpinMutex cold_lock;      // serializes list-state transitions
  bool retire_even_if_last;       // trim() override of retire hysteresis
  std::uint8_t size_class;
  std::uint8_t bin_index;         // within chunk, 2..63
  std::uint16_t capacity;

  util::AtomicBitmapRef bitmap() {
    return util::AtomicBitmapRef(bitmap_words, capacity);
  }
};
static_assert(sizeof(BinHeader) <= kBinHeaderSize,
              "bin header must fit in 128 bytes");

/// 128-byte header at the start of every chunk (bin 0, offset 0).
struct ChunkHeader {
  std::uint64_t bin_bitmap_word;  // 1 = bin slot in use; bits 0,1 pre-set
  /// 1 = bin header fully initialized. A slot is CLAIMED (bit set in
  /// bin_bitmap_word, under the chunk mutex) before create_bin writes
  /// the header fields outside that lock; the bit here is set with
  /// release order only after those writes, and cleared before the slot
  /// is released. snapshot_bins_in() — the one header reader that walks
  /// the bitmap rather than the RCU list — reads claimed & published, so
  /// it never observes a header mid-initialization.
  std::uint64_t bin_published_word;
  util::ListNode chunk_node;      // arena chunk list linkage
  class Arena* arena;             // owning arena
  std::uint32_t magic;

  util::AtomicBitmapRef bin_bitmap() {
    return util::AtomicBitmapRef(&bin_bitmap_word, kBinsPerChunk);
  }
  static constexpr std::uint32_t kMagic = 0x75616c6cu;  // "uall"
};
static_assert(sizeof(ChunkHeader) <= kBinHeaderSize,
              "chunk header must fit in 128 bytes");

/// Per-(arena, size class) structures.
struct SizeClassState {
  explicit SizeClassState(sync::SrcuDomain& dom) : bins(dom) {}
  sync::BulkSemaphore blocks;  // claimable blocks across listed bins
  sync::RcuList bins;          // bins with (potentially) claimable blocks
  std::atomic<std::uint32_t> listed{0};  // bins currently in the list
};

/// One arena; the paper assigns one per SM.
class Arena {
 public:
  Arena(UAlloc& parent, std::uint32_t index);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* allocate(std::uint32_t cls);

  /// Claim up to `want` blocks of `cls` in ONE bulk-semaphore
  /// transaction (the FixedLane slab refill). Returns the number of
  /// blocks written to `out` — `min(want, capacity)` on success, 0 when
  /// this arena is out of memory. Either a batched claim over the listed
  /// bins or one freshly grown bin whose first `want` slots become the
  /// slab.
  std::uint32_t allocate_batch(std::uint32_t cls, void** out,
                               std::uint32_t want);

  UAlloc& parent() { return *parent_; }
  std::uint32_t index() const { return index_; }
  sync::SrcuDomain& rcu() { return rcu_; }

 private:
  friend class UAlloc;

  /// Single-thread allocation path (also the fallback).
  void* allocate_individual(std::uint32_t cls);

  /// Warp-coalesced path (paper §2.2: requests of warp-mates invoking the
  /// allocator concurrently are transparently coalesced): the group's
  /// leader performs ONE semaphore wait for the whole group, and on the
  /// grow path ONE new bin serves every member. Only used in-kernel for
  /// classes whose bins hold at least a warp's worth of blocks.
  void* allocate_coalesced(std::uint32_t cls, gpu::ThreadCtx& ctx);

  /// Claim one block from a listed bin of class `cls` (caller holds a
  /// semaphore unit, so a block is guaranteed to exist eventually).
  void* claim_block(std::uint32_t cls);

  /// Claim `n` blocks from listed bins of `cls` (caller holds `n`
  /// semaphore units). Writes block addresses to `out`; like claim_block
  /// this only returns once all n are claimed (the units guarantee
  /// eventual success).
  void claim_blocks(std::uint32_t cls, std::uint32_t n, void** out);

  /// Build a new bin for `cls` (grow path); returns the first block or
  /// nullptr on pool exhaustion. On success the bin is listed and the
  /// class semaphore is signaled with capacity-1 units.
  void* grow_bin(std::uint32_t cls);

  /// Shared machinery of the grow paths: carve a bin slot, initialise the
  /// header with blocks [0, pre_claimed) already taken, list the bin and
  /// publish capacity - pre_claimed claimable units. nullptr on OOM (the
  /// caller owns the semaphore failure signal).
  BinHeader* create_bin(std::uint32_t cls, std::uint32_t pre_claimed);

  /// Claim a bin slot in some chunk of this arena, growing a chunk from
  /// TBuddy if needed. Returns the bin base address or nullptr (OOM).
  void* claim_bin_slot();

  UAlloc* parent_;
  std::uint32_t index_;
  sync::SrcuDomain rcu_;
  std::vector<std::unique_ptr<SizeClassState>> classes_;
  sync::BulkSemaphore bin_slots_;         // free bin slots in chunk list
  util::IntrusiveList<ChunkHeader, &ChunkHeader::chunk_node> chunks_;
  sync::CollectiveMutex chunk_mu_;        // guards chunks_ (collectively)
  sync::SpinMutex list_splice_mu_;        // intra-group splice serialization
};

/// Aggregate UAlloc statistics.
struct UAllocStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bins_created = 0;
  std::uint64_t bins_retired = 0;
  std::uint64_t chunks_created = 0;
  std::uint64_t chunks_retired = 0;
  std::uint64_t bin_unlinks = 0;
  std::uint64_t bin_relists = 0;
  std::uint64_t list_retries = 0;
  std::uint64_t arena_fallbacks = 0;   // allocations served by a non-home
                                       // arena after the home arena OOM'd
};

class UAlloc {
 public:
  /// `num_arenas` is normally the simulated device's SM count.
  /// `use_tails` disables the tail-append optimisation when false (the
  /// A3 ablation: bins of classes <= 128 B then waste their header's
  /// worth of payload, exactly the internal fragmentation §4.2 avoids).
  UAlloc(TBuddy& buddy, std::uint32_t num_arenas, bool use_tails = true);
  ~UAlloc();

  UAlloc(const UAlloc&) = delete;
  UAlloc& operator=(const UAlloc&) = delete;

  /// Allocate a block of power-of-two `size` in [8, 1024] from the
  /// calling thread's arena, falling back to the other arenas when the
  /// home arena is out of chunks. nullptr on pool exhaustion.
  void* allocate(std::size_t size);

  /// allocate() with an explicit home arena instead of the calling
  /// thread's SM — the same fallback sweep, made deterministic for tests
  /// (and usable by hosts that route by something other than SM id).
  void* allocate_from(std::uint32_t home_arena, std::size_t size);

  /// Free a block previously returned by allocate (any thread).
  void free(void* p);

  /// Claim up to `want` blocks of class `cls` in one bulk transaction,
  /// preferring `home_arena` and sweeping the other arenas on OOM (the
  /// same fallback discipline as allocate_from). Returns the number of
  /// blocks written to `out`, 0 when every arena is exhausted. All blocks
  /// of one call come from one arena.
  std::uint32_t allocate_batch(std::uint32_t home_arena, std::uint32_t cls,
                               void** out, std::uint32_t want);

  /// Reverse-map `p` to its owning bin and block index (the free()
  /// decode, exposed so GpuAllocator can decode once and route between
  /// the fixed lane and free_decoded).
  BinHeader* decode_block(void* p, std::uint32_t* block_idx) const {
    return decode(p, block_idx);
  }

  /// The tail of free(): the block already decoded to (bin, idx). Also
  /// defrag's free: a migrating bin must drain toward empty, so its
  /// blocks bypass the lane and publish here directly.
  void free_decoded(BinHeader* bin, std::uint32_t idx) {
    counts_.inc(kFrees);
    free_slow(bin, idx);
  }

  /// Byte size of the block containing `p` (its size class).
  std::size_t usable_size(void* p) const;

  std::uint32_t num_arenas() const {
    return static_cast<std::uint32_t>(arenas_.size());
  }

  /// Blocks per bin for a class under the current tail configuration.
  std::uint32_t class_capacity(std::uint32_t cls) const {
    if (use_tails_) return bin_capacity(cls);
    return static_cast<std::uint32_t>(kBinDataSize / size_of_class(cls));
  }

  /// Ablation knob: disable the warp-coalesced allocation path.
  void set_coalescing(bool on) { coalesce_ = on; }

  TBuddy& buddy() { return *buddy_; }
  Arena& arena(std::uint32_t i) { return *arenas_[i]; }

  UAllocStats stats() const;

  /// Scavenge fully-free bins and empty chunks back to TBuddy (the
  /// malloc_trim analogue). Bin/chunk retirement on the free path is
  /// opportunistic — it backs off rather than stall concurrent claimants —
  /// so after heavy churn some empty bins/chunks stay cached; trim()
  /// retires everything that is retirable right now. Safe to call
  /// concurrently with allocation (it simply retires less). Returns the
  /// number of chunks returned to TBuddy.
  std::size_t trim();

  /// Test hook: verify bitmap/free-count/semaphore agreement on a
  /// quiescent allocator. Returns true when consistent.
  bool check_consistency() const;

  // --- defragmentation support (quiescent-point only; INTERNALS.md §8) -----

  /// One carved-out data bin with its live-block census at snapshot time.
  /// Geometry (capacity, size_class) is captured under the census lock so
  /// consumers need not re-read the header after the snapshot returns.
  struct BinOccupancy {
    BinHeader* bin;
    std::uint32_t live;        // bitmap population (claimed blocks)
    std::uint32_t capacity;    // class capacity of the bin
    std::uint32_t size_class;  // bin's size class at snapshot time
  };

  /// Walk every chunk of every arena and census the carved data bins.
  /// Meaningful only while the allocator is quiescent (the defrag
  /// contract); counts include lane-cached blocks, which is why defrag
  /// flushes the caches first.
  std::vector<BinOccupancy> snapshot_bins();

  /// Range-restricted census: only bins whose chunk base lies in
  /// [lo, hi). The incremental compactor's per-sweep walk — one victim
  /// chunk, not the whole heap. Unlike snapshot_bins() this tolerates
  /// concurrent traffic: the counts are a racy hint and every consumer
  /// re-validates per block (bitmap test + relocation-prepare veto).
  std::vector<BinOccupancy> snapshot_bins_in(const void* lo, const void* hi);

  /// Address of block `idx` within `bin` (defrag's migration source walk;
  /// the tail-aware private geometry, exposed read-only).
  void* block_address(BinHeader* bin, std::uint32_t idx) const {
    return block_addr(bin, idx);
  }

  /// Pin bin headers in [lo, hi) for the incremental compactor: while
  /// the range is set, try_retire_bin refuses bins inside it, so no slot
  /// there can be released, re-claimed, and re-initialized under the
  /// sweep's feet. The sweep reads those headers lock-free; this is what
  /// makes that sound (blocks still allocate from and free into the
  /// range — only bin retirement is held off). Clear with (nullptr,
  /// nullptr) once the chunk leaves kEvacuating; retirement of the
  /// emptied bins then proceeds normally.
  void set_evac_range(const void* lo, const void* hi) {
    evac_lo_.store(reinterpret_cast<std::uintptr_t>(lo),
                   std::memory_order_relaxed);
    evac_hi_.store(reinterpret_cast<std::uintptr_t>(hi),
                   std::memory_order_release);
  }

 private:
  friend class Arena;

  // --- bin lifecycle (cold paths) -----------------------------------------
  /// The paper's free path: clear the bitmap bit of block `idx` and
  /// publish the freed block.
  void free_slow(BinHeader* bin, std::uint32_t idx);
  /// Publish one freed block of `bin` (bit already cleared): park a unit
  /// and drain.
  void publish_free_block(BinHeader* bin);
  /// Convert parked units into semaphore signals / relists as the bin's
  /// state allows. Safe to call from any thread at any time.
  void drain_parked(BinHeader* bin);
  /// Called by the claimer that took a bin's last claimable block.
  void maybe_unlink_exhausted(BinHeader* bin);
  /// Attempt to retire a fully-free bin. Called inside drain_parked with
  /// the cold lock held and `unsignaled` parked units just folded into
  /// free_count; on success the cold lock has been released and the
  /// unsignaled units consumed.
  bool try_retire_bin(BinHeader* bin, std::uint32_t unsignaled);
  /// RCU grace-period completions.
  static void drain_grace_cb(sync::RcuCallback* cb);
  static void retire_grace_cb(sync::RcuCallback* cb);
  void finish_drain(BinHeader* bin);
  void finish_retire(BinHeader* bin);
  /// Release a bin slot back to its chunk; retires the chunk when empty.
  void release_bin_slot(BinHeader* bin);
  void maybe_retire_chunk(ChunkHeader* chunk);

  // --- geometry helpers ----------------------------------------------------
  static SizeClassState& class_state(BinHeader* bin);
  static Arena& class_arena(BinHeader* bin);
  static BinHeader* bin_of_node(sync::RcuListNode* n);
  static BinHeader* bin_of_cb(sync::RcuCallback* cb);
  /// Address of block `idx` within `bin` (tail-aware).
  void* block_addr(BinHeader* bin, std::uint32_t idx) const;
  /// Reverse mapping for free(): find owning bin and block index.
  BinHeader* decode(void* p, std::uint32_t* block_idx) const;
  char* chunk_base(const BinHeader* bin) const;

  TBuddy* buddy_;
  bool use_tails_;
  bool coalesce_ = true;

  // Evacuation range (see set_evac_range): bins here are retire-pinned.
  std::atomic<std::uintptr_t> evac_lo_{0};
  std::atomic<std::uintptr_t> evac_hi_{0};
  std::vector<std::unique_ptr<Arena>> arenas_;

  // UAllocStats counts, each bumped once; the named ones export under
  // those registry names ("" = stats() only).
  enum Count : std::uint32_t {
    kAllocs, kFrees, kBinsCreated, kBinsRetired, kChunksCreated,
    kChunksRetired, kBinUnlinks, kBinRelists, kListRetries, kArenaFallbacks
  };
  obs::CounterSet counts_{{"", "", "ualloc.bin_create", "ualloc.bin_retire",
                           "ualloc.chunk_fetch", "ualloc.chunk_retire",
                           "ualloc.bin_unlink", "ualloc.bin_relist",
                           "ualloc.list_retry", "ualloc.arena_fallback"}};
};

}  // namespace toma::alloc
