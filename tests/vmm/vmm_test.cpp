// Elastic virtual backing store: chunk-table mechanics, grow-on-
// exhaustion, shrink-at-trim, the mapped-footprint quota gate, and the
// compactor in both its sync-point and incremental modes
// (docs/INTERNALS.md §8).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.hpp"
#include "alloc/pool.hpp"
#include "gpusim/sched.hpp"
#include "obs/recorder.hpp"
#include "support/test_support.hpp"
#include "util/bitops.hpp"
#include "vmm/backing.hpp"

namespace toma {
namespace {

using alloc::AllocStatus;
using alloc::GpuAllocator;
using alloc::HeapConfig;
using alloc::kChunkSize;

constexpr std::size_t kPool = 8 * 1024 * 1024;

HeapConfig elastic_cfg() {
  HeapConfig cfg;
  cfg.pool_bytes = kPool;
  cfg.num_arenas = 1;
  cfg.vmm = true;  // explicit: these tests are meaningless without it
  return cfg;
}

// The auto granule for an 8 MiB pool is the clamp floor (one UAlloc
// chunk); several tests below hard-code that geometry.
static_assert(alloc::vmm_chunk_bytes_for(kPool, 0) == kChunkSize);

TEST(BackingStore, MapsAndUnmapsChunks) {
  vmm::BackingStore bs(vmm::BackingConfig{
      .reserve_bytes = 4 * 1024 * 1024,
      .chunk_bytes = kChunkSize,
      .initial_chunks = 1,
      .max_chunks = 0,
  });
  // The reservation must carry the aligned_alloc(pool, pool) alignment
  // contract — the alignment-based free routing depends on it.
  EXPECT_TRUE(util::is_aligned(bs.base(), bs.reserve_bytes()));
  EXPECT_EQ(bs.chunk_count(), 16u);
  EXPECT_EQ(bs.max_chunks(), 16u);
  EXPECT_EQ(bs.mapped_chunks(), 1u);
  EXPECT_TRUE(bs.is_mapped(0));
  EXPECT_FALSE(bs.is_mapped(1));

  // map_next maps the lowest unmapped slot, and mapped memory is usable.
  void* c1 = bs.map_next();
  ASSERT_EQ(c1, bs.chunk_addr(1));
  std::memset(c1, 0xAB, kChunkSize);
  EXPECT_EQ(bs.mapped_bytes(), 2 * kChunkSize);
  EXPECT_EQ(bs.chunk_index(static_cast<char*>(c1) + 100), 1u);

  bs.unmap_chunk(1);
  EXPECT_FALSE(bs.is_mapped(1));
  EXPECT_EQ(bs.mapped_chunks(), 1u);
  EXPECT_TRUE(bs.map_chunk(1));
  EXPECT_FALSE(bs.map_chunk(1));  // already mapped

  const vmm::BackingStats st = bs.stats();
  EXPECT_EQ(st.grows, 1u);  // map_next only; explicit map_chunk is setup
  EXPECT_EQ(st.shrinks, 1u);
  EXPECT_EQ(st.chunk_bytes, kChunkSize);
  EXPECT_EQ(st.reserve_bytes, 4u * 1024 * 1024);
}

TEST(BackingStore, MapNextStopsAtMaxChunks) {
  vmm::BackingStore bs(vmm::BackingConfig{
      .reserve_bytes = 2 * 1024 * 1024,
      .chunk_bytes = kChunkSize,
      .initial_chunks = 1,
      .max_chunks = 3,
  });
  EXPECT_NE(bs.map_next(), nullptr);
  EXPECT_NE(bs.map_next(), nullptr);
  EXPECT_EQ(bs.map_next(), nullptr);  // ceiling
  EXPECT_EQ(bs.mapped_chunks(), 3u);
}

TEST(Vmm, PoolStartsSmallAndGrowsOnDemand) {
  GpuAllocator ga(elastic_cfg());
  ASSERT_TRUE(ga.has_vmm());
  EXPECT_EQ(ga.mapped_bytes(), kChunkSize);
  EXPECT_EQ(ga.pool_bytes(), kPool);

  // Far more small blocks than one chunk holds: growth must kick in and
  // every allocation must succeed (the reservation has plenty of room).
  std::vector<void*> held;
  for (int i = 0; i < 3000; ++i) {
    void* p = ga.malloc(256);
    ASSERT_NE(p, nullptr) << "allocation " << i;
    held.push_back(p);
  }
  EXPECT_GT(ga.stats().vmm.grows, 0u);
  EXPECT_GT(ga.mapped_bytes(), kChunkSize);
  EXPECT_LE(ga.mapped_bytes(), kPool);
  for (void* p : held) ga.free(p);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Vmm, GrowthCoalescesIntoLargeBlocks) {
  // A request larger than one backing chunk: freshly mapped chunks must
  // merge with their mapped neighbours inside the buddy tree until the
  // order fits (unmapped VA never merges — it was never injected).
  GpuAllocator ga(elastic_cfg());
  void* p = ga.malloc(512 * 1024);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(ga.mapped_bytes(), 2 * kChunkSize);  // chunk 1 pairs with 0
  ga.free(p);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Vmm, LargeRequestGrowsOnlyToTheFirstAlignedPair) {
  // Chunk 0 partly in use: a two-chunk request cannot pair chunk 1 with
  // it, so it maps chunks 1-3 and stops once chunks 2-3 coalesce.
  GpuAllocator ga(elastic_cfg());
  void* page = ga.malloc(alloc::kPageSize);
  ASSERT_NE(page, nullptr);
  void* p = ga.malloc(512 * 1024);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p, ga.backing().chunk_addr(2));
  EXPECT_EQ(ga.mapped_bytes(), 4 * kChunkSize);
  // The stranded chunk 1 serves the next chunk-sized request.
  void* q = ga.malloc(kChunkSize);
  EXPECT_EQ(q, ga.backing().chunk_addr(1));
  EXPECT_EQ(ga.mapped_bytes(), 4 * kChunkSize);
  EXPECT_EQ(ga.stats().buddy.failed_allocs, 0u);
  ga.free(page);
  ga.free(p);
  ga.free(q);
  EXPECT_TRUE(ga.check_consistency());
}

// Thousands of fibers on one worker outrun a one-chunk elastic pool
// together. The growth is TBuddy's chunk-order grow election: one fiber
// maps while the rest wait on the per-order semaphores, so no request
// fails anywhere on the way — no TBuddy failure, no sweep of sibling
// arenas, no lane flush.
TEST(Vmm, GrowthElectsOneGrowerWhileTheHerdWaits) {
  gpu::Device dev(test::small_device(8, 512, /*workers=*/1));
  HeapConfig cfg = elastic_cfg();
  cfg.num_arenas = dev.num_sms();
  GpuAllocator ga(cfg);
  constexpr std::uint64_t kThreads = 4096;
  constexpr int kBlocks = 4;
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(kThreads, 256, [&](gpu::ThreadCtx& t) {
    void* held[kBlocks];
    for (int i = 0; i < kBlocks; ++i) {
      held[i] = ga.malloc(std::size_t{16} << ((t.global_rank() + i) % 6));
      if (held[i] == nullptr) failed.fetch_add(1);
      t.sync_block();
    }
    for (void* p : held) ga.free(p);
  });
  const alloc::GpuAllocatorStats st = ga.stats();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(st.failed_mallocs, 0u);
  EXPECT_GE(st.vmm.grows, 4u);  // grew several times...
  EXPECT_LT(st.vmm.mapped_chunks, st.vmm.max_chunks);  // ...below the ceiling
  EXPECT_EQ(st.buddy.failed_allocs, 0u);
  EXPECT_EQ(st.ualloc.arena_fallbacks, 0u);
  EXPECT_EQ(st.lane.flushes, 0u);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Vmm, OomOnlyAfterMaxChunks) {
  HeapConfig cfg = elastic_cfg();
  cfg.max_chunks = 2;
  GpuAllocator ga(cfg);
  std::vector<void*> held;
  AllocStatus st = AllocStatus::kOk;
  for (;;) {
    void* p = ga.malloc(128 * 1024, &st);
    if (p == nullptr) break;
    held.push_back(p);
  }
  // Two chunks of four half-chunk blocks, then true exhaustion.
  EXPECT_EQ(held.size(), 4u);
  EXPECT_EQ(st, AllocStatus::kOom);
  EXPECT_EQ(ga.stats().vmm.mapped_chunks, 2u);
  EXPECT_EQ(ga.stats().vmm.max_chunks, 2u);
  for (void* p : held) ga.free(p);
}

// Several threads exhaust an elastic pool page by page, exactly. A
// thread whose attempt fails while another maps the last chunk must retry
// against that chunk, not report OOM with its pages still free: the
// growth epoch it compares against has to predate its failed attempt.
TEST(Vmm, ConcurrentGrowthExhaustsThePoolExactly) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPages = kPool / alloc::kPageSize;
  for (int round = 0; round < 20; ++round) {
    GpuAllocator ga(elastic_cfg());
    std::atomic<std::size_t> failed{0};
    std::vector<std::vector<void*>> held(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPages / kThreads; ++i) {
          void* p = ga.malloc(alloc::kPageSize);
          if (p == nullptr) {
            failed.fetch_add(1);
          } else {
            held[t].push_back(p);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    ASSERT_EQ(failed.load(), 0u)
        << "round " << round << ": " << ga.buddy().free_bytes()
        << " bytes still free";
    EXPECT_EQ(ga.buddy().free_bytes(), 0u);
    for (const auto& v : held) {
      for (void* p : v) ga.free(p);
    }
    EXPECT_TRUE(ga.check_consistency());
  }
}

TEST(Vmm, ShrinkReturnsWholeFreeChunks) {
  GpuAllocator ga(elastic_cfg());
  std::vector<void*> held;
  for (int i = 0; i < 8; ++i) {
    void* p = ga.malloc(256 * 1024);
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  const std::size_t peak = ga.mapped_bytes();
  EXPECT_GE(peak, 8 * kChunkSize);
  for (void* p : held) ga.free(p);

  ga.trim();
  const std::size_t unmapped = ga.shrink_backing();
  EXPECT_GT(unmapped, 0u);
  // Everything free shrinks to the floor (initial_chunks = 1)...
  EXPECT_EQ(ga.mapped_bytes(), kChunkSize);
  EXPECT_EQ(ga.stats().vmm.shrinks, unmapped);
  // ...and the floor chunk is still a usable, coalesced block.
  EXPECT_EQ(ga.buddy().largest_free_block(), kChunkSize);
  EXPECT_TRUE(ga.check_consistency());
  void* p = ga.malloc(1024);
  EXPECT_NE(p, nullptr);
  ga.free(p);
}

TEST(Vmm, ShrinkNeverDropsBelowInitialChunks) {
  HeapConfig cfg = elastic_cfg();
  cfg.initial_chunks = 3;
  GpuAllocator ga(cfg);
  EXPECT_EQ(ga.mapped_bytes(), 3 * kChunkSize);
  void* p = ga.malloc(4 * 256 * 1024);  // forces growth past the floor
  ASSERT_NE(p, nullptr);
  ga.free(p);
  ga.trim();
  ga.shrink_backing();
  EXPECT_EQ(ga.stats().vmm.mapped_chunks, 3u);
}

TEST(Vmm, RuntimeSwitchFreezesTheMapping) {
  GpuAllocator ga(elastic_cfg());
  void* a = ga.malloc(128 * 1024);
  void* b = ga.malloc(128 * 1024);  // chunk 0 now full
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  ga.set_vmm(false);
  AllocStatus st = AllocStatus::kOk;
  EXPECT_EQ(ga.malloc(128 * 1024, &st), nullptr);
  EXPECT_EQ(st, AllocStatus::kOom);  // frozen: behaves fixed-size
  EXPECT_EQ(ga.shrink_backing(), 0u);

  ga.set_vmm(true);
  void* c = ga.malloc(128 * 1024, &st);
  EXPECT_NE(c, nullptr);
  EXPECT_EQ(st, AllocStatus::kOk);
  ga.free(a);
  ga.free(b);
  ga.free(c);
}

TEST(Vmm, QuotaChargesMappedBytesNotReservation) {
  // quota = 3 chunks. Fill exactly that much, then punch two half-chunk
  // holes in *different* chunks: the next 256 KB request passes live-byte
  // admission but cannot be served from the fragmented holes — and the
  // mapped-footprint gate must refuse to map a fourth chunk (kQuota, not
  // kOom: the reservation itself has plenty of room).
  HeapConfig cfg = elastic_cfg();
  cfg.quota_bytes = 3 * kChunkSize;
  GpuAllocator ga(cfg);

  std::vector<void*> held;
  AllocStatus st = AllocStatus::kOk;
  for (int i = 0; i < 6; ++i) {
    void* p = ga.malloc(128 * 1024, &st);
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  EXPECT_EQ(ga.mapped_bytes(), 3 * kChunkSize);

  // Group the blocks by owning 256 KB chunk and free one from each of
  // two different chunks (the holes cannot coalesce across chunks).
  std::map<std::uintptr_t, std::vector<void*>> by_chunk;
  for (void* p : held) {
    by_chunk[reinterpret_cast<std::uintptr_t>(p) / kChunkSize].push_back(p);
  }
  ASSERT_GE(by_chunk.size(), 2u);
  auto it = by_chunk.begin();
  void* hole_a = it->second.front();
  ++it;
  void* hole_b = it->second.front();
  ga.free(hole_a);
  ga.free(hole_b);
  held.erase(std::remove(held.begin(), held.end(), hole_a), held.end());
  held.erase(std::remove(held.begin(), held.end(), hole_b), held.end());

  void* p = ga.malloc(256 * 1024, &st);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(st, AllocStatus::kQuota);
  EXPECT_EQ(ga.mapped_bytes(), 3 * kChunkSize);  // the gate held
  EXPECT_GT(ga.stats().quota_rejects, 0u);

  // Raising the quota lifts the gate: the same request grows and lands.
  ga.set_quota(4 * kChunkSize);
  p = ga.malloc(256 * 1024, &st);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(st, AllocStatus::kOk);
  ga.free(p);
  for (void* q : held) ga.free(q);
}

TEST(Vmm, QuotaHeadroomRecoversAfterShrink) {
  // Regression: the quota must charge against mapped/live bytes, never
  // against high-water VA. A pool that grew to its quota, freed
  // everything and shrank must admit the same working set again.
  HeapConfig cfg = elastic_cfg();
  cfg.quota_bytes = 2 * kChunkSize;
  GpuAllocator ga(cfg);

  const auto fill = [&ga]() {
    std::vector<void*> held;
    AllocStatus st = AllocStatus::kOk;
    for (int i = 0; i < 4; ++i) {
      void* p = ga.malloc(128 * 1024, &st);
      EXPECT_NE(p, nullptr) << "allocation " << i;
      EXPECT_EQ(st, AllocStatus::kOk);
      if (p != nullptr) held.push_back(p);
    }
    return held;
  };

  std::vector<void*> first = fill();
  EXPECT_EQ(ga.mapped_bytes(), 2 * kChunkSize);
  for (void* p : first) ga.free(p);
  ga.trim();
  ga.shrink_backing();
  EXPECT_EQ(ga.mapped_bytes(), kChunkSize);
  EXPECT_EQ(ga.bytes_in_use(), 0u);

  std::vector<void*> second = fill();  // full headroom again
  EXPECT_EQ(second.size(), 4u);
  for (void* p : second) ga.free(p);
}

TEST(Vmm, DefragCompactsSparseBinsAndShrinks) {
  HeapConfig cfg = elastic_cfg();
  GpuAllocator ga(cfg);

  // Fill many 256 B bins, then free 15 of every 16 blocks: every bin is
  // left sparse, live bytes fit one chunk, but the survivors pin pages
  // across every chunk — exactly the footprint defrag exists to fix.
  constexpr int kBlocks = 4096;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(256);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x40 + (i % 64), 256);
  }
  // current address -> index into `held`; the relocation hooks re-key
  // entries as blocks move, so multi-hop moves (a compaction destination
  // migrated again by a later victim) resolve correctly.
  std::map<void*, int> cur;
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 16 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();
  const std::size_t mapped_before = ga.mapped_bytes();

  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&cur](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&cur](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end()) << "relocation of an unknown block";
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      },
      nullptr});
  const std::size_t n = ga.defrag();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(ga.stats().defrag_moves, n);
  EXPECT_EQ(ga.stats().defrag_passes, 1u);
  EXPECT_LT(ga.mapped_bytes(), mapped_before);
  EXPECT_TRUE(ga.check_consistency());

  // Contents follow the move, and the new pointers are live allocations.
  for (const auto& [p, orig] : cur) {
    std::vector<unsigned char> want(256,
                                    static_cast<unsigned char>(0x40 +
                                                               orig % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), 256), 0) << "block " << orig;
    EXPECT_EQ(ga.usable_size(p), 256u);
    ga.free(p);
  }
  EXPECT_TRUE(ga.check_consistency());
  EXPECT_EQ(ga.bytes_in_use(), 0u);
}

TEST(ForwardTable, ResolvesConsumesAndPurges) {
  vmm::ForwardTable ft;
  char a, b, c;
  EXPECT_TRUE(ft.empty());
  EXPECT_EQ(ft.resolve(&a), &a);  // unknown pointers pass through

  ft.insert(&a, &b);
  EXPECT_FALSE(ft.empty());
  EXPECT_EQ(ft.resolve(&a), &b);
  EXPECT_EQ(ft.resolve(&b), &b);  // new addresses resolve to themselves

  // Consuming resolution at the old address: entry retired.
  bool forwarded = false;
  EXPECT_EQ(ft.on_free(&a, &forwarded), &b);
  EXPECT_TRUE(forwarded);
  EXPECT_TRUE(ft.empty());
  EXPECT_EQ(ft.resolve(&a), &a);

  // Dying under the new name retires the old-address entry too.
  ft.insert(&a, &b);
  EXPECT_EQ(ft.on_free(&b, &forwarded), &b);
  EXPECT_FALSE(forwarded);
  EXPECT_TRUE(ft.empty());

  // Multi-hop path compression: a -> b then b -> c leaves a -> c.
  ft.insert(&a, &b);
  ft.insert(&b, &c);
  EXPECT_EQ(ft.resolve(&a), &c);
  EXPECT_EQ(ft.size(), 1u);

  // Range purge by old address.
  ft.purge_range(&a, 1);
  EXPECT_TRUE(ft.empty());
}

// Drive one full incremental evacuation cycle on a quiescent heap via
// defrag_step alone: census -> evacuate (two-phase hooks) -> forwarding
// -> pin-drained retirement -> unmap. The footprint must shrink
// without a single sync-point run.
TEST(Vmm, IncrementalDefragCompactsAndRetires) {
  HeapConfig cfg = elastic_cfg();
  GpuAllocator ga(cfg);

  std::map<void*, int> cur;  // current address -> original index
  int moving = -1;
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) {
        EXPECT_EQ(moving, -1);  // one open move at a time
        const auto it = cur.find(from);
        if (it == cur.end()) return false;  // not ours: veto
        moving = it->second;
        return true;
      },
      [&](void* from, void* to, std::size_t) {
        ASSERT_GE(moving, 0);  // commit always matches a prepare
        cur.erase(from);
        cur[to] = moving;
        moving = -1;
      },
      nullptr});

  constexpr int kBlocks = 4096;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(256);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x40 + (i % 64), 256);
  }
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 16 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();
  const std::size_t mapped_before = ga.mapped_bytes();
  ASSERT_GT(mapped_before, 2 * kChunkSize);

  // Bounded slices with traffic interleaved: every step stays small, no
  // step is a whole pass.
  for (int round = 0; round < 512; ++round) {
    ga.defrag_step();
    if (round % 8 == 0) {
      void* t = ga.malloc(64);
      ASSERT_NE(t, nullptr);
      ga.free(t);
    }
  }
  EXPECT_EQ(moving, -1);
  const auto st = ga.stats();
  EXPECT_GT(st.defrag_steps, 0u);
  EXPECT_GT(st.defrag_moved_bytes, 0u);
  EXPECT_EQ(st.defrag_passes, 0u);  // never a sync-point run
  EXPECT_LT(ga.mapped_bytes(), mapped_before);
  EXPECT_TRUE(ga.check_consistency());

  for (const auto& [p, orig] : cur) {
    std::vector<unsigned char> want(
        256, static_cast<unsigned char>(0x40 + orig % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), 256), 0) << "block " << orig;
    EXPECT_EQ(ga.usable_size(p), 256u);
    ga.free(p);
  }
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

// A vetoed incremental move hands its destination slot back through the
// fixed lane, exactly like a tenant free: the slot parks on the lane of
// its class (bitmap bit still claimed) instead of bypassing the cache
// into the bins, and the bin accounting stays exact around it.
TEST(Vmm, IncrementalDefragVetoParksDestinationOnLane) {
  HeapConfig cfg = elastic_cfg();
  cfg.fixed_lane = true;
  GpuAllocator ga(cfg);
  std::size_t prepares = 0;
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void*, void*, std::size_t) {
        ++prepares;
        return false;  // veto every move
      },
      nullptr, nullptr});

  constexpr int kBlocks = 4096;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(256);
    ASSERT_NE(held[i], nullptr);
  }
  std::vector<void*> live;
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 16 == 0) {
      live.push_back(held[i]);
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();
  ASSERT_GT(ga.mapped_bytes(), 2 * kChunkSize);  // a victim is selectable

  ASSERT_EQ(ga.stats().lane.cached, 0u);  // trim drained the lanes
  ga.defrag_step();
  ASSERT_GT(prepares, 0u) << "no move reached the prepare hook";
  // Every veto returned the same destination to the lane, and every
  // later move popped it straight back: the lane nets exactly one block,
  // on the 256 B lane of the only arena.
  ASSERT_EQ(ga.stats().lane.cached, 1u);
  EXPECT_EQ(ga.fixed_lane().lane_count(0, alloc::size_class_of(256)), 1u);
  EXPECT_EQ(ga.stats().defrag_moved_bytes, 0u);
  EXPECT_TRUE(ga.check_consistency());

  ga.set_relocation_hooks({});
  for (void* p : live) ga.free(p);
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  ga.trim();
  EXPECT_TRUE(ga.check_consistency());
}

// While a chunk is in kForwarding, the *old* addresses of its moved
// blocks must stay operable: usable_size resolves read-only, free and
// realloc consume the entry and land on the current block. The source
// chunk's slots are held until the pin epoch drains, so the old names
// can never alias fresh allocations while an entry is live.
TEST(Vmm, ForwardingResolvesStaleFreesAndReallocs) {
  HeapConfig cfg = elastic_cfg();
  GpuAllocator ga(cfg);

  std::map<void*, int> cur;
  std::vector<std::pair<void*, void*>> moves;  // (old, new) this step
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) {
        return cur.count(from) != 0;
      },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
        moves.emplace_back(from, to);
      },
      nullptr});

  constexpr int kBlocks = 4096;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(256);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x40 + (i % 64), 256);
  }
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 16 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();

  std::size_t stale_frees = 0;
  std::size_t stale_reallocs = 0;
  for (int round = 0; round < 512; ++round) {
    moves.clear();
    ga.defrag_step();
    // Entries from this step's moves are live at least until the chunk
    // retires (a later step): exercise the old names NOW.
    if (!moves.empty()) {
      auto [oldp, newp] = moves.front();
      // Read-only resolution: the old name reports the block's size.
      EXPECT_EQ(ga.usable_size(oldp), 256u);
      const int orig = cur.at(newp);
      if (stale_frees <= stale_reallocs) {
        ga.free(oldp);  // stale free: consumes the entry, frees the block
        cur.erase(newp);
        ++stale_frees;
      } else {
        // Stale realloc: resolves, grows, preserves contents.
        void* grown = ga.realloc(oldp, 512);
        ASSERT_NE(grown, nullptr);
        std::vector<unsigned char> want(
            256, static_cast<unsigned char>(0x40 + orig % 64));
        EXPECT_EQ(std::memcmp(grown, want.data(), 256), 0);
        cur.erase(newp);
        cur[grown] = orig;
        ++stale_reallocs;
      }
    }
  }
  EXPECT_GT(stale_frees, 0u);
  EXPECT_GT(stale_reallocs, 0u);
  EXPECT_EQ(ga.stats().defrag_forwarded, stale_frees + stale_reallocs);
  for (const auto& kv : cur) ga.free(kv.first);
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

// HeapSan shadow entries relocate with the blocks under the incremental
// driver too: lookups and frees at the (possibly stale) user addresses
// keep resolving, and redzone checks hold at the new location.
TEST(Vmm, IncrementalDefragFollowsHeapSanShadow) {
  HeapConfig cfg = elastic_cfg();
  cfg.heapsan = true;
  GpuAllocator ga(cfg);

  std::map<void*, int> cur;
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      },
      nullptr});

  constexpr int kBlocks = 2048;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(192);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x11 + (i % 64), 192);
  }
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 8 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();
  const std::size_t mapped_before = ga.mapped_bytes();

  for (int round = 0; round < 512; ++round) ga.defrag_step();
  EXPECT_GT(ga.stats().defrag_moved_bytes, 0u);
  EXPECT_LE(ga.mapped_bytes(), mapped_before);

  // Shadow lookups and redzone verification at the new addresses; the
  // free path would abort on any corrupted redzone.
  for (const auto& [p, orig] : cur) {
    EXPECT_EQ(ga.usable_size(p), 192u);
    std::vector<unsigned char> want(
        192, static_cast<unsigned char>(0x11 + orig % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), 192), 0) << "block " << orig;
    ga.free(p);
  }
  ga.heapsan().flush_quarantine();  // frees are quarantined until flushed
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Vmm, DefragFollowsHeapSanShadow) {
  HeapConfig cfg = elastic_cfg();
  cfg.heapsan = true;
  GpuAllocator ga(cfg);

  // Enough blocks to span several chunks: defrag compacts at chunk
  // granularity, so a single-chunk heap has nothing to evacuate.
  constexpr int kBlocks = 4096;
  static constexpr std::size_t kSize = 100;  // deliberately not a class size
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(kSize);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], i % 251, kSize);
  }
  std::map<void*, int> cur;  // current address -> pattern seed
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 8 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }

  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&cur](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&cur](void* from, void* to, std::size_t bytes) {
        // With HeapSan engaged the hooks carry *user* pointers and the
        // exact recorded request size, not the class capacity.
        EXPECT_EQ(bytes, kSize);
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end()) << "relocation of an unknown block";
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      },
      nullptr});
  const std::size_t n = ga.defrag();
  EXPECT_GT(n, 0u);

  // Shadow records follow moved blocks: exact usable size survives, the
  // payload is intact, and the sanitized free path (redzone verification
  // included) accepts the new pointer.
  for (const auto& [p, i] : cur) {
    EXPECT_EQ(ga.usable_size(p), kSize);
    std::vector<unsigned char> want(kSize, static_cast<unsigned char>(i % 251));
    EXPECT_EQ(std::memcmp(p, want.data(), kSize), 0) << "block " << i;
    ga.free(p);
  }
  EXPECT_EQ(ga.stats().heapsan.live_blocks, 0u);
  ga.heapsan().flush_quarantine();
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Vmm, FixedPoolIsUnaffected) {
  HeapConfig cfg;
  cfg.pool_bytes = 4 * 1024 * 1024;
  cfg.num_arenas = 1;
  cfg.vmm = false;
  GpuAllocator ga(cfg);
  EXPECT_FALSE(ga.has_vmm());
  EXPECT_FALSE(ga.vmm_enabled());
  EXPECT_EQ(ga.mapped_bytes(), cfg.pool_bytes);
  EXPECT_EQ(ga.shrink_backing(), 0u);
  EXPECT_EQ(ga.defrag(), 0u);
  EXPECT_EQ(ga.stats().vmm.grows, 0u);
  void* p = ga.malloc(64);
  EXPECT_NE(p, nullptr);
  ga.free(p);
  ga.trim();  // retire the carved UAlloc chunk so the tree re-coalesces
  EXPECT_EQ(ga.buddy().largest_free_block(), cfg.pool_bytes);
}

// A slab-refilled class (8..64 B) stocks the fixed lane a batch at a
// time, and the compactor takes its destinations through the lane: a
// refill claims slots no host owns, which the victim sweep sees as live.
// Prepare must veto them — a commit for a slot the host never admitted,
// or a source freed while the lane still holds it, would hand one block
// out twice.
TEST(Vmm, DefragNeverMigratesLaneParkedSlabBlocks) {
  HeapConfig cfg = elastic_cfg();
  GpuAllocator ga(cfg);
  ASSERT_TRUE(ga.fixed_lane_enabled());
  constexpr std::size_t kSize = 64;
  static_assert(alloc::fixed_lane_slab_refilled(alloc::size_class_of(kSize)));

  // 2 MiB of 64 B blocks over several backing chunks, then keep 1 in 16:
  // every bin is sparse and the survivors pin every chunk.
  constexpr int kBlocks = 32768;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(kSize);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x40 + (i % 64), kSize);
  }
  std::map<void*, int> cur;
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 16 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  int unknown = 0;
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&cur](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        if (it == cur.end()) {
          ++unknown;  // a slot the host never owned
          return;
        }
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      },
      nullptr});
  const std::size_t mapped_before = ga.mapped_bytes();
  EXPECT_GT(ga.defrag(), 0u);
  EXPECT_EQ(unknown, 0) << "the compactor moved blocks no host owns";
  EXPECT_LT(ga.mapped_bytes(), mapped_before);
  EXPECT_TRUE(ga.check_consistency());

  for (const auto& [p, orig] : cur) {
    std::vector<unsigned char> want(kSize,
                                    static_cast<unsigned char>(0x40 +
                                                               orig % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), kSize), 0) << "block " << orig;
    ga.free(p);
  }
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  // Cycle the class through the lane again: a slot the lane and the bin
  // both thought free would be handed out (or released) twice here.
  std::vector<void*> again(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    again[i] = ga.malloc(kSize);
    ASSERT_NE(again[i], nullptr);
  }
  std::sort(again.begin(), again.end());
  EXPECT_EQ(std::adjacent_find(again.begin(), again.end()), again.end())
      << "one block handed out twice";
  for (void* p : again) ga.free(p);
  ga.trim();
  EXPECT_TRUE(ga.check_consistency());
  EXPECT_EQ(ga.bytes_in_use(), 0u);
}

TEST(Vmm, PoolSyncRunsDefragWhenEnabled) {
  HeapConfig cfg = elastic_cfg();
  cfg.defrag_mode = alloc::DefragMode::kSync;
  cfg.release_threshold = 0;
  alloc::Pool pool("vmm-defrag-sync", cfg);
  gpu::Stream s;

  // Survivors WILL move (that is the opt-in): track current addresses
  // through the relocation hooks, as a defrag-tolerating host must.
  std::map<void*, int> cur;
  pool.set_relocation_hooks(alloc::RelocationHooks{
      [&cur](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&cur](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end()) << "relocation of an unknown block";
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      },
      nullptr});

  std::vector<void*> held;
  for (int i = 0; i < 2048; ++i) held.push_back(pool.malloc(256));
  for (int i = 0; i < 2048; ++i) {
    if (i % 8 == 0) {
      cur[held[i]] = i;
    } else {
      pool.free(held[i]);
    }
  }
  const std::size_t mapped_before = pool.stats().alloc.mapped_bytes;
  pool.sync(s);  // sync point: defrag + threshold trim + shrink
  EXPECT_GE(pool.stats().alloc.defrag_passes, 1u);
  EXPECT_GT(pool.stats().alloc.defrag_moves, 0u);
  // Compaction turned sparse bins into whole unmapped chunks.
  EXPECT_LT(pool.stats().alloc.mapped_bytes, mapped_before);
  for (const auto& [p, i] : cur) pool.free(p);
  pool.trim();
  EXPECT_EQ(pool.stranded_bytes(), 0u);
  EXPECT_TRUE(pool.check_consistency());
}

// A sync-point run terminates even when a victim cannot be emptied, and
// ends at the initial_chunks floor once it can. The host vetoes one
// survivor (it is mid-use), so that chunk's evacuation stalls and
// retirement gives it back to kLive: still the sparsest chunk, with
// slack left for another selection. A victim whose retirement fails for
// any other reason returns the same way. Each backing chunk is a victim
// at most once per defrag() call, so the run never selects such a chunk
// again and never moves a block twice through it. Once the host lets
// go, the next run empties the chunk down to the floor, and a run at the
// floor moves nothing.
TEST(Vmm, SyncDefragTerminatesAtTheShrinkFloor) {
  constexpr std::uint32_t kKeepers = 4;  // dense chunks
  HeapConfig cfg = elastic_cfg();
  // The floor: the keepers plus the chunk the survivors compact into.
  cfg.initial_chunks = kKeepers + 1;
  GpuAllocator ga(cfg);
  const vmm::BackingStore& bs = ga.backing();

  std::map<void*, int> cur;
  void* pinned = nullptr;              // the survivor the host holds on to
  std::vector<std::uint32_t> sources;  // source chunk of every admitted move
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) {
        if (from == pinned || cur.count(from) == 0) return false;
        sources.push_back(bs.chunk_index(from));
        return true;
      },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      },
      nullptr});

  // 17 chunks of 256 B blocks, then by owning chunk: the first kKeepers
  // keep 14 of every 25 blocks (dense: compaction destinations), the next
  // keeps one block (the pinned one), the rest keep 1 in 16.
  constexpr int kBlocks = 17000;
  std::vector<void*> held(kBlocks);
  std::map<std::uint32_t, std::vector<int>> by_chunk;
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(256);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x40 + (i % 64), 256);
    by_chunk[bs.chunk_index(held[i])].push_back(i);
  }
  ASSERT_GT(by_chunk.size(), kKeepers + 12u);
  std::uint32_t rank = 0;
  for (const auto& [chunk, blocks] : by_chunk) {
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      const int i = blocks[k];
      const bool keep = rank < kKeepers ? k % 25 < 14
                        : rank == kKeepers ? k == 0
                                           : k % 16 == 0;
      if (keep) {
        cur[held[i]] = i;
      } else {
        ga.free(held[i]);
      }
    }
    if (rank == kKeepers) pinned = held[blocks[0]];
    ++rank;
  }

  const std::uint32_t mapped_before = bs.mapped_chunks();
  const std::size_t n = ga.defrag();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(n, sources.size());
  // The pinned block kept its chunk mapped and live, above the floor.
  EXPECT_LT(bs.mapped_chunks(), mapped_before);
  EXPECT_GT(bs.mapped_chunks(), cfg.initial_chunks);
  EXPECT_TRUE(bs.is_mapped(bs.chunk_index(pinned)));
  EXPECT_EQ(bs.chunk_state(bs.chunk_index(pinned)), vmm::ChunkState::kLive);
  // No chunk was evacuated twice: its admitted moves form one run.
  std::vector<std::uint32_t> victims;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i == 0 || sources[i] != sources[i - 1]) victims.push_back(sources[i]);
  }
  std::vector<std::uint32_t> distinct = victims;
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::adjacent_find(distinct.begin(), distinct.end()),
            distinct.end())
      << "a chunk was evacuated twice in one run";
  EXPECT_LE(victims.size(), mapped_before);

  // The host lets go: the next run empties that chunk down to the floor.
  pinned = nullptr;
  EXPECT_GT(ga.defrag(), 0u);
  EXPECT_EQ(bs.mapped_chunks(), cfg.initial_chunks);
  // At the floor there is nothing left to select.
  EXPECT_EQ(ga.defrag(), 0u);
  EXPECT_EQ(ga.stats().defrag_passes, 3u);
  EXPECT_TRUE(ga.check_consistency());
  for (const auto& [p, orig] : cur) {
    std::vector<unsigned char> want(
        256, static_cast<unsigned char>(0x40 + orig % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), 256), 0) << "block " << orig;
    ga.free(p);
  }
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

// A kSync pool with no prepare hook has no host that could veto a block
// or learn its new address, so the sync point moves nothing: every
// survivor keeps its address and its contents.
TEST(Vmm, SyncDefragWithoutPrepareHookMovesNothing) {
  HeapConfig cfg = elastic_cfg();
  cfg.defrag_mode = alloc::DefragMode::kSync;
  cfg.release_threshold = 0;
  alloc::Pool pool("vmm-defrag-sync-nohook", cfg);
  gpu::Stream s;

  std::vector<void*> held;
  for (int i = 0; i < 2048; ++i) {
    held.push_back(pool.malloc(256));
    ASSERT_NE(held.back(), nullptr);
    std::memset(held.back(), 0x40 + (i % 64), 256);
  }
  std::vector<std::pair<void*, int>> survivors;
  for (int i = 0; i < 2048; ++i) {
    if (i % 8 == 0) {
      survivors.emplace_back(held[i], i);
    } else {
      pool.free(held[i]);
    }
  }
  pool.sync(s);
  EXPECT_EQ(pool.stats().alloc.defrag_moves, 0u);
  EXPECT_EQ(pool.stats().alloc.defrag_moved_bytes, 0u);
  for (const auto& [p, i] : survivors) {
    std::vector<unsigned char> want(256,
                                    static_cast<unsigned char>(0x40 + i % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), 256), 0) << "block " << i;
    EXPECT_EQ(pool.usable_size(p), 256u);
    pool.free(p);
  }
  pool.trim();
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_TRUE(pool.check_consistency());
}

// kIncremental mode needs no explicit driver: steps piggyback on the
// pool's own async traffic (every kVmmDefragOpInterval-th op) and on
// gpusim scheduler idle slots (registered while the mode is on). No
// sync-point run (defrag()) ever happens.
TEST(Vmm, PoolIncrementalDefragPiggybacksOnTraffic) {
  {
    HeapConfig cfg = elastic_cfg();
    cfg.defrag_mode = alloc::DefragMode::kIncremental;
    cfg.release_threshold = 0;
    alloc::Pool pool("vmm-defrag-inc", cfg);
    // The idle-slot driver is installed while an incremental pool lives.
    EXPECT_NE(gpu::scheduler_idle_hook(), nullptr);

    std::map<void*, int> cur;
    pool.set_relocation_hooks(alloc::RelocationHooks{
        [&](void* from, void*, std::size_t) { return cur.count(from) != 0; },
        [&](void* from, void* to, std::size_t) {
          const auto it = cur.find(from);
          ASSERT_NE(it, cur.end());
          const int idx = it->second;
          cur.erase(it);
          cur[to] = idx;
        },
        nullptr});

    std::vector<void*> held;
    for (int i = 0; i < 2048; ++i) held.push_back(pool.malloc(256));
    for (int i = 0; i < 2048; ++i) {
      if (i % 8 == 0) {
        cur[held[i]] = i;
      } else {
        pool.free(held[i]);
      }
    }
    pool.trim();
    const std::size_t mapped_before = pool.stats().alloc.mapped_bytes;

    // Plain traffic, no defrag calls anywhere: the op-interval tick does
    // all the driving.
    gpu::Stream s;
    for (int round = 0; round < 16384; ++round) {
      void* t = pool.malloc_async(64, s);
      ASSERT_NE(t, nullptr);
      pool.free_async(t, s);
      if (round % 64 == 63) pool.sync(s);
    }
    pool.sync(s);

    const auto st = pool.stats();
    EXPECT_GT(st.alloc.defrag_steps, 0u) << "ticks never fired";
    EXPECT_GT(st.alloc.defrag_moved_bytes, 0u);
    EXPECT_EQ(st.alloc.defrag_passes, 0u) << "no sync-point run";
    EXPECT_LT(pool.stats().alloc.mapped_bytes, mapped_before);

    for (const auto& kv : cur) pool.free(kv.first);
    EXPECT_TRUE(pool.check_consistency());
  }
  // Last incremental pool gone: the idle hook must be uninstalled.
  EXPECT_EQ(gpu::scheduler_idle_hook(), nullptr);
}

// Records one deterministic workload and returns (trace, moved bytes).
// Ops are index-addressed so the logical sequence is identical whether
// or not blocks move underneath it.
obs::RecordedTrace record_defrag_workload(bool incremental,
                                          std::uint64_t* moved_bytes) {
  HeapConfig cfg = elastic_cfg();
  cfg.release_threshold = 0;
  if (incremental) cfg.defrag_mode = alloc::DefragMode::kIncremental;
  alloc::Pool pool("vmm-defrag-rec", cfg);

  std::map<void*, int> cur;          // current address -> index
  std::vector<void*> by_idx(2048);   // index -> current address
  pool.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
        by_idx[idx] = to;
      },
      nullptr});

  obs::Recorder& r = obs::Recorder::instance();
  EXPECT_TRUE(r.start());
  for (int i = 0; i < 2048; ++i) {
    by_idx[i] = pool.malloc(256);
    EXPECT_NE(by_idx[i], nullptr);
  }
  for (int i = 0; i < 2048; ++i) {
    if (i % 16 == 0) {
      cur[by_idx[i]] = i;
    } else {
      pool.free(by_idx[i]);
    }
  }
  for (int round = 0; round < 512; ++round) {
    // Compaction is invisible to the recorder: moves emit no event and
    // rekey block identity in place.
    if (incremental) pool.defrag_step();
    if (round % 4 == 0) {
      void* t = pool.malloc(128);
      EXPECT_NE(t, nullptr);
      pool.free(t);
    }
    if (round % 32 == 0) {
      const int idx = (round / 32) * 16;  // a survivor, by index
      void* cur_addr = by_idx[idx];
      cur.erase(cur_addr);
      void* grown = pool.realloc(cur_addr, 512);
      EXPECT_NE(grown, nullptr);
      cur[grown] = idx;
      by_idx[idx] = grown;
    }
  }
  for (int i = 0; i < 2048; i += 16) pool.free(by_idx[i]);
  r.stop();
  *moved_bytes = pool.stats().alloc.defrag_moved_bytes;
  return r.trace();
}

// The flight recorder's contract under live compaction: a trace
// recorded while incremental defrag churns underneath is event-for-
// event bit-identical to the same workload with defrag off. Replay of
// either file reproduces the same logical history.
TEST(Vmm, RecorderTraceBitIdenticalUnderIncrementalDefrag) {
  std::uint64_t moved_off = 0;
  std::uint64_t moved_inc = 0;
  const obs::RecordedTrace off = record_defrag_workload(false, &moved_off);
  const obs::RecordedTrace inc = record_defrag_workload(true, &moved_inc);
  EXPECT_EQ(moved_off, 0u);
  EXPECT_GT(moved_inc, 0u) << "defrag never ran: the test proves nothing";

  ASSERT_EQ(inc.events.size(), off.events.size());
  for (std::size_t i = 0; i < inc.events.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&inc.events[i], &off.events[i],
                             sizeof(obs::RecordEvent)))
        << "event " << i << " diverged under incremental defrag";
  }
  // Every free in the defrag run resolved a known block: no event ever
  // fell back to the unknown-pointer id.
  for (const auto& e : inc.events) {
    if (e.op == obs::RecOp::kFree) {
      EXPECT_NE(e.block, 0u);
    }
  }
}

}  // namespace
}  // namespace toma
