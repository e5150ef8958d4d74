#include "alloc/ualloc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/config.hpp"
#include "gpusim/gpusim.hpp"
#include "support/test_support.hpp"
#include "util/bitops.hpp"

namespace toma::alloc {
namespace {

class UAllocTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPool = 16 * 1024 * 1024;
  UAllocTest()
      : pool_(kPool), buddy_(pool_.get(), kPool), ua_(buddy_, /*arenas=*/2) {}
  test::AlignedPool pool_;
  TBuddy buddy_;
  UAlloc ua_;
};

TEST_F(UAllocTest, GeometryConstants) {
  EXPECT_EQ(bin_capacity(size_class_of(8)), 512u);
  EXPECT_EQ(bin_capacity(size_class_of(16)), 256u);
  EXPECT_EQ(bin_capacity(size_class_of(128)), 32u);
  EXPECT_EQ(bin_capacity(size_class_of(256)), 15u);  // no tail: 3968/256
  EXPECT_EQ(bin_capacity(size_class_of(512)), 7u);
  EXPECT_EQ(bin_capacity(size_class_of(1024)), 3u);
}

TEST_F(UAllocTest, NeverPageAligned) {
  for (std::size_t size : {8, 16, 32, 64, 128, 256, 512, 1024}) {
    void* p = ua_.allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(util::is_aligned(p, kPageSize))
        << "UAlloc returned page-aligned block for size " << size;
    ua_.free(p);
  }
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, RoundTripAllSizes) {
  for (std::size_t size : {8, 16, 32, 64, 128, 256, 512, 1024}) {
    void* p = ua_.allocate(size);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xCD, size);
    ua_.free(p);
  }
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, DistinctAddressesWithinBin) {
  std::set<void*> seen;
  std::vector<void*> ptrs;
  for (int i = 0; i < 600; ++i) {  // more than one 8B bin (512 cap)
    void* p = ua_.allocate(8);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate address";
    ptrs.push_back(p);
  }
  for (void* p : ptrs) ua_.free(p);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, BlocksDoNotOverlap) {
  // Write a distinct pattern into every allocation, then verify all.
  constexpr int kN = 256;
  std::vector<void*> ptrs(kN);
  std::vector<std::size_t> sizes(kN);
  util::Xorshift rng(5);
  for (int i = 0; i < kN; ++i) {
    sizes[i] = std::size_t{8} << rng.next_below(8);
    ptrs[i] = ua_.allocate(sizes[i]);
    ASSERT_NE(ptrs[i], nullptr);
    std::memset(ptrs[i], i & 0xff, sizes[i]);
  }
  for (int i = 0; i < kN; ++i) {
    auto* c = static_cast<unsigned char*>(ptrs[i]);
    for (std::size_t k = 0; k < sizes[i]; ++k) {
      ASSERT_EQ(c[k], i & 0xff) << "allocation " << i << " corrupted";
    }
    ua_.free(ptrs[i]);
  }
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, TailBlocksUsedForSmallSizes) {
  // Fill a whole 8 B bin: 512 blocks only fit because the 128 B tail is
  // appended (3968/8 = 496 without it). Verify the tail blocks land in
  // header bins 0/1 of the chunk and round-trip correctly.
  std::vector<void*> ptrs;
  int tail_blocks = 0;
  for (int i = 0; i < 512; ++i) {
    void* p = ua_.allocate(8);
    ASSERT_NE(p, nullptr);
    const std::uintptr_t off =
        reinterpret_cast<std::uintptr_t>(p) % kChunkSize;
    if (off / kBinSize < kHeaderBins) ++tail_blocks;
    std::memset(p, 0x77, 8);
    ptrs.push_back(p);
  }
  EXPECT_GT(tail_blocks, 0) << "no allocations used the tail space";
  for (void* p : ptrs) ua_.free(p);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, ExhaustedBinUnlinksAndRelists) {
  // Exhaust one bin of 1 KB blocks (capacity 3), then free: the bin must
  // leave the free-list when empty and return when blocks come back.
  std::vector<void*> ptrs;
  for (int i = 0; i < 3; ++i) {
    void* p = ua_.allocate(1024);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  const auto st1 = ua_.stats();
  EXPECT_GE(st1.bin_unlinks, 1u);
  for (void* p : ptrs) ua_.free(p);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, FullyFreedBinsRetire) {
  // Allocate enough 1 KB blocks for several bins, free all, and confirm
  // bins were retired back to their chunks.
  std::vector<void*> ptrs;
  for (int i = 0; i < 30; ++i) {
    void* p = ua_.allocate(1024);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) ua_.free(p);
  const auto st = ua_.stats();
  EXPECT_GT(st.bins_created, 0u);
  EXPECT_GT(st.bins_retired, 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, ChunkRetirementReturnsMemoryToBuddy) {
  const std::size_t before = buddy_.free_bytes();
  std::vector<void*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    void* p = ua_.allocate(64);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  EXPECT_LT(buddy_.free_bytes(), before);
  for (void* p : ptrs) ua_.free(p);
  EXPECT_TRUE(ua_.check_consistency());
  // Retire hysteresis keeps the last bin of the class cached; an explicit
  // trim scavenges it and every chunk returns to the buddy.
  ua_.trim();
  // Retired chunks land in the buddy's order-6 quicklist (deferred
  // coalescing); flush it so they show up in the free-space accounting.
  buddy_.trim();
  EXPECT_EQ(ua_.stats().chunks_created, ua_.stats().chunks_retired);
  EXPECT_EQ(buddy_.free_bytes(), before);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(UAllocTest, ConcurrentSameClassGpu) {
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(4096, 128, [&](gpu::ThreadCtx& t) {
    void* p = ua_.allocate(32);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    std::memset(p, static_cast<int>(t.global_rank() & 0xff), 32);
    t.yield();
    auto* c = static_cast<unsigned char*>(p);
    for (int k = 0; k < 32; ++k) {
      if (c[k] != (t.global_rank() & 0xff)) std::abort();
    }
    ua_.free(p);
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, ConcurrentMixedClassesChurnGpu) {
  gpu::Device dev(test::small_device());
  dev.launch_linear(2048, 64, [&](gpu::ThreadCtx& t) {
    auto& rng = t.rng();
    void* held[3] = {};
    std::size_t held_size[3] = {};
    for (int round = 0; round < 6; ++round) {
      const int slot = static_cast<int>(rng.next_below(3));
      if (held[slot] != nullptr) {
        // Verify canary before freeing.
        auto* c = static_cast<unsigned char*>(held[slot]);
        if (c[0] != 0xEE || c[held_size[slot] - 1] != 0xEF) std::abort();
        ua_.free(held[slot]);
        held[slot] = nullptr;
      }
      const std::size_t size = std::size_t{8} << rng.next_below(8);
      void* p = ua_.allocate(size);
      if (p != nullptr) {
        auto* c = static_cast<unsigned char*>(p);
        c[0] = 0xEE;
        c[size - 1] = 0xEF;
        held[slot] = p;
        held_size[slot] = size;
      }
      t.yield();
    }
    for (auto& p : held) {
      if (p != nullptr) ua_.free(p);
    }
  });
  EXPECT_TRUE(ua_.check_consistency());
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(UAllocTest, CrossArenaFree) {
  // Allocate from arena 0's SM, free from a thread on the other SM: the
  // free must route to the owning arena via the chunk header.
  gpu::Device dev(test::small_device(2, 256, 1));
  std::atomic<void*> handoff{nullptr};
  std::atomic<int> phase{0};
  dev.launch(gpu::Dim3{2}, gpu::Dim3{1}, [&](gpu::ThreadCtx& t) {
    if (t.block_rank() == 0) {
      handoff.store(ua_.allocate(64), std::memory_order_release);
      phase.store(1, std::memory_order_release);
    } else {
      while (phase.load(std::memory_order_acquire) == 0) t.yield();
      void* p = handoff.load(std::memory_order_acquire);
      ASSERT_NE(p, nullptr);
      ua_.free(p);
    }
  });
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, CoalescedWarpAllocationsAreDistinct) {
  // Full warps allocating the same class exercise the coalesced path:
  // one semaphore wait / one grown bin per group. Every member must get
  // a distinct block, and all blocks free cleanly.
  gpu::Device dev(test::small_device());
  constexpr std::uint64_t kThreads = 2048;
  std::vector<std::atomic<void*>> slots(kThreads);
  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    void* p = ua_.allocate(64);
    ASSERT_NE(p, nullptr);
    std::memset(p, static_cast<int>(t.global_rank() & 0xff), 64);
    slots[t.global_rank()].store(p);
    t.yield();
    auto* c = static_cast<unsigned char*>(p);
    for (int i = 0; i < 64; ++i) {
      if (c[i] != (t.global_rank() & 0xff)) std::abort();
    }
  });
  std::set<void*> unique;
  for (auto& s : slots) {
    void* p = s.load();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(unique.insert(p).second) << "duplicate block";
  }
  for (auto& s : slots) ua_.free(s.load());
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, CoalescingTogglesOff) {
  ua_.set_coalescing(false);
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(1024, 64, [&](gpu::ThreadCtx& t) {
    void* p = ua_.allocate(32);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    t.yield();
    ua_.free(p);
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_TRUE(ua_.check_consistency());
  ua_.set_coalescing(true);
}

TEST_F(UAllocTest, CoalescedMixedWithIndividual) {
  // Half the lanes allocate a coalescable class (64 B), half a class too
  // small to coalesce (1 KB, capacity 3): groups and singletons interleave.
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(2048, 128, [&](gpu::ThreadCtx& t) {
    const std::size_t size = (t.lane_id() % 2 == 0) ? 64 : 1024;
    void* p = ua_.allocate(size);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    std::memset(p, 0x5E, size);
    t.yield();
    ua_.free(p);
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, HostThreadsFallbackPath) {
  // UAlloc works from plain OS threads too (arena chosen by thread hash).
  test::run_os_threads(4, [&](unsigned tid) {
    util::Xorshift rng(tid);
    std::vector<void*> held;
    for (int i = 0; i < 500; ++i) {
      if (!held.empty() && (rng.next() & 1)) {
        ua_.free(held.back());
        held.pop_back();
      } else {
        const std::size_t size = std::size_t{8} << rng.next_below(8);
        if (void* p = ua_.allocate(size)) held.push_back(p);
      }
    }
    for (void* p : held) ua_.free(p);
  });
  EXPECT_TRUE(ua_.check_consistency());
}

// ---------------------------------------------------------------------------
// The parked-block cache in front of UAlloc (docs/INTERNALS.md §4d)
//
// UAlloc caches nothing itself; the fixed lane in GpuAllocator parks freed
// blocks for every class. These tests pin the cache's contract at the
// UAlloc boundary. Most use the free-stocked classes (128 B..1 KiB), whose
// lanes are stocked by frees alone, so every cached block is one the test
// freed.
// ---------------------------------------------------------------------------

class LaneFrontTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPool = 16 * 1024 * 1024;
  LaneFrontTest()
      : ga_(HeapConfig{.pool_bytes = kPool,
                       .num_arenas = 2,
                       .heapsan = false,
                       .fixed_lane = true}) {}
  std::uint32_t lane_total(std::uint32_t cls) {
    std::uint32_t n = 0;
    for (std::uint32_t a = 0; a < ga_.ualloc().num_arenas(); ++a) {
      n += ga_.fixed_lane().lane_count(a, cls);
    }
    return n;
  }
  GpuAllocator ga_;
};

TEST_F(LaneFrontTest, HitReusesFreedBlockLifo) {
  for (std::size_t size : {128, 256, 512, 1024}) {
    void* p = ga_.malloc(size);
    ASSERT_NE(p, nullptr);
    const auto before = ga_.stats().lane;
    ga_.free(p);
    // The block parks on this thread's lane, bitmap bit still set.
    EXPECT_EQ(ga_.stats().lane.cached, before.cached + 1);
    void* q = ga_.malloc(size);
    EXPECT_EQ(q, p) << "LIFO lane must return the block just freed";
    const auto st = ga_.stats().lane;
    EXPECT_EQ(st.hits, before.hits + 1);
    EXPECT_EQ(st.cached, before.cached);
    EXPECT_EQ(st.refills, 0u) << "free-stocked classes never refill";
    ga_.free(q);
  }
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(LaneFrontTest, FreeStockedLaneBoundedAndRejectsWhenFull) {
  // 1 KiB class: bin capacity 3, so the lane caps at two bins = 6.
  // Freeing 10 blocks from one host thread parks 6; each push onto the
  // full lane frees that one block through the paper's free path.
  const std::uint32_t cls = size_class_of(1024);
  const std::uint32_t cap = fixed_lane_capacity(cls);
  ASSERT_FALSE(fixed_lane_slab_refilled(cls));
  ASSERT_EQ(cap, 6u);
  std::vector<void*> ptrs;
  for (int i = 0; i < 10; ++i) {
    void* p = ga_.malloc(1024);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  const std::uint64_t frees_before = ga_.stats().ualloc.frees;
  for (void* p : ptrs) ga_.free(p);
  const auto st = ga_.stats();
  EXPECT_EQ(st.lane.cached, cap);
  EXPECT_EQ(st.lane.spills, 10u - cap);
  EXPECT_EQ(st.lane.spill_blocks, 10u - cap);
  EXPECT_EQ(st.ualloc.frees - frees_before, 10u - cap);
  for (std::uint32_t a = 0; a < ga_.ualloc().num_arenas(); ++a) {
    EXPECT_LE(ga_.fixed_lane().lane_count(a, cls), cap);
  }
  EXPECT_EQ(lane_total(cls), cap);
  EXPECT_TRUE(ga_.check_consistency());  // validates cached-bit integrity
  EXPECT_EQ(ga_.release_cached(), cap);
  EXPECT_EQ(ga_.stats().lane.cached, 0u);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(LaneFrontTest, AccountingInvariantAfterFlush) {
  // A block is outside the bin accounting exactly while it is live or
  // lane-resident: UAlloc allocs - frees == live + cached at every
  // quiescent point, and once everything is freed and the lanes flushed
  // every block that left the bins has come back.
  util::Xorshift rng(11);
  std::vector<void*> held;
  for (int i = 0; i < 2000; ++i) {
    if (!held.empty() && (rng.next() & 1)) {
      ga_.free(held.back());
      held.pop_back();
    } else {
      const std::size_t size = std::size_t{8} << rng.next_below(8);
      if (void* p = ga_.malloc(size)) held.push_back(p);
    }
  }
  auto st = ga_.stats();
  EXPECT_EQ(st.ualloc.allocs - st.ualloc.frees, held.size() + st.lane.cached);
  for (void* p : held) ga_.free(p);
  ga_.release_cached();
  st = ga_.stats();
  EXPECT_EQ(st.lane.cached, 0u);
  EXPECT_EQ(st.ualloc.allocs, st.ualloc.frees);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(LaneFrontTest, LaneDisabledMatchesPaperPath) {
  ga_.set_fixed_lane(false);
  for (std::size_t size : {64, 128}) {
    void* p = ga_.malloc(size);
    ASSERT_NE(p, nullptr);
    ga_.free(p);
  }
  const auto st = ga_.stats();
  EXPECT_EQ(st.lane.hits, 0u);
  EXPECT_EQ(st.lane.misses, 0u);
  EXPECT_EQ(st.lane.cached, 0u);
  // Disabled means each free went straight through publish_free_block,
  // so the block is claimable again without any flush.
  EXPECT_EQ(st.ualloc.allocs, st.ualloc.frees);
  EXPECT_EQ(ga_.release_cached(), 0u);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(LaneFrontTest, DisablingLaneFlushesCachedBlocks) {
  void* p = ga_.malloc(128);
  ASSERT_NE(p, nullptr);
  ga_.free(p);
  ASSERT_EQ(ga_.stats().lane.cached, 1u);
  ga_.set_fixed_lane(false);
  const auto st = ga_.stats();
  EXPECT_EQ(st.lane.cached, 0u);
  EXPECT_EQ(st.lane.flushes, 1u);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(LaneFrontTest, CrossSmFreeParksOnFreeingSmsLane) {
  // Alloc on SM i, free on SM j: the block must land on SM j's lane (the
  // freeing SM reuses it locally next), never SM i's.
  gpu::Device dev(test::small_device(2, 256, 1));
  std::atomic<void*> handoff{nullptr};
  std::atomic<int> phase{0};
  std::atomic<std::uint32_t> alloc_sm{0}, free_sm{0};
  dev.launch(gpu::Dim3{2}, gpu::Dim3{1}, [&](gpu::ThreadCtx& t) {
    if (t.block_rank() == 0) {
      alloc_sm.store(t.sm_id());
      handoff.store(ga_.malloc(128), std::memory_order_release);
      phase.store(1, std::memory_order_release);
    } else {
      while (phase.load(std::memory_order_acquire) == 0) t.yield();
      free_sm.store(t.sm_id());
      void* p = handoff.load(std::memory_order_acquire);
      ASSERT_NE(p, nullptr);
      ga_.free(p);
    }
  });
  const std::uint32_t cls = size_class_of(128);
  const std::uint32_t arenas = ga_.ualloc().num_arenas();
  const std::uint32_t freeing_arena = free_sm.load() % arenas;
  EXPECT_EQ(ga_.fixed_lane().lane_count(freeing_arena, cls), 1u);
  if (alloc_sm.load() % arenas != freeing_arena) {
    EXPECT_EQ(ga_.fixed_lane().lane_count(alloc_sm.load() % arenas, cls),
              0u);
  }
  EXPECT_EQ(ga_.stats().lane.cached, 1u);
  EXPECT_TRUE(ga_.check_consistency());
  EXPECT_EQ(ga_.release_cached(), 1u);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(LaneFrontTest, HostThreadFreeOfDeviceAllocation) {
  // Device threads allocate; plain OS threads free. The host-side frees
  // park on hash-chosen lanes (or publish past the bound) and the
  // accounting still closes.
  gpu::Device dev(test::small_device());
  constexpr std::uint64_t kThreads = 512;
  std::vector<std::atomic<void*>> slots(kThreads);
  dev.launch_linear(kThreads, 64, [&](gpu::ThreadCtx& t) {
    slots[t.global_rank()].store(ga_.malloc(256));
  });
  const std::uint64_t frees_before = ga_.stats().ualloc.frees;
  test::run_os_threads(4, [&](unsigned tid) {
    for (std::uint64_t i = tid; i < kThreads; i += 4) {
      if (void* p = slots[i].load()) ga_.free(p);
    }
  });
  const std::uint32_t cls = size_class_of(256);
  const std::uint32_t cap = fixed_lane_capacity(cls);
  for (std::uint32_t a = 0; a < ga_.ualloc().num_arenas(); ++a) {
    EXPECT_LE(ga_.fixed_lane().lane_count(a, cls), cap);
  }
  const std::uint64_t cached = lane_total(cls);
  const auto st = ga_.stats();
  EXPECT_EQ(st.lane.cached, cached);
  EXPECT_EQ(st.frees, kThreads);
  EXPECT_EQ(st.lane.spill_blocks, kThreads - cached);
  EXPECT_EQ(st.ualloc.frees - frees_before, kThreads - cached);
  EXPECT_TRUE(ga_.check_consistency());
  ga_.release_cached();
  EXPECT_EQ(ga_.stats().lane.cached, 0u);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(LaneFrontTest, CoalescedWarpDrawsFromLaneFirst) {
  // Churn a full warp through alloc/free repeatedly: later rounds' pops
  // are satisfied by the lanes the earlier frees filled, so those threads
  // peel off before UAlloc's coalescing rendezvous, and the group that
  // does form is exactly as many blocks short as the lane provided.
  gpu::Device dev(test::small_device());
  dev.launch_linear(2048, 128, [&](gpu::ThreadCtx& t) {
    for (int round = 0; round < 4; ++round) {
      void* p = ga_.malloc(128);
      ASSERT_NE(p, nullptr);
      std::memset(p, 0xA5, 128);
      t.yield();
      ga_.free(p);
    }
  });
  const auto st = ga_.stats();
  EXPECT_GT(st.lane.hits, 0u);
  EXPECT_EQ(st.lane.refills, 0u);
  EXPECT_TRUE(ga_.check_consistency());
  ga_.release_cached();
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(LaneFrontTest, TrimFlushesLanes) {
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) {
    void* p = ga_.malloc(256);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) ga_.free(p);
  EXPECT_GT(ga_.stats().lane.cached, 0u);
  // trim() must flush the lanes first or cached blocks pin their bins
  // (and chunks) forever.
  ga_.trim();
  EXPECT_EQ(ga_.stats().lane.cached, 0u);
  EXPECT_EQ(ga_.buddy().largest_free_block(),
            test::expected_coalesced_block(ga_));
  EXPECT_TRUE(ga_.check_consistency());
}

TEST(UAllocArenaFallback, SingleChunkPoolServesAllArenas) {
  // Regression for the fig7 8 B anomaly: with a pool of exactly one chunk
  // and two arenas, whichever arena won the chunk race was the only one
  // that could ever allocate — chunks are arena-private, so every thread
  // routed to the losing arena failed while the pool sat mostly free
  // (the 8 B row showed a 67% failure rate against ~3% for its
  // neighbours). allocate() must sweep the sibling arenas before
  // reporting OOM.
  constexpr std::size_t kPool = kChunkSize;
  test::AlignedPool pool(kPool);
  TBuddy buddy(pool.get(), kPool);
  UAlloc ua(buddy, /*num_arenas=*/2);

  // Home arena 0 acquires the pool's only chunk.
  void* a0 = ua.allocate_from(0, 8);
  ASSERT_NE(a0, nullptr);
  // Arena 1 owns no chunk and cannot grow one; the fallback sweep must
  // serve it from arena 0's chunk instead of failing.
  void* a1 = ua.allocate_from(1, 8);
  ASSERT_NE(a1, nullptr);
  EXPECT_GE(ua.stats().arena_fallbacks, 1u);

  ua.free(a0);
  ua.free(a1);
  EXPECT_TRUE(ua.check_consistency());
}

}  // namespace
}  // namespace toma::alloc
