// FixedLane: the constant-time parked-block cache in front of every UAlloc
// class. Covers the lane's O(1) hit path, the slab-refilled classes'
// (8..64 B) slab-grained refill and spill hysteresis, the free-stocked
// classes' (128 B..1 KiB) no-refill policy, the claimed-while-cached
// invariant (trim/flush drain, truthful exhaustion), cross-SM
// free-to-foreign-lane handoff, and the full front-end toggle matrix. The
// free-stocked bound and the UAlloc-boundary accounting live in
// ualloc_test.cpp; the stream-ordered interplay in stream_async_test.cpp
// (lane routing of 8..64 B async frees); the OS-thread/TSan leg in
// integration/host_stress_test.cpp.
#include "alloc/fixed_lane.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "gpusim/this_thread.hpp"
#include "support/test_support.hpp"
#include "util/prng.hpp"

namespace toma::alloc {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

TEST(FixedLane, GeometryConstants) {
  // 8, 16, 32, 64 B are slab-refilled; 128 B..1 KiB are free-stocked,
  // capped at two bins' worth.
  for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
    EXPECT_EQ(fixed_lane_slab_refilled(c),
              size_of_class(c) <= kFixedLaneSlabMaxSize);
    if (!fixed_lane_slab_refilled(c)) {
      EXPECT_EQ(fixed_lane_capacity(c), 2 * bin_capacity(c));
    }
  }
  EXPECT_EQ(kFixedLaneSlabMaxSize, 64u);
  for (std::uint32_t c = 0; c <= size_class_of(kFixedLaneSlabMaxSize); ++c) {
    // A refill slab must fit the capacity bound with room for concurrent
    // frees (the hysteresis drains to low water, which sits above the
    // refill size so a fresh slab is never immediately spilled back).
    EXPECT_LE(fixed_lane_refill(c), fixed_lane_low_water(c));
    EXPECT_LT(fixed_lane_low_water(c), fixed_lane_capacity(c));
    EXPECT_LE(fixed_lane_refill(c), kFixedLaneMaxRefill);
    // The proactive top-up trigger sits below the refill target, so a
    // top-up always has room to restock before the next spill crossing.
    EXPECT_GT(fixed_lane_top_trigger(c), 0u);
    EXPECT_LT(fixed_lane_top_trigger(c), fixed_lane_low_water(c));
    // The refill loop can reach the low-water target within its batch
    // ceiling (otherwise every gated refill would stop short).
    EXPECT_GE(kFixedLaneRefillBatches * fixed_lane_refill(c),
              fixed_lane_low_water(c) + 1);
  }
}

TEST(FixedLane, MissRefillsSlabThenHitsLifo) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .fixed_lane = true});
  ASSERT_TRUE(ga.fixed_lane_enabled());
  const std::uint32_t cls = size_class_of(16);
  const std::uint32_t want = fixed_lane_refill(cls);
  // A solo (host) miss refills until the lane reaches the low-water
  // target: after b batches the lane holds b*want - 1 (one block went to
  // the caller), so the loop runs ceil((target + 1) / want) batches.
  const std::uint32_t target = fixed_lane_low_water(cls);
  const std::uint32_t batches = (target + 1 + want - 1) / want;

  // First allocation: a miss that buys whole slabs, one bulk-semaphore
  // transaction each.
  void* p1 = ga.malloc(16);
  ASSERT_NE(p1, nullptr);
  auto st = ga.stats();
  EXPECT_EQ(st.lane.hits, 0u);
  EXPECT_EQ(st.lane.misses, 1u);
  EXPECT_EQ(st.lane.refills, batches);
  EXPECT_EQ(st.lane.refill_blocks, batches * want);
  EXPECT_EQ(st.lane.cached, batches * want - 1);
  // The batches left UAlloc through the ordinary accounting boundary.
  EXPECT_EQ(st.ualloc.allocs, batches * want);

  // Free caches on the lane; the next malloc pops it back, LIFO. (The
  // lane sits well above the top-up trigger, so the pop stays a pure hit.)
  ga.free(p1);
  st = ga.stats();
  EXPECT_EQ(st.lane.cached, batches * want);
  void* p2 = ga.malloc(16);
  EXPECT_EQ(p2, p1);
  st = ga.stats();
  EXPECT_EQ(st.lane.hits, 1u);
  EXPECT_EQ(st.lane.misses, 1u);  // still just the initial refill

  ga.free(p2);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(FixedLane, FreeStockedClassesNeverRefill) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .fixed_lane = true});
  // TBuddy sizes never see the lane.
  void* big = ga.malloc(4096);
  ASSERT_NE(big, nullptr);
  ga.free(big);
  EXPECT_EQ(ga.stats().lane.hits + ga.stats().lane.misses, 0u);

  // 128 B..1 KiB: a miss falls through to UAlloc without a slab, the free
  // parks the block, and the next malloc pops it back.
  for (std::size_t size : {128, 256, 512, 1024}) {
    void* p = ga.malloc(size);
    ASSERT_NE(p, nullptr);
    ga.free(p);
    EXPECT_EQ(ga.malloc(size), p);
    ga.free(p);
  }
  const auto st = ga.stats();
  EXPECT_EQ(st.lane.misses, 4u);
  EXPECT_EQ(st.lane.hits, 4u);
  EXPECT_EQ(st.lane.refills + st.lane.topups, 0u);
  EXPECT_EQ(st.lane.cached, 4u);
  EXPECT_EQ(st.ualloc.allocs, 4u);  // one block per class left the bins
  EXPECT_TRUE(ga.check_consistency());
}

TEST(FixedLane, SpillHysteresisBoundsLaneOccupancy) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .fixed_lane = true});
  const std::uint32_t cls = size_class_of(64);
  const std::uint32_t cap = fixed_lane_capacity(cls);

  // Hold three capacities' worth of live 64 B blocks, then free them all
  // from this one thread: the pushes must repeatedly cross the high water
  // and drain back to the low-water mark — never past the bound.
  std::vector<void*> held;
  std::set<void*> seen;
  for (std::uint32_t i = 0; i < 3 * cap; ++i) {
    void* p = ga.malloc(64);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate address";
    held.push_back(p);
  }
  for (void* p : held) ga.free(p);

  const auto st = ga.stats();
  EXPECT_GE(st.lane.spills, 2u);
  EXPECT_GT(st.lane.spill_blocks, 0u);
  EXPECT_LE(st.lane.cached, static_cast<std::uint64_t>(cap));
  EXPECT_TRUE(ga.check_consistency());  // re-checks every lane's bound

  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(FixedLane, TrimDrainsLanes) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .fixed_lane = true});
  std::vector<void*> held;
  for (int i = 0; i < 100; ++i) {
    void* p = ga.malloc(8);
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  for (void* p : held) ga.free(p);
  ASSERT_GT(ga.stats().lane.cached, 0u);

  // Lane-resident blocks pin their bins (claimed-while-cached); trim must
  // drain the lanes first or the pool could never coalesce.
  ga.trim();
  const auto st = ga.stats();
  EXPECT_EQ(st.lane.cached, 0u);
  EXPECT_GT(st.lane.flushes, 0u);
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  EXPECT_TRUE(ga.check_consistency());
}

TEST(FixedLane, RuntimeToggleFlushesAndReroutes) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .fixed_lane = true});
  void* p = ga.malloc(32);
  ASSERT_NE(p, nullptr);
  ga.free(p);
  ASSERT_GT(ga.stats().lane.cached, 0u);

  // Disabling flushes every cached block back into the bin accounting.
  ga.set_fixed_lane(false);
  EXPECT_FALSE(ga.fixed_lane_enabled());
  auto st = ga.stats();
  EXPECT_EQ(st.lane.cached, 0u);
  EXPECT_GT(st.lane.flushes, 0u);

  // While off, small allocations take the ordinary path: no lane traffic.
  const std::uint64_t hits = st.lane.hits;
  const std::uint64_t misses = st.lane.misses;
  void* q = ga.malloc(32);
  ASSERT_NE(q, nullptr);
  ga.free(q);
  st = ga.stats();
  EXPECT_EQ(st.lane.hits, hits);
  EXPECT_EQ(st.lane.misses, misses);
  EXPECT_EQ(st.lane.cached, 0u);

  // Re-enabling restores the fast path.
  ga.set_fixed_lane(true);
  void* r = ga.malloc(32);
  ASSERT_NE(r, nullptr);
  ga.free(r);
  st = ga.stats();
  EXPECT_GT(st.lane.hits + st.lane.misses, hits + misses);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(FixedLane, ToggleMatrixChurn) {
  // The lane must compose with every front-end configuration: buddy
  // quicklists and HeapSan each ON/OFF, with the lane ON and OFF.
  // (stream_async is a compile-time pool toggle; its lane interplay is
  // covered in stream_async_test.cpp and the CI feature-OFF legs.)
  for (int mask = 0; mask < 8; ++mask) {
    const bool lane_on = (mask & 1) != 0;
    const bool quick = (mask & 2) != 0;
    const bool hsan = (mask & 4) != 0;
    SCOPED_TRACE(::testing::Message() << "lane=" << lane_on
                                      << " quicklist=" << quick
                                      << " heapsan=" << hsan);
    GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                               .num_arenas = 2,
                               .heapsan = hsan,
                               .quicklist = quick,
                               .fixed_lane = lane_on});
    test::run_os_threads(4, [&](unsigned tid) {
      util::Xorshift rng(tid * 977 + mask);
      void* held[4] = {};
      std::size_t sizes[4] = {};
      for (int i = 0; i < 800; ++i) {
        const int slot = static_cast<int>(rng.next_below(4));
        if (held[slot] != nullptr) {
          auto* c = static_cast<unsigned char*>(held[slot]);
          ASSERT_EQ(c[0], 0x42);
          ASSERT_EQ(c[sizes[slot] - 1], 0x24);
          ga.free(held[slot]);
          held[slot] = nullptr;
        }
        // Mostly slab-refilled sizes, with free-stocked excursions.
        const std::size_t size = std::size_t{8} << rng.next_below(6);
        void* p = ga.malloc(size);
        if (p != nullptr) {
          auto* c = static_cast<unsigned char*>(p);
          c[0] = 0x42;
          c[size - 1] = 0x24;
          held[slot] = p;
          sizes[slot] = size;
        }
      }
      for (void* p : held) {
        if (p != nullptr) ga.free(p);
      }
    });
    const auto st = ga.stats();
    if (!lane_on) {
      EXPECT_EQ(st.lane.hits + st.lane.misses, 0u);
      EXPECT_EQ(st.lane.cached, 0u);
    } else {
      EXPECT_GT(st.lane.misses, 0u);  // the lane actually engaged
    }
    EXPECT_TRUE(ga.check_consistency());
    ga.trim();
    EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
    EXPECT_EQ(ga.stats().lane.cached, 0u);
  }
}

TEST(FixedLane, CrossSmFreeLandsOnFreeingSmLane) {
  // Producer threads on SM 0 allocate; consumers on SM 1 free. The frees
  // must cache on the *freeing* SM's lane, and the
  // next SM-1 allocations must recycle exactly those blocks.
  gpu::Device dev(test::small_device(2, 512, 1));
  alloc::GpuAllocator ga(HeapConfig{.pool_bytes = 16 * kMiB,
                                    .num_arenas = 2,
                                    .heapsan = false,
                             .fixed_lane = true});
  constexpr std::uint32_t kN = 64;
  constexpr std::size_t kSize = 32;
  const std::uint32_t cls = size_class_of(kSize);
  ASSERT_LT(kN, fixed_lane_low_water(cls));  // no spill interferes

  std::vector<std::atomic<void*>> slots(kN);
  std::atomic<std::uint32_t> claimed{0};

  // Phase A: the first kN threads on SM 0 allocate.
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_hash(2) != 0) return;
    const std::uint32_t i = claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= kN) return;
    void* p = ga.malloc(kSize);
    if (p != nullptr) std::memset(p, 0x5A, kSize);
    slots[i].store(p, std::memory_order_release);
  });
  ASSERT_GE(claimed.load(), kN) << "SM 0 hosted too few threads";
  std::set<void*> produced;
  for (auto& s : slots) {
    ASSERT_NE(s.load(), nullptr);
    produced.insert(s.load());
  }
  const std::uint32_t sm0_before = ga.fixed_lane().lane_count(0, cls);
  ASSERT_EQ(ga.fixed_lane().lane_count(1, cls), 0u);

  // Phase B: the first kN threads on SM 1 free them.
  claimed.store(0);
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_hash(2) != 1) return;
    const std::uint32_t i = claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= kN) return;
    void* p = slots[i].exchange(nullptr);
    auto* c = static_cast<unsigned char*>(p);
    if (c[0] != 0x5A || c[kSize - 1] != 0x5A) std::abort();
    ga.free(p);
  });
  ASSERT_GE(claimed.load(), kN) << "SM 1 hosted too few threads";
  EXPECT_EQ(ga.fixed_lane().lane_count(1, cls), kN);
  EXPECT_EQ(ga.fixed_lane().lane_count(0, cls), sm0_before);

  // Phase C: SM 1 reallocates — every block must come from its own lane.
  const std::uint64_t hits_before = ga.stats().lane.hits;
  claimed.store(0);
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_hash(2) != 1) return;
    const std::uint32_t i = claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= kN) return;
    slots[i].store(ga.malloc(kSize), std::memory_order_release);
  });
  // The drain dips below the top-up trigger, so the first popper restocks
  // the lane proactively — it ends re-stocked, not empty. The recycling
  // proof below is the real invariant: every *produced* block popped out
  // before the top-up's fresh blocks landed on top.
  EXPECT_GE(ga.stats().lane.topups, 1u);
  EXPECT_LE(ga.fixed_lane().lane_count(1, cls), fixed_lane_capacity(cls));
  EXPECT_GE(ga.stats().lane.hits - hits_before, kN);
  std::set<void*> recycled;
  for (auto& s : slots) {
    ASSERT_NE(s.load(), nullptr);
    recycled.insert(s.load());
  }
  EXPECT_EQ(recycled, produced) << "SM 1 did not recycle the freed blocks";

  for (auto& s : slots) ga.free(s.load());
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(FixedLane, ExhaustionYieldsSameCapacityAcrossRounds) {
  // The lane must not shrink the pool's effective capacity: a second
  // allocate-to-exhaustion round through lane-cached blocks must reach
  // exactly the same count as the first round on a fresh pool.
  GpuAllocator ga(HeapConfig{.pool_bytes = 512 * 1024,
                             .num_arenas = 2,
                             .heapsan = false,
                             .fixed_lane = true});
  const auto fill = [&](std::vector<void*>& out) {
    while (void* p = ga.malloc(64)) out.push_back(p);
  };
  std::vector<void*> round1;
  fill(round1);
  ASSERT_GT(round1.size(), 1000u);
  for (void* p : round1) ga.free(p);

  std::vector<void*> round2;
  fill(round2);
  EXPECT_EQ(round2.size(), round1.size())
      << "lane caching changed the pool's effective capacity";
  for (void* p : round2) ga.free(p);

  ga.trim();
  EXPECT_EQ(ga.stats().lane.cached, 0u);
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  EXPECT_TRUE(ga.check_consistency());
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
}

TEST(FixedLane, OomFlushRetryMakesForeignLaneBlocksReachable) {
  // Exhaustion-truthfulness proof: blocks cached on SM 1's lane are, to
  // the bins, still allocated — SM 0's refill and single-block paths both
  // find nothing. malloc's zero-block lane flush + retry must republish
  // them, so the pool never reports OOM while lanes hold memory.
  gpu::Device dev(test::small_device(2, 512, 1));
  alloc::GpuAllocator ga(HeapConfig{.pool_bytes = 512 * 1024,
                                    .num_arenas = 2,
                                    .heapsan = false,
                             .fixed_lane = true});
  std::vector<void*> held;
  held.reserve(16 * 1024);
  std::atomic<std::uint32_t> claimed{0};

  // Phase 1: one SM-0 thread exhausts the pool at 64 B.
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_hash(2) != 0) return;
    if (claimed.fetch_add(1, std::memory_order_relaxed) != 0) return;
    while (void* p = ga.malloc(64)) held.push_back(p);
  });
  ASSERT_GT(held.size(), 1000u);
  ASSERT_EQ(ga.stats().lane.cached, 0u);  // exhaustion drained every lane

  // Phase 2: one SM-1 thread frees a handful — they cache on SM 1's lane.
  constexpr std::uint32_t kFreed = 32;
  const std::uint32_t cls = size_class_of(64);
  ASSERT_LT(kFreed, fixed_lane_low_water(cls));
  claimed.store(0);
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_hash(2) != 1) return;
    if (claimed.fetch_add(1, std::memory_order_relaxed) != 0) return;
    for (std::uint32_t i = 0; i < kFreed; ++i) {
      ga.free(held.back());
      held.pop_back();
    }
  });
  ASSERT_EQ(ga.fixed_lane().lane_count(1, cls), kFreed);

  // Phase 3: one SM-0 thread allocates kFreed blocks. Its own lane is
  // empty and the bins are full, so only the flush retry can serve these.
  std::atomic<std::uint32_t> got{0};
  claimed.store(0);
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_hash(2) != 0) return;
    if (claimed.fetch_add(1, std::memory_order_relaxed) != 0) return;
    for (std::uint32_t i = 0; i < kFreed; ++i) {
      if (void* p = ga.malloc(64)) {
        held.push_back(p);
        got.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(got.load(), kFreed)
      << "OOM reported while lane-cached blocks existed";
  EXPECT_GE(ga.stats().lane.flushes, static_cast<std::uint64_t>(kFreed));

  for (void* p : held) ga.free(p);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
}

}  // namespace
}  // namespace toma::alloc
