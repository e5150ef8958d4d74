// Sharded-counter semantics: aggregation, thread-owned shards for host
// threads and for fibers on gpusim workers, slot reuse across launches,
// the overflow shard, exact totals under migrating fibers and OS
// threads, and CounterSet export through the registry.
#include "obs/counter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <bit>

#include "alloc/allocator.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "support/test_support.hpp"

namespace toma::obs {
namespace {

TEST(Counter, StartsAtZeroAndAggregates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(5);
  c.inc();
  EXPECT_EQ(c.value(), 6u);
}

TEST(Counter, HostThreadsLandOnStableShards) {
  // Each host thread owns a shard for its lifetime: every bump it makes
  // lands on the shard its slot names, so that shard holds exactly its
  // contribution. The barrier keeps all four alive (and their slots
  // distinct) until each has checked.
  Counter c;
  std::barrier sync(4);
  std::atomic<unsigned> exact{0};
  test::run_os_threads(4, [&](unsigned i) {
    const std::uint64_t mine = 1000 * (i + 1);
    for (std::uint64_t k = 0; k < mine; ++k) c.inc();
    sync.arrive_and_wait();
    const std::uint32_t s = thread_slot();
    if (s < kOwnedSlots && c.shard_value(s) == mine) exact.fetch_add(1);
    sync.arrive_and_wait();
  });
  EXPECT_EQ(exact.load(), 4u);
  EXPECT_EQ(c.value(), 10000u);
}

TEST(Counter, KernelFibersShardByWorkerThread) {
  // Fibers bump the shard of the OS worker running them at that moment:
  // tallying thread_slot() next to each bump (no yield in between) must
  // reproduce the per-shard values exactly, on at most one shard per
  // worker.
  Counter c;
  constexpr std::uint32_t kWorkers = 2;
  gpu::Device dev(test::small_device(/*num_sms=*/2, 512, kWorkers));
  constexpr std::uint64_t kThreads = 512;
  std::atomic<std::uint64_t> tally[Counter::shard_count()] = {};
  dev.launch_linear(kThreads, 64, [&](gpu::ThreadCtx& t) {
    (void)t;
    c.inc();
    tally[thread_slot()].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(c.value(), kThreads);
  std::uint32_t used = 0;
  for (std::uint32_t s = 0; s < Counter::shard_count(); ++s) {
    EXPECT_EQ(c.shard_value(s), tally[s].load()) << "shard " << s;
    if (c.shard_value(s) != 0) ++used;
  }
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, kWorkers);
}

TEST(Counter, FibersYieldingBetweenBumpsAreExact) {
  // Fibers migrate between the four workers at every yield; each bump
  // re-reads the slot, so the single-writer shards never lose an update.
  Counter c;
  Histogram h;
  CounterSet set({"", ""});
  gpu::Device dev(test::small_device(/*num_sms=*/4, 512, /*workers=*/4));
  constexpr std::uint64_t kThreads = 2048;
  constexpr std::uint64_t kRounds = 4;
  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      c.inc();
      gpu::this_thread::yield();
      h.record(r + 1);
      set.inc(0);
      gpu::this_thread::yield();
      set.add(1, t.global_rank() & 1);
    }
  });
  EXPECT_EQ(c.value(), kThreads * kRounds);
  const HistogramSnapshot hs = h.snapshot();
  EXPECT_EQ(hs.count, kThreads * kRounds);
  EXPECT_EQ(hs.sum, kThreads * (1 + 2 + 3 + 4));
  EXPECT_EQ(hs.min, 1u);
  EXPECT_EQ(hs.max, kRounds);
  EXPECT_EQ(set.value(0), kThreads * kRounds);
  EXPECT_EQ(set.value(1), kThreads / 2 * kRounds);
}

TEST(Shards, WorkerSlotsAreReusedAcrossLaunches) {
  // gpusim spawns its workers per launch; each returns its slot at
  // thread exit, so launch after launch lands on the same few shards and
  // no lease outlives its thread.
  const std::uint32_t leased_before = leased_slots();
  Counter c;
  Histogram h;
  constexpr std::uint32_t kWorkers = 4;
  gpu::Device dev(test::small_device(/*num_sms=*/4, 512, kWorkers));
  constexpr std::uint64_t kThreads = 256;
  constexpr int kLaunches = 8;
  std::atomic<std::uint64_t> seen{0};  // bit s: slot s ran a fiber
  for (int l = 0; l < kLaunches; ++l) {
    dev.launch_linear(kThreads, 64, [&](gpu::ThreadCtx&) {
      c.inc();
      h.record(1);
      seen.fetch_or(std::uint64_t{1} << thread_slot(),
                    std::memory_order_relaxed);
    });
    EXPECT_EQ(leased_slots(), leased_before) << "launch " << l;
  }
  EXPECT_EQ(c.value(), kThreads * kLaunches);
  EXPECT_EQ(h.snapshot().count, kThreads * kLaunches);
  EXPECT_LE(std::popcount(seen.load()), static_cast<int>(kWorkers));
}

TEST(Shards, MoreLiveThreadsThanShardsShareTheOverflowShard) {
  // 80 threads alive at once outnumber the owned slots: the excess share
  // the overflow shard (fetch_add there), and every total stays exact.
  constexpr unsigned kThreads = 80;
  constexpr std::uint64_t kBumps = 1000;
  static_assert(kThreads > kOwnedSlots);
  const std::uint32_t leased_before = leased_slots();
  Counter c;
  Histogram h;
  CounterSet set({""});
  std::barrier all_leased(kThreads);
  test::run_os_threads(kThreads, [&](unsigned i) {
    for (std::uint64_t k = 0; k < kBumps; ++k) {
      c.inc();
      set.inc(0);
    }
    for (std::uint64_t k = 0; k < 10; ++k) h.record(i);
    all_leased.arrive_and_wait();
  });
  EXPECT_EQ(c.value(), kThreads * kBumps);
  EXPECT_EQ(set.value(0), kThreads * kBumps);
  const HistogramSnapshot hs = h.snapshot();
  EXPECT_EQ(hs.count, kThreads * 10);
  EXPECT_EQ(hs.sum, 10u * (kThreads - 1) * kThreads / 2);
  EXPECT_EQ(hs.min, 0u);
  EXPECT_EQ(hs.max, kThreads - 1);
  EXPECT_GE(c.shard_value(kOverflowSlot), (kThreads - kOwnedSlots) * kBumps);
  EXPECT_EQ(leased_slots(), leased_before);
}

TEST(Counter, ConcurrentFibersAndHostThreadsDontLose) {
  Counter c;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> host_bumps{0};
  std::thread host([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      c.inc();
      host_bumps.fetch_add(1, std::memory_order_relaxed);
    }
  });
  gpu::Device dev(test::small_device());
  constexpr std::uint64_t kThreads = 2048;
  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    c.inc();
    if ((t.global_rank() & 7) == 0) gpu::this_thread::yield();
    c.inc();
  });
  stop.store(true);
  host.join();
  EXPECT_EQ(c.value(), 2 * kThreads + host_bumps.load());
}

TEST(CounterVec, ClampsOutOfRangeIndices) {
  CounterVec v(4);
  v.at(0).inc();
  v.at(3).inc();
  v.at(99).inc();  // clamps to last
  EXPECT_EQ(v.get(0).value(), 1u);
  EXPECT_EQ(v.get(3).value(), 2u);
  EXPECT_EQ(v.width(), 4u);
}

TEST(Registry, HandlesAreStableAndFindOrCreate) {
  Registry r;
  Counter& a = r.counter("test.a");
  Counter& a2 = r.counter("test.a");
  EXPECT_EQ(&a, &a2);
  a.add(3);
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counters.at("test.a"), 3u);
}

TEST(Registry, SnapshotDiffSubtracts) {
  Registry r;
  r.counter("d.x").add(10);
  const Snapshot before = r.snapshot();
  r.counter("d.x").add(7);
  r.counter("d.y").inc();
  const Snapshot delta = r.snapshot().diff_since(before);
  EXPECT_EQ(delta.counters.at("d.x"), 7u);
  EXPECT_EQ(delta.counters.at("d.y"), 1u);
}

TEST(CounterSet, CountsAreIndependentAndStartAtZero) {
  CounterSet set({"", "", ""});
  EXPECT_EQ(set.size(), 3u);
  set.inc(0);
  set.add(2, 5);
  EXPECT_EQ(set.value(0), 1u);
  EXPECT_EQ(set.value(1), 0u);
  EXPECT_EQ(set.value(2), 5u);
}

#if TOMA_TELEMETRY
TEST(CounterSet, RegistryExportsLiveSumPlusRetiredTotals) {
  const Snapshot before = registry().snapshot();
  const auto delta = [&](const char* name) -> std::uint64_t {
    const Snapshot d = registry().snapshot().diff_since(before);
    const auto it = d.counters.find(name);
    return it == d.counters.end() ? 0 : it->second;
  };
  {
    CounterSet a({"test.set.x", ""});
    CounterSet b({"test.set.x", "test.set.y"});
    a.add(0, 3);
    a.add(1, 100);  // unnamed: stats()-only, never exported
    b.add(0, 4);
    b.inc(1);
    EXPECT_EQ(delta("test.set.x"), 7u);
    EXPECT_EQ(delta("test.set.y"), 1u);
  }
  // Destroyed sets fold into the retired totals: values stay cumulative.
  EXPECT_EQ(delta("test.set.x"), 7u);
  EXPECT_EQ(delta("test.set.y"), 1u);
  CounterSet c({"test.set.x"});
  c.inc(0);
  EXPECT_EQ(delta("test.set.x"), 8u);
}

TEST(CounterSet, RegistryTotalsSurviveAllocatorDestruction) {
  // Allocator layers count each event once, per instance; the registry
  // sees the same counts while the allocator lives and keeps them after
  // it is gone.
  const Snapshot before = registry().snapshot();
  const auto delta = [&](const char* name) -> std::uint64_t {
    const Snapshot d = registry().snapshot().diff_since(before);
    const auto it = d.counters.find(name);
    return it == d.counters.end() ? 0 : it->second;
  };
  alloc::GpuAllocatorStats st;
  {
    alloc::GpuAllocator ga(16 * 1024 * 1024, 2);
    for (int i = 0; i < 200; ++i) {
      void* small = ga.malloc(32);
      void* large = ga.malloc(64 * 1024);
      ga.free(small);
      ga.free(large);
    }
    st = ga.stats();
    EXPECT_EQ(delta("alloc.malloc"), st.mallocs);
    EXPECT_EQ(delta("ualloc.lane.hit"), st.lane.hits);
    EXPECT_EQ(delta("tbuddy.quicklist.hit"), st.buddy.quicklist_hits);
  }
  EXPECT_EQ(st.mallocs, 400u);
  EXPECT_EQ(delta("alloc.malloc"), st.mallocs);
  EXPECT_EQ(delta("alloc.free"), st.frees);
  EXPECT_EQ(delta("ualloc.lane.hit"), st.lane.hits);
  EXPECT_EQ(delta("ualloc.lane.miss"), st.lane.misses);
  EXPECT_EQ(delta("tbuddy.quicklist.hit"), st.buddy.quicklist_hits);
  EXPECT_EQ(delta("tbuddy.split"), st.buddy.splits);
  EXPECT_EQ(delta("ualloc.bin_create"), st.ualloc.bins_created);
}
#endif

#if TOMA_TELEMETRY
TEST(Macros, CounterMacroHitsGlobalRegistry) {
  const Snapshot before = registry().snapshot();
  for (int i = 0; i < 5; ++i) TOMA_CTR_INC("test.macro_counter");
  TOMA_CTR_ADD("test.macro_counter", 10);
  TOMA_CTRV_INC("test.macro_vec", 3, 1);
  const Snapshot delta = registry().snapshot().diff_since(before);
  EXPECT_EQ(delta.counters.at("test.macro_counter"), 15u);
  EXPECT_EQ(delta.counters.at("test.macro_vec[1]"), 1u);
}
#endif

}  // namespace
}  // namespace toma::obs
