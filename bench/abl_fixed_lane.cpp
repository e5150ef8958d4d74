// Ablation A10 — the fixed lane, the constant-time parked-block cache in
// front of every UAlloc class (docs/INTERNALS.md §4d, EXPERIMENTS.md A10;
// after Blelloch & Wei, arXiv:2008.04296).
//
// Workload: small-block churn through the full GpuAllocator facade. Every
// thread keeps a ring of live blocks and repeatedly frees the oldest slot
// and allocates a replacement of the same size — the malloc-follows-free
// pattern where the lane turns both operations into one O(1) lane-stack
// push/pop. With the lane ON a slab-refilled class (8..64 B) buys a whole
// slab per miss in one bulk-semaphore transaction; OFF routes every
// operation through the bulk-semaphore/RCU bin path (the paper's exact
// front-end).
//
// Protocol: sizes x thread counts, lane on vs off on the same device and
// pool geometry; report churn ops/s (one op = a free or a malloc), the
// on/off speedup, and the lane hit rate. 128 B rides along as the
// free-stocked policy (stocked by frees only, no slab refill).
// Acceptance: the lane must engage (hit% > 50) and never lose to the
// paper's path (speedup >= 1.0x within noise); the lane's headline
// effect at 8..64 B is fig7's cold exhaustion sweep (no frees to
// recycle, where refill batching is the whole story).
#include <atomic>
#include <cinttypes>
#include <memory>

#include "alloc/alloc.hpp"
#include "common/harness.hpp"

namespace toma::bench {
namespace {

constexpr std::uint32_t kDepth = 4;

struct Out {
  double rate;     // churn ops (malloc+free) per second
  double hit_pct;  // lane hits / (hits + misses), in percent
};

Out run(gpu::Device& dev, const Options& opt, std::size_t size,
        std::uint64_t threads, bool lane_on,
        std::uint32_t refill_depth = 0) {
  const std::uint32_t rounds = opt.full ? 128 : 32;
  // Live set = threads * kDepth * size; x4 slack keeps exhaustion (a
  // different ablation's subject) out of the measurement.
  std::size_t pool_bytes = util::round_up_pow2(threads * kDepth * size * 4);
  if (pool_bytes < (32u << 20)) pool_bytes = 32u << 20;
  auto ga = std::make_unique<alloc::GpuAllocator>(
      alloc::HeapConfig{.pool_bytes = pool_bytes,
                        .num_arenas = opt.num_sms,
                        .fixed_lane_refill_depth = refill_depth,
                        .heapsan = false,
                        .fixed_lane = lane_on});

  const alloc::GpuAllocatorStats before = ga->stats();
  const double secs = time_launch(
      dev, threads, opt.block_sizes.front(),
      [&ga, threads, size, rounds](gpu::ThreadCtx& t) {
        if (t.global_rank() >= threads) return;
        void* slots[kDepth] = {};
        for (std::uint32_t r = 0; r < rounds; ++r) {
          const std::uint32_t i = r % kDepth;
          if (slots[i] != nullptr) ga->free(slots[i]);
          slots[i] = ga->malloc(size);
        }
        for (std::uint32_t i = 0; i < kDepth; ++i) {
          if (slots[i] != nullptr) ga->free(slots[i]);
        }
      });
  const alloc::GpuAllocatorStats after = ga->stats();

  const std::uint64_t hits = after.lane.hits - before.lane.hits;
  const std::uint64_t misses = after.lane.misses - before.lane.misses;
  // Each round is one malloc plus (except the first kDepth rounds) one
  // free; the drain adds the deferred frees back: ops = 2 * rounds/thread.
  return Out{static_cast<double>(2ull * rounds * threads) / secs,
             hits + misses == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(hits) /
                       static_cast<double>(hits + misses)};
}

int main_impl(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  gpu::Device dev(opt.device_config());

  std::vector<std::uint64_t> thread_counts{2048, 8192};
  if (opt.quick) thread_counts = {2048};
  if (opt.full) thread_counts.push_back(16384);

  util::Table table("Ablation A10: fixed-size fast lane on/off (churn)");
  table.set_header({"size", "threads", "on (ops/s)", "off (ops/s)", "speedup",
                    "on hit%"});
  // 128 B exercises the free-stocked policy: no refill, frees stock it.
  for (std::size_t size : {8, 16, 32, 64, 128}) {
    for (std::uint64_t threads : thread_counts) {
      const Out on = run(dev, opt, size, threads, true);
      const Out off = run(dev, opt, size, threads, false);
      table.add(util::eng_format(static_cast<double>(size)) + "B", threads,
                on.rate, off.rate, on.rate / off.rate, on.hit_pct);
      std::printf("  size=%zu threads=%" PRIu64 " on=%.3g off=%.3g "
                  "speedup=%.2fx hit=%.1f%%\n",
                  size, threads, on.rate, off.rate, on.rate / off.rate,
                  on.hit_pct);
    }
  }
  // Refill-depth arm: the hottest lane class (64 B) swept over explicit
  // slab depths, decoupled from the bin capacity. The "size" cell carries
  // the depth ("64B/d128") so the 6-column schema — and the smoke checks
  // keyed on it — is unchanged. Diminishing returns past the point where
  // one slab outlives a lane drain localize the knob's useful range.
  for (std::uint32_t depth : {64u, 128u, 256u}) {
    for (std::uint64_t threads : thread_counts) {
      const Out on = run(dev, opt, 64, threads, true, depth);
      const Out off = run(dev, opt, 64, threads, false, depth);
      table.add("64B/d" + std::to_string(depth), threads, on.rate, off.rate,
                on.rate / off.rate, on.hit_pct);
      std::printf("  size=64 depth=%u threads=%" PRIu64 " on=%.3g off=%.3g "
                  "speedup=%.2fx hit=%.1f%%\n",
                  depth, threads, on.rate, off.rate, on.rate / off.rate,
                  on.hit_pct);
    }
  }
  finish_table(opt, table);
  return 0;
}

}  // namespace
}  // namespace toma::bench

int main(int argc, char** argv) { return toma::bench::main_impl(argc, argv); }
