// Ablation A12 — incremental (live) defrag vs sync-point runs vs no
// compaction, under concurrent allocator traffic (docs/INTERNALS.md §8,
// EXPERIMENTS.md A12).
//
// The question A11 (abl_vmm_frag) leaves open: the sync mode recovers
// density, but only by running the compactor to convergence at a sync
// point — what does compaction cost when the heap CANNOT stop? Three
// arms, identical geometry, allocation sequence and engine:
//
//   off          shrink-only baseline (trim at sync points, no moves)
//   sync         the compactor run to convergence at the periodic sync
//                points
//   incremental  bounded defrag_step slices piggybacked on the async
//                surface while traffic keeps flowing (two-phase
//                prepare/commit hooks, forwarding for in-flight frees)
//
// Workload per round: a fragmentation phase carpets chunks with
// mixed-size blocks and frees 15/16 (survivors accumulate round over
// round, exactly as in A11), then a churn phase of malloc_async/
// free_async traffic with per-op latency sampling — the incremental
// driver pays its slices inside these very ops, so the sampled p99 IS
// the tenant-visible cost of compacting live. Periodic stream syncs
// bound the pending-free window (and host the sync arm's runs).
//
// Report live/mapped density, bytes moved, steps, forwarded frees, and
// malloc p50/p99. Acceptance (CI smoke): the incremental arm moves
// bytes (> 0), its malloc p99 stays under 2x the off arm (no
// stop-the-world cliff), and its final density lands within 1.3x of the
// sync mode.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <unordered_map>
#include <vector>

#include "alloc/pool.hpp"
#include "common/harness.hpp"
#include "gpusim/stream.hpp"
#include "util/prng.hpp"

namespace toma::bench {
namespace {

constexpr std::size_t kFragSizes[] = {64, 256, 1024};
constexpr std::size_t kChurnSize = 256;
constexpr int kSyncInterval = 256;  // churn ops between stream syncs

struct Out {
  double live_mb;
  double mapped_mb;
  double occupancy;  // live / mapped, 1.0 = perfectly dense
  std::uint64_t moved_bytes;
  std::uint64_t steps;
  std::uint64_t forwarded;
  std::uint64_t moves_committed;  // commits observed by the hooks
  double malloc_p50_ns;
  double malloc_p99_ns;
};

double percentile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Out run(const Options& opt, alloc::DefragMode mode, const char* name) {
  const int rounds = opt.full ? 12 : (opt.quick ? 4 : 8);
  const int batch = opt.quick ? 8192 : 16384;
  const int churn = opt.full ? 65536 : (opt.quick ? 16384 : 32768);
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 256u << 20;  // VA reservation; mapping grows on demand
  cfg.num_arenas = 1;
  cfg.vmm = true;
  cfg.chunk_bytes = 1u << 20;
  cfg.defrag_mode = mode;
  // Retain-all during the run (the throughput-oriented default): trimming
  // at every sync makes ALL compacting arms re-map chunks under churn and
  // that remap cost — not compaction — dominates the malloc tail. The
  // compactors unmap retired chunks themselves; a single trim at the end
  // levels the field for the final density measurement.
  cfg.release_threshold = alloc::kReleaseRetainAll;
  alloc::Pool pool(name, cfg);
  gpu::Stream stream;

  // Two-phase host contract: survivors keyed by current address; prepare
  // admits only pointers this table owns live (anything else — churn
  // blocks, pending async frees — is vetoed and stays put), commit
  // rekeys. The sync arm shares the same hooks.
  std::unordered_map<void*, std::uint32_t> live;
  std::uint64_t moves_committed = 0;
  alloc::RelocationHooks hooks;
  hooks.prepare = [&live](void* from, void*, std::size_t) {
    return live.count(from) != 0;
  };
  hooks.commit = [&live, &moves_committed](void* from, void* to,
                                           std::size_t) {
    const auto it = live.find(from);
    if (it == live.end()) return;
    const std::uint32_t id = it->second;
    live.erase(it);
    live.emplace(to, id);
    ++moves_committed;
  };
  pool.set_relocation_hooks(std::move(hooks));

  util::Xorshift rng(0x5eed);
  std::uint32_t next_id = 0;
  std::vector<std::uint64_t> lat;
  lat.reserve(static_cast<std::size_t>(rounds) *
              static_cast<std::size_t>(churn));
  for (int r = 0; r < rounds; ++r) {
    // Fragmentation phase: sparse survivors pin chunks (as in A11).
    std::vector<void*> round_blocks;
    round_blocks.reserve(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      void* p = pool.malloc(kFragSizes[i % 3]);
      if (p != nullptr) round_blocks.push_back(p);
    }
    for (std::size_t i = 0; i < round_blocks.size(); ++i) {
      if (i % 16 == rng.next_below(16)) {
        live.emplace(round_blocks[i], next_id++);
      } else {
        pool.free(round_blocks[i]);
      }
    }
    // Churn phase: the traffic compaction must run beneath. Async ops
    // carry the incremental driver's piggybacked slices, so their
    // sampled latency includes every cost the live path pays (parking,
    // forwarding, slice work on the unlucky ops).
    std::vector<void*> fifo;
    fifo.reserve(64);
    for (int i = 0; i < churn; ++i) {
      const std::uint64_t t0 = now_ns();
      void* p = pool.malloc_async(kChurnSize, stream);
      lat.push_back(now_ns() - t0);
      if (p != nullptr) fifo.push_back(p);
      if (fifo.size() >= 64) {
        pool.free_async(fifo.front(), stream);
        fifo.erase(fifo.begin());
      }
      if (i % kSyncInterval == kSyncInterval - 1) {
        pool.sync(stream);  // sync arm: the compactor runs here
      }
    }
    for (void* p : fifo) pool.free_async(p, stream);
    pool.sync(stream);
  }
  if (mode == alloc::DefragMode::kIncremental) {
    // Idle settle: traffic stopped mid-evacuation, so give the driver
    // the idle slices it would get from the scheduler's empty slots
    // (gpusim integration) until the backlog drains. Density is
    // measured after this — the churn-time cost already sits in p99.
    for (int i = 0; i < 4096; ++i) {
      pool.defrag_step();
      if (i % 64 == 63) pool.sync(stream);
    }
    pool.sync(stream);
  }
  pool.set_release_threshold(0);
  pool.sync(stream);  // one final trim+shrink so mapped is comparable

  const alloc::PoolStats st = pool.stats();
  const double live_b = static_cast<double>(st.bytes_in_use);
  const double mapped_b = static_cast<double>(st.alloc.mapped_bytes);
  std::printf("  [%s] steps=%" PRIu64 " moved=%" PRIu64 "B passes=%" PRIu64
              " moves=%" PRIu64 " forwarded=%" PRIu64 " pin_stalls=%" PRIu64
              "\n",
              name, st.alloc.defrag_steps, st.alloc.defrag_moved_bytes,
              st.alloc.defrag_passes, st.alloc.defrag_moves,
              st.alloc.defrag_forwarded, st.alloc.defrag_pin_stalls);
  const Out out{live_b / (1 << 20),
                mapped_b / (1 << 20),
                mapped_b == 0 ? 0.0 : live_b / mapped_b,
                st.alloc.defrag_moved_bytes,
                st.alloc.defrag_steps,
                st.alloc.defrag_forwarded,
                moves_committed,
                percentile(lat, 0.50),
                percentile(lat, 0.99)};
  std::vector<void*> drain;
  drain.reserve(live.size());
  for (const auto& [p, id] : live) drain.push_back(p);
  for (void* p : drain) pool.free(p);
  pool.sync(stream);
  return out;
}

int main_impl(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);

  util::Table table(
      "Ablation A12: live (incremental) defrag vs sync pass vs off");
  table.set_header({"mode", "live (MB)", "mapped (MB)", "live/mapped",
                    "moved (B)", "steps", "forwarded", "commits",
                    "malloc p50 (ns)", "malloc p99 (ns)"});
  const Out off = run(opt, alloc::DefragMode::kOff, "live-defrag-off");
  const Out syn = run(opt, alloc::DefragMode::kSync, "live-defrag-sync");
  const Out inc =
      run(opt, alloc::DefragMode::kIncremental, "live-defrag-inc");
  const auto add = [&table](const char* m, const Out& o) {
    table.add(m, o.live_mb, o.mapped_mb, o.occupancy, o.moved_bytes,
              o.steps, o.forwarded, o.moves_committed, o.malloc_p50_ns,
              o.malloc_p99_ns);
  };
  add("off", off);
  add("sync", syn);
  add("incremental", inc);

  // CI smoke keys: the incremental arm must actually compact, must not
  // cliff the malloc tail, and must land near the sync mode's density.
  const double p99_ratio =
      off.malloc_p99_ns == 0 ? 0.0 : inc.malloc_p99_ns / off.malloc_p99_ns;
  const double density_ratio =
      inc.occupancy == 0 ? 0.0 : syn.occupancy / inc.occupancy;
  table.set_meta("inc_moved_bytes", std::to_string(inc.moved_bytes));
  table.set_meta("p99_ratio_inc_off", std::to_string(p99_ratio));
  table.set_meta("density_ratio_sync_inc", std::to_string(density_ratio));
  std::printf("  off:  occ=%.3f p99=%.0fns\n", off.occupancy,
              off.malloc_p99_ns);
  std::printf("  sync: occ=%.3f p99=%.0fns\n", syn.occupancy,
              syn.malloc_p99_ns);
  std::printf("  inc:  occ=%.3f p99=%.0fns moved=%" PRIu64 "B (%" PRIu64
              " commits)\n",
              inc.occupancy, inc.malloc_p99_ns, inc.moved_bytes,
              inc.moves_committed);
  std::printf("  incremental p99 %.2fx of off; sync density %.2fx of "
              "incremental\n",
              p99_ratio, density_ratio);
  finish_table(opt, table);
  return 0;
}

}  // namespace
}  // namespace toma::bench

int main(int argc, char** argv) { return toma::bench::main_impl(argc, argv); }
