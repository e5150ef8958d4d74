// host_tenants: one host thread drives the toma_* C API over three tenant
// pools (poisson, kvcache and bursty traffic shapes) with elastic backing,
// release_threshold = 0 and incremental defrag under two-phase relocation
// hooks that veto unknown pointers. Closed loop: each call is issued when
// the previous one returned.
//
// One round = fragment spikes on every pool, kStepsPerRound seeded
// traffic steps (sync and async calls, realloc growth, stream syncs, a
// defrag slice every 16 steps), a hold-point sample, then a sync and a
// coin-flip trim per pool. Every kDrainEvery rounds all blocks are freed
// and the pools must account to zero bytes and pass their consistency
// check. Every block carries a seeded stamp at its first and last 8
// bytes, checked before it is freed, reallocated or handed to a stream.
#include <cstdio>
#include <string>

#include "alloc/pool.hpp"
#include "toma/toma.h"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace alloc = toma::alloc;

constexpr std::uint32_t kTenants = 3;
constexpr std::uint32_t kStreams = 2;  // created streams per tenant
constexpr std::uint64_t kStepsPerRound = 20000;
constexpr std::uint32_t kDrainEvery = 8;
constexpr std::size_t kPoolBytes = 16u << 20;
constexpr std::uint32_t kPrefillBlocks = 1024;

struct Block {
  void* p = nullptr;
  std::uint32_t size = 0;
  std::uint64_t pat = 0;
};

/// KV-cache sequence: a realloc-grown context block plus per-token
/// blocks, evicted FIFO.
struct Sequence {
  Block kv;
  std::vector<Block> toks;
};

enum class Shape { kPoisson, kKvcache, kBursty };

struct Tenant {
  std::string name;
  Shape shape = Shape::kPoisson;
  toma_pool_t pool = nullptr;
  alloc::Pool* cxx = nullptr;  // the same pool through the C++ surface
  std::vector<toma_stream_t> streams;  // [0] = NULL (default stream)

  std::vector<Block> live;
  std::vector<Block> burst;
  std::vector<Sequence> seqs;

  // Two-phase relocation state: between prepare and commit the in-flight
  // move is parked here. `torn` counts protocol breaches (overlapping
  // prepares, a commit that does not match its prepare, content that
  // changed across the copy) and must stay zero.
  Block* reloc_slot = nullptr;
  void* reloc_old = nullptr;
  std::size_t reloc_size = 0;
  unsigned char reloc_snap[8] = {0};
  std::uint64_t moves = 0;
  std::uint64_t vetoes = 0;
  std::uint64_t torn = 0;
};

/// The container slot holding `p`, or nullptr when the tenant does not
/// own it (a block already handed to free_async belongs to the library).
Block* find_block(Tenant& t, void* p) {
  for (Block& b : t.live) {
    if (b.p == p) return &b;
  }
  for (Block& b : t.burst) {
    if (b.p == p) return &b;
  }
  for (Sequence& s : t.seqs) {
    if (s.kv.p == p) return &s.kv;
    for (Block& b : s.toks) {
      if (b.p == p) return &b;
    }
  }
  return nullptr;
}

int reloc_prepare(void* old_ptr, void* /*new_ptr*/, size_t size, void* user) {
  Tenant& t = *static_cast<Tenant*>(user);
  if (t.reloc_old != nullptr) {
    ++t.torn;
    return 0;
  }
  Block* slot = find_block(t, old_ptr);
  if (slot == nullptr) {
    ++t.vetoes;
    return 0;
  }
  t.reloc_slot = slot;
  t.reloc_old = old_ptr;
  t.reloc_size = size;
  std::memcpy(t.reloc_snap, old_ptr, size < 8 ? size : 8);
  return 1;
}

void reloc_commit(void* old_ptr, void* new_ptr, size_t size, void* user) {
  Tenant& t = *static_cast<Tenant*>(user);
  if (t.reloc_old != old_ptr || t.reloc_size != size ||
      t.reloc_slot == nullptr ||
      std::memcmp(new_ptr, t.reloc_snap, size < 8 ? size : 8) != 0) {
    ++t.torn;
  } else {
    t.reloc_slot->p = new_ptr;
    ++t.moves;
  }
  t.reloc_slot = nullptr;
  t.reloc_old = nullptr;
  t.reloc_size = 0;
}

void reloc_abort(void* old_ptr, void* user) {
  Tenant& t = *static_cast<Tenant*>(user);
  if (t.reloc_old != old_ptr) {
    ++t.torn;
    return;
  }
  t.reloc_slot = nullptr;
  t.reloc_old = nullptr;
  t.reloc_size = 0;
}

/// Hot-key size skew (replay's): 90% of requests hit a handful of hot
/// classes, 10% spread uniformly over 8 B-64 KiB.
std::uint32_t pick_size(Rng& rng) {
  static constexpr std::uint32_t kHot[] = {96,   256,  512,   1024,
                                           2048, 4096, 16384, 32768};
  if (rng.chance(90)) return kHot[rng.below(8)];
  return 8 + rng.below(65536 - 8);
}

struct RoundResult {
  double secs = 0;  // timed part of the round
  std::uint64_t calls = 0;
  double mapped_over_live = 0;
  Metrics layer;
  std::vector<Span> spans;
  SelfTimes self;
};

class HostRun {
 public:
  HostRun(const Options& opt, Outcome* out) : opt_(opt), out_(out) {}
  ~HostRun() { destroy(); }

  HostRun(const HostRun&) = delete;
  HostRun& operator=(const HostRun&) = delete;

  void run() {
    const double setup_s = setup();
    if (!ok()) return;
    if (!opt_.trace) {
      const auto rounds = phase(opt_.seconds, 8, false);
      end_to_end(rounds, setup_s);
      return;
    }
    const auto plain = phase(opt_.seconds / 2, 8, false);
    const auto traced = phase(opt_.seconds / 2, 8, true);
    per_layer(plain, traced);
  }

 private:
  bool ok() const { return out_->violation_count == 0; }

  // --- timed C API calls -------------------------------------------------------

  void note(std::uint16_t kind, std::uint8_t route, std::uint64_t t0,
            std::uint64_t t1) {
    ++calls_;
    lat_.add(static_cast<std::uint32_t>(t1 - t0));
    if (traced_) spans_.push_back(Span{t0, t1, kind, route, 0, 0});
  }

  void alloc_result(void* p, toma_status_t st) {
    ++allocs_;
    if (p == nullptr) {
      ++fails_;
      if (fails_ <= 4) {
        std::fprintf(stderr, "host_tenants: allocation failed: %s\n",
                     toma_status_str(st));
      }
    }
  }

  Block c_malloc(Tenant& t, std::uint32_t size) {
    toma_status_t st = TOMA_OK;
    const std::uint64_t t0 = now_ns();
    void* p = toma_malloc(t.pool, size, &st);
    note(kMalloc, route_of(size), t0, now_ns());
    alloc_result(p, st);
    return stamped(p, size);
  }

  Block c_malloc_async(Tenant& t, std::uint32_t size, toma_stream_t s) {
    toma_status_t st = TOMA_OK;
    const std::uint64_t t0 = now_ns();
    void* p = toma_malloc_async(t.pool, size, s, &st);
    note(kMallocAsync, route_of(size), t0, now_ns());
    alloc_result(p, st);
    return stamped(p, size);
  }

  Block stamped(void* p, std::uint32_t size) {
    Block b{p, size, mix3(opt_.seed, 0xB10C, ++serial_) | 1};
    if (p != nullptr) stamp(p, size, b.pat);
    return b;
  }

  void verify(const Block& b) {
    if (!check_stamp(b.p, b.size, b.pat)) {
      out_->violation("host_tenants: block of " + std::to_string(b.size) +
                      " bytes failed its stamp check before release");
    }
  }

  /// The caller has already removed `b` from the tenant's containers, so a
  /// relocation prepare fired inside the call vetoes it.
  void c_free(Tenant& t, const Block& b) {
    verify(b);
    const std::uint64_t t0 = now_ns();
    toma_free(t.pool, b.p);
    note(kFree, kNoRoute, t0, now_ns());
  }

  void c_free_async(Tenant& t, const Block& b, toma_stream_t s) {
    verify(b);
    const std::uint64_t t0 = now_ns();
    toma_free_async(t.pool, b.p, s);
    note(kFreeAsync, kNoRoute, t0, now_ns());
  }

  /// Grow `b` in place or by move; contents up to the old size survive.
  void c_realloc(Tenant& t, Block& b, std::uint32_t size) {
    verify(b);
    toma_status_t st = TOMA_OK;
    const std::uint32_t old = b.size;
    const std::uint64_t t0 = now_ns();
    void* q = toma_realloc(t.pool, b.p, size, &st);
    note(kRealloc, route_of(size), t0, now_ns());
    alloc_result(q, st);
    if (q == nullptr) return;  // the original block is untouched
    b.p = q;
    if (!check_stamp(q, old, b.pat)) {
      out_->violation("host_tenants: realloc lost the block's contents");
    }
    b.size = size;
    stamp(q, size, b.pat);
  }

  void c_sync(Tenant& t, toma_stream_t s) {
    const std::uint64_t t0 = now_ns();
    toma_pool_sync(t.pool, s);
    note(kSync, kNoRoute, t0, now_ns());
  }

  void c_sync_all(Tenant& t) {
    const std::uint64_t t0 = now_ns();
    toma_pool_sync_all(t.pool);
    note(kSync, kNoRoute, t0, now_ns());
  }

  void c_trim(Tenant& t) {
    const std::uint64_t t0 = now_ns();
    toma_trim(t.pool);
    note(kTrim, kNoRoute, t0, now_ns());
  }

  void c_defrag(Tenant& t) {
    const std::uint64_t t0 = now_ns();
    toma_pool_defrag(t.pool, 0, nullptr);
    note(kDefrag, kNoRoute, t0, now_ns());
  }

  // --- set-up ----------------------------------------------------------------

  /// Timed set-up: pool + stream creation, relocation hooks, and a
  /// prefill pass (every tenant allocates and frees kPrefillBlocks
  /// hot-size blocks, then syncs). Repeated kSetupReps times; the last
  /// tenant set is kept.
  double setup() {
    std::vector<double> reps;
    for (std::size_t i = 0; i < kSetupReps && ok(); ++i) {
      destroy();
      const auto t0 = Clock::now();
      if (!create()) return 0;
      Rng rng{mix(opt_.seed ^ 0x5e7u)};
      for (Tenant& t : tenants_) {
        std::vector<Block> fill;
        fill.reserve(kPrefillBlocks);
        for (std::uint32_t k = 0; k < kPrefillBlocks; ++k) {
          fill.push_back(c_malloc(t, pick_size(rng)));
        }
        for (const Block& b : fill) {
          if (b.p != nullptr) c_free(t, b);
        }
        c_sync_all(t);
      }
      reps.push_back(secs_since(t0));
    }
    // Set-up calls are not part of the measured phase.
    calls_ = allocs_ = fails_ = 0;
    lat_.clear();
    return median(reps);
  }

  bool create() {
    static const Shape kShapes[] = {Shape::kPoisson, Shape::kKvcache,
                                    Shape::kBursty};
    tenants_.resize(kTenants);
    for (std::uint32_t i = 0; i < kTenants; ++i) {
      Tenant& t = tenants_[i];
      t.name = "perfbench-tenant-" + std::to_string(i);
      t.shape = kShapes[i];
      toma_pool_config_t cfg = toma_pool_config_default();
      cfg.pool_bytes = kPoolBytes;
      cfg.heapsan = 0;
      cfg.vmm = 1;
      cfg.release_threshold = 0;
      cfg.defrag_mode = 2;  // incremental
      const toma_status_t st = toma_pool_create(t.name.c_str(), &cfg, &t.pool);
      if (st != TOMA_OK) {
        out_->violation("toma_pool_create(" + t.name +
                        "): " + toma_status_str(st));
        return false;
      }
      t.cxx = alloc::PoolManager::instance().find(t.name);
      t.streams.push_back(nullptr);
      for (std::uint32_t k = 0; k < kStreams; ++k) {
        t.streams.push_back(toma_stream_create());
      }
      // tenants_ never reallocates after resize(), so &t is stable.
      toma_relocation_hooks_t hooks = {reloc_prepare, reloc_commit,
                                       reloc_abort, &t};
      if (toma_pool_set_relocation_hooks(t.pool, &hooks) != TOMA_OK) {
        out_->violation("toma_pool_set_relocation_hooks failed");
        return false;
      }
    }
    return true;
  }

  void destroy() {
    for (Tenant& t : tenants_) {
      for (toma_stream_t s : t.streams) {
        if (s != nullptr) toma_stream_destroy(s);
      }
      if (t.pool != nullptr) toma_pool_destroy(t.pool);
    }
    tenants_.clear();
  }

  // --- traffic shapes (replay's, with stamped blocks) ---------------------------

  toma_stream_t pick_stream(Tenant& t) {
    return t.streams[rng_.below(static_cast<std::uint32_t>(t.streams.size()))];
  }

  void poisson_step(Tenant& t) {
    constexpr std::size_t kTargetLive = 192;
    const bool alloc = t.live.size() < kTargetLive ? rng_.chance(60)
                                                   : rng_.chance(40);
    if (alloc || t.live.empty()) {
      const std::uint32_t size = pick_size(rng_);
      const Block b = rng_.chance(50) ? c_malloc(t, size)
                                      : c_malloc_async(t, size, pick_stream(t));
      if (b.p != nullptr) t.live.push_back(b);
    } else {
      const std::uint32_t i =
          rng_.below(static_cast<std::uint32_t>(t.live.size()));
      const Block b = t.live[i];
      t.live[i] = t.live.back();
      t.live.pop_back();
      if (rng_.chance(50)) {
        c_free(t, b);
      } else {
        c_free_async(t, b, pick_stream(t));
      }
    }
    if (rng_.chance(1)) c_sync(t, pick_stream(t));
  }

  void bursty_step(Tenant& t) {
    constexpr std::size_t kBurst = 64;
    toma_stream_t s = t.streams.back();
    if (t.burst.size() < kBurst) {
      const Block b = c_malloc_async(t, pick_size(rng_), s);
      if (b.p != nullptr) {
        t.burst.push_back(b);
      } else if (t.burst.empty()) {
        c_sync(t, s);
      }
    } else {
      // Deregister before each hand-off: once a pointer enters the
      // stream's free queue its old name belongs to the library.
      std::vector<Block> out;
      out.swap(t.burst);
      for (const Block& b : out) c_free_async(t, b, s);
      c_sync(t, s);
    }
  }

  void kvcache_step(Tenant& t) {
    constexpr std::size_t kMaxSeqs = 12;
    constexpr std::size_t kMaxToks = 48;
    if (t.seqs.empty() || (t.seqs.size() < kMaxSeqs && rng_.chance(8))) {
      Sequence s;
      s.kv = c_malloc(t, 2048);
      if (s.kv.p != nullptr) t.seqs.push_back(std::move(s));
      return;
    }
    Sequence& s =
        t.seqs[rng_.below(static_cast<std::uint32_t>(t.seqs.size()))];
    if (s.toks.size() >= kMaxToks || t.seqs.size() >= kMaxSeqs) {
      Sequence victim = std::move(t.seqs.front());
      t.seqs.erase(t.seqs.begin());
      for (const Block& b : victim.toks) c_free(t, b);
      if (victim.kv.p != nullptr) c_free(t, victim.kv);
      return;
    }
    const Block tok = c_malloc(t, 64 + rng_.below(960));
    if (tok.p != nullptr) s.toks.push_back(tok);
    if (s.toks.size() % 16 == 0 && s.kv.p != nullptr) {
      c_realloc(t, s.kv, s.kv.size * 2);
    }
  }

  /// Defrag bait: carpet chunks with small blocks and free all but one in
  /// sixteen; the survivors pin their chunks sparse.
  void fragment_spike(Tenant& t) {
    constexpr std::size_t kSpikeBlocks = 2048;
    std::vector<Block> spike;
    spike.reserve(kSpikeBlocks);
    for (std::size_t i = 0; i < kSpikeBlocks; ++i) {
      const Block b = c_malloc(t, 256);
      if (b.p == nullptr) break;
      spike.push_back(b);
    }
    for (std::size_t i = 0; i < spike.size(); ++i) {
      if (i % 16 == rng_.below(16)) {
        t.live.push_back(spike[i]);
      } else {
        c_free(t, spike[i]);
      }
    }
  }

  void drain_all() {
    for (Tenant& t : tenants_) {
      std::vector<Block> out;
      out.swap(t.live);
      for (const Block& b : out) c_free(t, b);
      out.clear();
      out.swap(t.burst);
      for (const Block& b : out) c_free(t, b);
      std::vector<Sequence> seqs;
      seqs.swap(t.seqs);
      for (const Sequence& s : seqs) {
        for (const Block& b : s.toks) c_free(t, b);
        if (s.kv.p != nullptr) c_free(t, s.kv);
      }
      c_sync_all(t);
      c_trim(t);
    }
  }

  std::uint64_t held_bytes() const {
    std::uint64_t n = 0;
    for (const Tenant& t : tenants_) {
      for (const Block& b : t.live) n += b.size;
      for (const Block& b : t.burst) n += b.size;
      for (const Sequence& s : t.seqs) {
        n += s.kv.size;
        for (const Block& b : s.toks) n += b.size;
      }
    }
    return n;
  }

  void check_round_end() {
    for (const Tenant& t : tenants_) {
      if (t.reloc_old != nullptr) {
        out_->violation("host_tenants: " + t.name +
                        " left a relocation open (prepare without commit)");
      }
      if (t.torn != 0) {
        out_->violation("host_tenants: " + t.name + ": " +
                        std::to_string(t.torn) + " torn relocations");
      }
    }
  }

  void check_drained() {
    for (const Tenant& t : tenants_) {
      const std::size_t used = toma_pool_bytes_in_use(t.pool);
      if (used != 0) {
        out_->violation("host_tenants: " + t.name + ": " +
                        std::to_string(used) + " bytes in use after drain");
      }
      if (!t.cxx->allocator().check_consistency()) {
        out_->violation("host_tenants: " + t.name +
                        ": GpuAllocator::check_consistency() failed");
      }
    }
  }

  std::uint64_t buddy_failed() const {
    std::uint64_t n = 0;
    for (const Tenant& t : tenants_) {
      n += t.cxx->allocator().stats().buddy.failed_allocs;
    }
    return n;
  }

  RoundResult round() {
    RoundResult r;
    const obs::Snapshot s0 = obs::registry().snapshot();
    const std::uint64_t calls0 = calls_, fails0 = buddy_failed();
    std::uint64_t moves0 = 0, vetoes0 = 0;
    for (const Tenant& t : tenants_) {
      moves0 += t.moves;
      vetoes0 += t.vetoes;
    }

    const std::uint64_t ta = now_ns();
    for (Tenant& t : tenants_) fragment_spike(t);
    for (std::uint64_t i = 0; i < kStepsPerRound; ++i) {
      Tenant& t = tenants_[rng_.below(kTenants)];
      switch (t.shape) {
        case Shape::kPoisson: poisson_step(t); break;
        case Shape::kKvcache: kvcache_step(t); break;
        case Shape::kBursty: bursty_step(t); break;
      }
      if (i % 16 == 0) c_defrag(t);
    }
    const std::uint64_t tb = now_ns();
    // Hold point, before sync and trim (not timed).
    std::uint64_t mapped = 0;
    for (const Tenant& t : tenants_) mapped += t.cxx->allocator().mapped_bytes();
    const std::uint64_t live = held_bytes();
    r.mapped_over_live =
        live > 0 ? static_cast<double>(mapped) / static_cast<double>(live) : 0;
    const std::uint64_t tc = now_ns();
    for (Tenant& t : tenants_) {
      c_sync_all(t);
      if (rng_.chance(50)) c_trim(t);
    }
    ++rounds_;
    const bool drain = rounds_ % kDrainEvery == 0;
    if (drain) drain_all();
    const std::uint64_t td = now_ns();
    r.secs = static_cast<double>((tb - ta) + (td - tc)) * 1e-9;
    r.calls = calls_ - calls0;

    check_round_end();
    if (drain) check_drained();

    if (traced_) {
      r.self = sweep_self_times(spans_, ta, td, 1);
      r.spans.swap(spans_);
      spans_.clear();
    }
    const obs::Snapshot s1 = obs::registry().snapshot();
    Delta d{s1.diff_since(s0)};
    layer_counters(d, static_cast<double>(r.calls), &r.layer);
    std::uint64_t moves = 0, vetoes = 0;
    for (const Tenant& t : tenants_) {
      moves += t.moves;
      vetoes += t.vetoes;
    }
    moves -= moves0;
    vetoes -= vetoes0;
    r.layer["defrag.useful_ratio"].value =
        moves + vetoes > 0 ? static_cast<double>(moves) /
                                 static_cast<double>(moves + vetoes)
                           : 0.0;
    r.layer["tbuddy.failed_allocs"].value =
        static_cast<double>(buddy_failed() - fails0);
    return r;
  }

  std::vector<RoundResult> phase(double seconds, int min_rounds, bool traced) {
    traced_ = traced;
    std::vector<RoundResult> rounds;
    const std::uint64_t allocs0 = allocs_, fails0 = fails_, calls0 = calls_;
    const auto t0 = Clock::now();
    double last = 0;  // wall time of the previous round
    while (ok() && (static_cast<int>(rounds.size()) < min_rounds ||
                    secs_since(t0) + last <= seconds)) {
      const auto r0 = Clock::now();
      rounds.push_back(round());
      last = secs_since(r0);
      if (traced) {
        for (const Span& s : rounds.back().spans) span_stats_.add(s);
        if (rounds.size() > 1) rounds.back().spans = {};
      }
    }
    out_->attempted += calls_ - calls0;
    out_->failed += fails_ - fails0;
    phase_allocs_ += allocs_ - allocs0;
    return rounds;
  }

  static double ops_per_s(const std::vector<RoundResult>& rounds) {
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(static_cast<double>(r.calls) / r.secs);
    return median(v);
  }

  void end_to_end(const std::vector<RoundResult>& rounds, double setup_s) {
    Metrics& m = out_->end_to_end;
    std::vector<double> mol;
    for (const auto& r : rounds) mol.push_back(r.mapped_over_live);
    const std::uint64_t samples = lat_.seen();
    m["ops_per_s"] = {ops_per_s(rounds), "ops/s"};
    m["op_p50_ns"] = {lat_.quantile(0.50), "ns"};
    m["op_p99_ns"] = {lat_.quantile(0.99), "ns"};
    m["alloc_ok_frac"] = {phase_allocs_ > 0
                              ? 1.0 - static_cast<double>(out_->failed) /
                                          static_cast<double>(phase_allocs_)
                              : 1.0,
                          "ratio"};
    m["mapped_over_live"] = {median(mol), "ratio"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    m["setup_s"] = {setup_s, "s"};
    std::printf("info: %zu rounds, %zu latency samples (every C API call)\n",
                rounds.size(), samples);
  }

  void latency_metrics(const char* prefix, std::vector<std::uint32_t>& v) {
    Metrics& m = out_->per_layer;
    const std::string p(prefix);
    m[p + ".count"].value = static_cast<double>(v.size());
    m[p + ".p50"].value = window_quantile(v, 0.50);
    m[p + ".p99"].value = window_quantile(v, 0.99);
  }

  void per_layer(const std::vector<RoundResult>& plain,
                 const std::vector<RoundResult>& traced) {
    Metrics& m = out_->per_layer;
    // Counter metrics: per-round values, median over every round.
    std::map<std::string, std::vector<double>> per_round;
    for (const auto* rs : {&plain, &traced}) {
      for (const auto& r : *rs) {
        for (const auto& [k, v] : r.layer) per_round[k].push_back(v.value);
      }
    }
    for (const auto& [k, v] : per_round) m[k].value = median(v);

    SelfTimeSum rounds;
    for (const auto& r : traced) rounds.add(r.self);
    if (!rounds.consistent()) {
      out_->violation(
          "ledger: a call kind's self time falls outside its spans' "
          "durations, or a span lies outside its round");
    }
    m["ledger.call_self_share"].value = rounds.call_share();
    m["ledger.call_self_over_span"].value = rounds.call_self_over_span();

    latency_metrics("capi.malloc_ns", span_stats_.dur[kMalloc]);
    latency_metrics("capi.malloc_ns.lane", span_stats_.malloc_route[kLane]);
    latency_metrics("capi.malloc_ns.ualloc", span_stats_.malloc_route[kUalloc]);
    latency_metrics("capi.malloc_ns.tbuddy", span_stats_.malloc_route[kTbuddy]);
    latency_metrics("capi.free_ns", span_stats_.dur[kFree]);
    latency_metrics("capi.malloc_async_ns", span_stats_.dur[kMallocAsync]);
    latency_metrics("capi.free_async_ns", span_stats_.dur[kFreeAsync]);
    latency_metrics("capi.realloc_ns", span_stats_.dur[kRealloc]);
    latency_metrics("stream.sync_ns", span_stats_.dur[kSync]);
    latency_metrics("pool.trim_ns", span_stats_.dur[kTrim]);
    latency_metrics("defrag.step_ns", span_stats_.dur[kDefrag]);

    m["fail_frac"].value =
        phase_allocs_ > 0 ? static_cast<double>(out_->failed) /
                                static_cast<double>(phase_allocs_)
                          : 0.0;
    m["op_lat.samples"].value = static_cast<double>(lat_.seen());
    m["trace.overhead_ratio"].value = ops_per_s(plain) / ops_per_s(traced);

    // Ledger file: self-time table over the traced rounds, and the
    // counters known to vary between identical-seed runs.
    out_->ledger.emplace_back("round_self_times",
                              rounds.to_json("rounds", "generator_self_ns"));
    out_->ledger.emplace_back(
        "nondeterministic",
        "[\"defrag.moved_bytes\",\"defrag.useful_ratio\",\"defrag.pin_stalls\","
        "\"vmm.grows_per_kop\",\"vmm.shrinks_per_kop\",\"vmm.map_bytes\"]");
    std::printf("info: %zu untraced + %zu traced rounds\n", plain.size(),
                traced.size());
    if (!opt_.out_dir.empty() && !traced.empty()) {
      const std::string path = opt_.out_dir + "/" + opt_.workload + "-seed" +
                               std::to_string(opt_.seed) + "-spans.csv";
      if (!write_spans_csv(path, traced.front().spans,
                           traced.front().spans.empty()
                               ? 0
                               : traced.front().spans.front().start)) {
        std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      }
    }
  }

  const Options& opt_;
  Outcome* out_;
  std::vector<Tenant> tenants_;
  Rng rng_{opt_.seed * 0x9e3779b97f4a7c15ull + 1};
  bool traced_ = false;
  std::vector<Span> spans_;
  SpanStats span_stats_;
  Reservoir lat_{opt_.seed};
  std::uint64_t calls_ = 0, allocs_ = 0, fails_ = 0, phase_allocs_ = 0;
  std::uint64_t serial_ = 0, rounds_ = 0;
};

}  // namespace

void run_host(const Options& opt, Outcome* out) {
  HostRun run(opt, out);
  run.run();
}

}  // namespace perfbench
