// Sleepable RCU with delegated (conditional) barriers: the paper's second
// contribution (§4.2.1, Figure 4).
//
// Per-thread-variable RCU is a non-starter with 10^5 threads, so the domain
// follows SRCU: one epoch counter plus a pair of per-parity reader
// counters. Readers increment/decrement the counter of the epoch they
// entered in; a grace period flips the epoch and waits for the old parity's
// counter to drain.
//
// Classical barrier (synchronize): serialize on the writer mutex, flip,
// wait, run deferred callbacks. The paper's observation: a barrier that is
// queued behind another barrier ends up waiting for readers that started
// *after* it was issued, pinning hardware resources.
//
// Conditional barrier (the delegation extension): if another barrier is
// already waiting to flip the epoch, our removal is covered by *its*
// upcoming grace period — so we enqueue our callbacks for that thread to
// execute and return immediately. Measured in bench/fig6.
#pragma once

#include <atomic>
#include <cstdint>

#include "gpusim/this_thread.hpp"
#include "obs/counter.hpp"
#include "sync/backoff.hpp"
#include "sync/spin_mutex.hpp"
#include "util/hints.hpp"

namespace toma::sync {

/// A deferred-reclamation callback. Intrusive so enqueueing allocates
/// nothing (callbacks are embedded in the object being reclaimed).
struct RcuCallback {
  RcuCallback* next = nullptr;
  void (*fn)(RcuCallback*) = nullptr;
};

class SrcuDomain {
 public:
  SrcuDomain() = default;
  SrcuDomain(const SrcuDomain&) = delete;
  SrcuDomain& operator=(const SrcuDomain&) = delete;

  // --- reader side ---------------------------------------------------------
  /// Enter a read-side critical section; returns the epoch parity to pass
  /// to read_unlock. Readers never block (the retry loop below runs at
  /// most once per concurrent epoch flip, and flips are serialized).
  ///
  /// The re-validation closes the classic SRCU race where a reader loads
  /// the epoch, stalls, and increments a parity counter that has since
  /// gone stale — which a concurrent grace period would not wait for.
  /// After the second load confirms the parity is (again) current, any
  /// barrier that subsequently flips this parity must observe and wait for
  /// our increment.
  unsigned read_lock() {
    for (;;) {
      const unsigned idx =
          static_cast<unsigned>(epoch_.load(std::memory_order_seq_cst) & 1);
      readers_[idx].fetch_add(1, std::memory_order_seq_cst);
      if ((epoch_.load(std::memory_order_seq_cst) & 1) == idx) return idx;
      readers_[idx].fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  void read_unlock(unsigned idx) {
    readers_[idx].fetch_sub(1, std::memory_order_acq_rel);
  }

  // --- writer side ---------------------------------------------------------
  /// Enqueue a callback to run after the next grace period completes.
  /// Does not start a grace period by itself.
  void call(RcuCallback* cb);

  /// Classical full barrier: waits for a grace period, then runs every
  /// queued callback (including delegated ones). Serializes with other
  /// barriers on the writer mutex.
  void synchronize();

  /// The paper's conditional barrier. If another barrier is pending (has
  /// not yet flipped the epoch), delegate `cb` to it and return
  /// immediately; otherwise behave like call(cb) + synchronize().
  /// `cb` may be nullptr to delegate nothing but still ensure a grace
  /// period is in flight.
  void barrier_conditional(RcuCallback* cb);

  // --- introspection ---------------------------------------------------
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  std::int64_t readers(unsigned idx) const {
    return readers_[idx & 1].load(std::memory_order_acquire);
  }
  /// Completed full barriers and delegated (skipped) barriers; used by the
  /// Figure 6 benchmark to report delegation rates.
  std::uint64_t full_barriers() const { return counts_.value(kFull); }
  std::uint64_t delegated_barriers() const {
    return counts_.value(kDelegated);
  }
  /// Barriers currently between "issued" and "flipped" (test/diagnostic).
  std::uint32_t pending_barriers() const {
    return pending_barriers_.load(std::memory_order_seq_cst);
  }

 private:
  void run_callbacks(RcuCallback* head);

  TOMA_CACHELINE_ALIGNED std::atomic<std::uint64_t> epoch_{0};
  TOMA_CACHELINE_ALIGNED std::atomic<std::int64_t> readers_[2] = {0, 0};
  TOMA_CACHELINE_ALIGNED SpinMutex writer_mu_;
  // Barriers standing between "issued" and "flipped the epoch". Any
  // callback enqueued while this is non-zero is covered by one of them.
  std::atomic<std::uint32_t> pending_barriers_{0};
  // Treiber stack of callbacks awaiting the next grace period.
  TOMA_CACHELINE_ALIGNED std::atomic<RcuCallback*> queue_{nullptr};
  enum Count : std::uint32_t { kFull, kDelegated };
  obs::CounterSet counts_{
      {"sync.rcu.full_barrier", "sync.rcu.delegated_barrier"}};
};

/// RAII read-side critical section.
class RcuReadGuard {
 public:
  explicit RcuReadGuard(SrcuDomain& d) : d_(d), idx_(d.read_lock()) {}
  ~RcuReadGuard() { d_.read_unlock(idx_); }
  RcuReadGuard(const RcuReadGuard&) = delete;
  RcuReadGuard& operator=(const RcuReadGuard&) = delete;

 private:
  SrcuDomain& d_;
  unsigned idx_;
};

}  // namespace toma::sync
