// Thread-owned shards: where every sharded obs instrument records.
//
// Counter, Histogram and CounterSet give each OS thread a shard of its
// own. A thread leases a slot the first time it records anything and
// hands it back when it exits, so the gpusim workers a launch spawns
// reuse the slots the previous launch's workers released. A slot is the
// thread's shard index in every instrument (each has kThreadShards
// shards). Inside its own shard a thread is the only writer, so a bump is
// a relaxed load plus a relaxed store — no locked read-modify-write.
// Threads past the owned range (more than kOwnedSlots live recording
// threads) share the overflow shard, which keeps fetch_add.
//
// Fibers migrate between workers at every yield, so the slot is re-read
// through an out-of-line call on every bump and never cached across a
// yield: each bump lands on the shard of the OS thread running the fiber
// at that moment, and that thread is not running anything else.
#pragma once

#include <atomic>
#include <cstdint>

namespace toma::obs {

/// Slots [0, kOwnedSlots) are leased to one live OS thread each. A thread
/// that finds none free — or records after its lease ended at thread
/// exit — gets kOverflowSlot.
inline constexpr std::uint32_t kOwnedSlots = 63;
inline constexpr std::uint32_t kOverflowSlot = kOwnedSlots;
/// Shards per Counter, Histogram and CounterSet: one per owned slot plus
/// the overflow shard, so every thread with a lease writes alone.
inline constexpr std::uint32_t kThreadShards = kOwnedSlots + 1;

/// The calling OS thread's slot, leasing one on first use.
std::uint32_t thread_slot();

/// Slots leased right now (test introspection).
std::uint32_t leased_slots();

/// Add `n` to a cell of shard `slot`: load + store on an owned shard (its
/// thread is the only writer), fetch_add on the overflow shard.
inline void shard_add(std::atomic<std::uint64_t>& cell, std::uint64_t n,
                      std::uint32_t slot) {
  if (slot != kOverflowSlot) {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  } else {
    cell.fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace toma::obs
