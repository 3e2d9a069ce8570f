// Bounded single-producer/single-consumer ring — the only cross-shard
// conduit in the sharded RIC (DESIGN.md §13).
//
// The sharded server runs one Reactor per shard (§4.4's single-threaded
// universe, N times over). Shards never share mutable state on the hot
// path; everything that must cross a shard boundary — RAN-DB merge events,
// xApp fan-out indications, northbound query replies — travels through one
// of these rings, each with exactly one producing shard and one consuming
// thread. That pairing is what makes a lock-free ring correct with nothing
// stronger than acquire/release on two indices.
//
// Contract (mirrored by the ring's unit + TSan hammer tests):
//  * bounded: capacity is fixed at construction (rounded up to a power of
//    two); a full ring surfaces Errc::capacity from try_push — it never
//    blocks and never drops silently. Backpressure is the caller's problem,
//    counted in the caller's ledger, exactly like BoundedQueue (§11).
//  * FIFO: pops observe pushes in order.
//  * SPSC only: one thread calls try_push, one thread calls try_pop. The
//    analyzer treats SpscRing fields as @cross_domain conduits, and the
//    runtime guards in ShardPool keep each end on its own thread.
//
// This header is one of the sanctioned uses of <atomic> outside
// src/transport/ (flexric-analyze's thread-primitives rule, kThreadOkFiles):
// a cross-thread conduit
// cannot exist without the two index atomics, and confining it here keeps
// the rest of src/ lock- and atomic-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/affinity.hpp"
#include "common/result.hpp"

namespace flexric {

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 2) so the
  /// index wrap is a mask, not a modulo.
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Full ring => Errc::capacity, the element is untouched
  /// and `rejected()` is incremented — the push is never silently lost.
  /// The first calling thread becomes THE producer; in guarded builds a
  /// second pushing thread aborts (the SPSC contract is single-producer by
  /// construction, not by convention).
  // @hotpath
  Status try_push(T&& v) {
    if constexpr (kAffinityGuardsEnabled) {
      if (!producer_.check_or_bind())
        affinity_violation("SpscRing::try_push (second producer thread)",
                           producer_.domain(), __FILE__, __LINE__);
    }
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status{Errc::capacity, "spsc ring full"};
    }
    slots_[head & mask_] = std::move(v);
    head_.store(head + 1, std::memory_order_release);
    return Status::ok();
  }

  /// Consumer side. Returns false when the ring is empty. Symmetric guard:
  /// the first popping thread becomes THE consumer.
  // @hotpath
  bool try_pop(T& out) {
    if constexpr (kAffinityGuardsEnabled) {
      if (!consumer_.check_or_bind())
        affinity_violation("SpscRing::try_pop (second consumer thread)",
                           consumer_.domain(), __FILE__, __LINE__);
    }
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;
    out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy; exact when called from either endpoint thread
  /// while the other is quiescent.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head - tail);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Pushes refused with Errc::capacity since construction; readable from
  /// any thread, so ring overflow is auditable in the global shed ledger.
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 1;
  /// Lazy endpoint stamps: each end binds to its first calling thread and
  /// aborts on a second one (guarded builds only — Release builds compile
  /// the checks out).
  DomainAffinity producer_{"spsc-producer"};
  DomainAffinity consumer_{"spsc-consumer"};
  /// Producer- and consumer-owned indices on separate cache lines so the
  /// two endpoint threads do not false-share.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace flexric
