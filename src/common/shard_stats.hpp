// Cache-aligned per-shard counter board (DESIGN.md §13).
//
// Each shard owns one 64-byte-aligned slot of atomics and is the only
// writer of that slot; any thread may read and sum. A per-slot seqlock
// keeps the 12-field ledger image untorn across fields (the write side is
// wait-free, the read side retries only while a publish is in flight). This
// is the merge-on-query half of the sharded stats story: shards publish their
// E2Server ledger into their slot from their own reactor thread (a timer in
// ShardedE2Server), and a northbound query sums the slots — no lock, no
// shared hot-path state, no cross-shard cache-line ping-pong (each slot is
// alone on its line).
//
// The slot layout mirrors the overload ledger of DESIGN.md §11 so the exact
// reconciliation invariant survives sharding:
//
//   sum(emitted) == sum(delivered) + sum(agent_shed) + sum(server_shed)
//
// where server_shed = rate_shed + flood_shed + queue_shed + fanout_shed
// + orphan_indications (fanout_shed counts cross-shard indication-ring
// overflow, orphan_indications counts indications with no matching
// subscription — a bounded ring or a restarted shard sheds with a counted
// reason, never silently, same rule as BoundedQueue).
//
// Sanctioned use of <atomic> outside src/transport/ (flexric-analyze's
// thread-primitives rule, kThreadOkFiles): publishing counters across shard
// threads is impossible without atomics; keeping them in this one header
// keeps the rest of the SDK atomic-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace flexric {

/// Plain (non-atomic) image of one slot / of the summed board.
struct ShardLedger {
  std::uint64_t msgs_rx = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t indications_rx = 0;
  std::uint64_t rate_shed = 0;
  std::uint64_t flood_shed = 0;
  std::uint64_t queue_shed = 0;
  std::uint64_t queued = 0;          ///< admitted, not yet dispatched
  std::uint64_t agent_reported_sheds = 0;
  std::uint64_t fanout_shed = 0;     ///< cross-shard indication ring overflow
  std::uint64_t reply_shed = 0;      ///< northbound reply ring overflow
  std::uint64_t dir_events_lost = 0; ///< directory event ring overflow (triggers resync)
  std::uint64_t orphan_indications = 0;  ///< no matching subscription (counted drop)

  [[nodiscard]] std::uint64_t server_shed() const noexcept {
    return rate_shed + flood_shed + queue_shed + fanout_shed +
           orphan_indications;
  }

  /// Field-wise accumulate — the merge-on-query sum, and how the ledger of
  /// a torn-down shard incarnation folds into its retired total (§15).
  void add(const ShardLedger& v) noexcept {
    msgs_rx += v.msgs_rx;
    dispatched += v.dispatched;
    indications_rx += v.indications_rx;
    rate_shed += v.rate_shed;
    flood_shed += v.flood_shed;
    queue_shed += v.queue_shed;
    queued += v.queued;
    agent_reported_sheds += v.agent_reported_sheds;
    fanout_shed += v.fanout_shed;
    reply_shed += v.reply_shed;
    dir_events_lost += v.dir_events_lost;
    orphan_indications += v.orphan_indications;
  }
};

/// Cache-aligned per-shard liveness board (DESIGN.md §15).
///
/// Each shard loop publishes a cheap heartbeat — a loop-turn counter plus
/// the reactor timestamp of its last observed progress — into its own
/// 64-byte slot; the home-side watchdog reads the slots and classifies
/// shards (healthy / degraded / quarantined / recovering) from the age of
/// the newest beat. Same single-writer-per-slot discipline as the counter
/// board below: the shard is the only writer of its slot, any thread reads.
///
/// The two fields are published progress-first / turns-last with a release
/// store on `turns`, and read turns-first with an acquire load, so a reader
/// that observes turn N also observes (at least) the progress timestamp
/// that accompanied it. A torn pair is still monotone in both fields, so
/// the watchdog can only under-estimate freshness — the safe direction.
class ShardHealthBoard {
 public:
  struct Beat {
    std::uint64_t turns = 0;   ///< loop-turn counter (heartbeat ticks)
    std::int64_t progress_ns = 0;  ///< reactor time of the last beat
  };

  explicit ShardHealthBoard(std::uint32_t shards)
      : shards_(shards), slots_(std::make_unique<Slot[]>(shards)) {}

  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }

  /// Shard-side: one heartbeat. Wait-free, two stores, no rmw.
  void beat(std::uint32_t shard, std::int64_t now_ns) noexcept {
    Slot& s = slots_[shard];
    const std::uint64_t t = s.turns.load(std::memory_order_relaxed);
    s.progress_ns.store(now_ns, std::memory_order_relaxed);
    s.turns.store(t + 1, std::memory_order_release);
  }

  /// Watchdog-side: the freshest beat this reader can prove.
  [[nodiscard]] Beat read(std::uint32_t shard) const noexcept {
    const Slot& s = slots_[shard];
    Beat b;
    b.turns = s.turns.load(std::memory_order_acquire);
    b.progress_ns = s.progress_ns.load(std::memory_order_relaxed);
    return b;
  }

  /// Recovery: a replacement shard starts its heartbeat history fresh so
  /// hysteresis counts beats of the new loop, not the corpse's.
  void reset(std::uint32_t shard) noexcept {
    Slot& s = slots_[shard];
    s.progress_ns.store(0, std::memory_order_relaxed);
    s.turns.store(0, std::memory_order_release);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> turns{0};
    std::atomic<std::int64_t> progress_ns{0};
  };

  std::uint32_t shards_;
  std::unique_ptr<Slot[]> slots_;
};

class ShardCounterBoard {
 public:
  /// One cache line per shard; the shard index is the only writer key.
  struct alignas(64) Slot {
    /// Seqlock sequence: odd while the owning shard is mid-publish. Readers
    /// retry until they observe the same even value before and after the
    /// field loads, so a ledger image is never torn across fields.
    std::atomic<std::uint64_t> seq{0};
    /// Incarnation epoch (DESIGN.md §15): a publish stamped with a stale
    /// epoch is dropped, so a force-restarted shard's leaked corpse loop
    /// cannot scribble over the replacement's slot if it ever un-wedges.
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> msgs_rx{0};
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> indications_rx{0};
    std::atomic<std::uint64_t> rate_shed{0};
    std::atomic<std::uint64_t> flood_shed{0};
    std::atomic<std::uint64_t> queue_shed{0};
    std::atomic<std::uint64_t> queued{0};
    std::atomic<std::uint64_t> agent_reported_sheds{0};
    std::atomic<std::uint64_t> fanout_shed{0};
    std::atomic<std::uint64_t> reply_shed{0};
    std::atomic<std::uint64_t> dir_events_lost{0};
    std::atomic<std::uint64_t> orphan_indications{0};
  };

  explicit ShardCounterBoard(std::uint32_t shards)
      : shards_(shards), slots_(std::make_unique<Slot[]>(shards)) {}

  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }

  /// The writing shard publishes a full ledger image under a seqlock
  /// (Boehm-style): bump the sequence odd, release-fence, store the fields
  /// relaxed, then release-store the sequence even. A reader that sees the
  /// same even sequence on both sides of its loads got an untorn image —
  /// the §11 reconciliation invariant holds across fields, not just within
  /// each one.
  void publish(std::uint32_t shard, const ShardLedger& v) noexcept {
    publish(shard, v, epoch_of(shard));
  }

  /// Epoch-stamped publish: writers born before the last bump_epoch() are
  /// silently dropped. The residual race — a writer that passed the check
  /// and then stalled mid-publish — is confined to threaded force-restart
  /// (the caller also retires that incarnation's rings, so the slot is the
  /// only shared cell, and the replacement's next publish overwrites it).
  void publish(std::uint32_t shard, const ShardLedger& v,
               std::uint64_t epoch) noexcept {
    Slot& s = slots_[shard];
    if (epoch != s.epoch.load(std::memory_order_acquire)) return;
    const std::uint64_t s0 = s.seq.load(std::memory_order_relaxed);
    s.seq.store(s0 + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.msgs_rx.store(v.msgs_rx, std::memory_order_relaxed);
    s.dispatched.store(v.dispatched, std::memory_order_relaxed);
    s.indications_rx.store(v.indications_rx, std::memory_order_relaxed);
    s.rate_shed.store(v.rate_shed, std::memory_order_relaxed);
    s.flood_shed.store(v.flood_shed, std::memory_order_relaxed);
    s.queue_shed.store(v.queue_shed, std::memory_order_relaxed);
    s.queued.store(v.queued, std::memory_order_relaxed);
    s.agent_reported_sheds.store(v.agent_reported_sheds,
                                 std::memory_order_relaxed);
    s.fanout_shed.store(v.fanout_shed, std::memory_order_relaxed);
    s.reply_shed.store(v.reply_shed, std::memory_order_relaxed);
    s.dir_events_lost.store(v.dir_events_lost, std::memory_order_relaxed);
    s.orphan_indications.store(v.orphan_indications,
                               std::memory_order_relaxed);
    s.seq.store(s0 + 2, std::memory_order_release);
  }

  /// Seqlock read side: retry while a publish is in flight (odd sequence)
  /// or raced past us (sequence changed across the loads).
  [[nodiscard]] ShardLedger read(std::uint32_t shard) const noexcept {
    const Slot& s = slots_[shard];
    ShardLedger v;
    for (;;) {
      const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 & 1) continue;
      v.msgs_rx = s.msgs_rx.load(std::memory_order_relaxed);
      v.dispatched = s.dispatched.load(std::memory_order_relaxed);
      v.indications_rx = s.indications_rx.load(std::memory_order_relaxed);
      v.rate_shed = s.rate_shed.load(std::memory_order_relaxed);
      v.flood_shed = s.flood_shed.load(std::memory_order_relaxed);
      v.queue_shed = s.queue_shed.load(std::memory_order_relaxed);
      v.queued = s.queued.load(std::memory_order_relaxed);
      v.agent_reported_sheds =
          s.agent_reported_sheds.load(std::memory_order_relaxed);
      v.fanout_shed = s.fanout_shed.load(std::memory_order_relaxed);
      v.reply_shed = s.reply_shed.load(std::memory_order_relaxed);
      v.dir_events_lost = s.dir_events_lost.load(std::memory_order_relaxed);
      v.orphan_indications =
          s.orphan_indications.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) == s1) return v;
    }
  }

  [[nodiscard]] std::uint64_t epoch_of(std::uint32_t shard) const noexcept {
    return slots_[shard].epoch.load(std::memory_order_acquire);
  }
  /// Retire the current writer incarnation of `shard`'s slot (recovery).
  void bump_epoch(std::uint32_t shard) noexcept {
    slots_[shard].epoch.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Merge-on-query: the global ledger is the field-wise sum of the slots.
  [[nodiscard]] ShardLedger sum() const noexcept {
    ShardLedger total;
    for (std::uint32_t i = 0; i < shards_; ++i) total.add(read(i));
    return total;
  }

 private:
  std::uint32_t shards_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace flexric
