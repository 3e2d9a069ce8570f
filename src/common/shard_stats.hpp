// Cache-aligned per-shard counter board (DESIGN.md §13, §15).
//
// Each shard owns one 64-byte-aligned slot of atomics and is the only
// writer of that slot; any thread may read and sum. A per-slot seqlock
// keeps the ledger image untorn across fields (the write side is wait-free,
// the read side retries only while a publish is in flight). This is the
// merge-on-query half of the sharded stats story: shards publish their
// E2Server ledger into their slot from their own reactor thread (a timer in
// ShardedE2Server), and a northbound query sums the slots — no lock, no
// shared hot-path state, no cross-shard cache-line ping-pong (each slot is
// alone on its line).
//
// The same publish is the shard's heartbeat: the slot counts its
// incarnation's publishes and keeps the publishing reactor's time of the
// newest, and the ShardSupervisor watchdog reads that beat to tell a live
// loop from a wedged one. A loop that stops turning stops publishing.
//
// The ledger's fields are declared once, in ServerLedger / ShardLedger and
// their counters() walks (common/counters.hpp). The slot and the sum derive
// from the walks, and reconcile() below states each of the two ledger
// equations of DESIGN.md §11 once, for tests, benches and soaks alike.
//
// Sanctioned use of <atomic> outside src/transport/ (flexric-analyze's
// thread-primitives rule, kThreadOkFiles): publishing counters across shard
// threads is impossible without atomics; keeping them in this one header
// keeps the rest of the SDK atomic-free.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/counters.hpp"

namespace flexric {

/// The §11 counters an E2Server keeps and its shard ledger carries.
/// E2Server::Stats derives from it, so the server's hot path stays
/// `stats_.x++` and its ledger image is a slice copy.
struct ServerLedger {
  std::uint64_t msgs_rx = 0;
  std::uint64_t dispatched = 0;       ///< frames decoded+dispatched
  std::uint64_t indications_rx = 0;
  std::uint64_t rate_shed = 0;        ///< DATA shed by the rate limiter
  std::uint64_t flood_shed = 0;       ///< DATA dropped while flood-quarantined
  std::uint64_t queue_shed = 0;       ///< ingest queue sheds, both classes
  std::uint64_t data_queue_shed = 0;  ///< the DATA (indication) share of it
  std::uint64_t agent_reported_sheds = 0;  ///< sum of peer shed reports
  /// Indications for a subscription this server does not know — e.g. an
  /// agent flushing its buffered backlog against a restarted shard whose
  /// replacement allocated different request ids (DESIGN.md §15). A
  /// counted drop, never a silent one.
  std::uint64_t orphan_indications = 0;

  bool operator==(const ServerLedger&) const = default;

  template <typename F, CounterGroup<ServerLedger> S>
  friend constexpr void counters(F&& f, S& s) {
    f("msgs_rx", s.msgs_rx);
    f("dispatched", s.dispatched);
    f("indications_rx", s.indications_rx);
    f("rate_shed", s.rate_shed);
    f("flood_shed", s.flood_shed);
    f("queue_shed", s.queue_shed);
    f("data_queue_shed", s.data_queue_shed);
    f("agent_reported_sheds", s.agent_reported_sheds);
    f("orphan_indications", s.orphan_indications);
  }
};

/// Plain (non-atomic) image of one slot / of the summed board: the server's
/// counters plus the ingest backlog and what only the shard relay sees.
struct ShardLedger : ServerLedger {
  std::uint64_t queued = 0;           ///< admitted, not yet dispatched
  std::uint64_t data_queued = 0;      ///< the DATA (indication) share of it
  /// Admitted frames destroyed with a rebuilt shard's ingest queue (§15);
  /// their DATA share is also in the RIC's supervisor_shed.
  std::uint64_t stranded = 0;
  std::uint64_t fanout_shed = 0;      ///< cross-shard indication ring overflow
  std::uint64_t reply_shed = 0;       ///< northbound reply ring overflow
  std::uint64_t dir_events_lost = 0;  ///< directory event ring overflow (resync)

  bool operator==(const ShardLedger&) const = default;

  template <typename F, CounterGroup<ShardLedger> S>
  friend constexpr void counters(F&& f, S& s) {
    counters(f, as_base<ServerLedger>(s));
    f("queued", s.queued);
    f("data_queued", s.data_queued);
    f("stranded", s.stranded);
    f("fanout_shed", s.fanout_shed);
    f("reply_shed", s.reply_shed);
    f("dir_events_lost", s.dir_events_lost);
  }
};

static_assert(sizeof(ShardLedger) ==
                  counter_count<ShardLedger>() * sizeof(std::uint64_t),
              "every ShardLedger member needs its counters() line");

/// Both sides of a ledger equation; it closes when they are equal.
struct Balance {
  std::uint64_t in = 0;   ///< entered the ledger
  std::uint64_t out = 0;  ///< delivered, shed with a counted reason, or held
  [[nodiscard]] bool closes() const noexcept { return in == out; }
};

/// Server ledger (DESIGN.md §11): every frame received was handed to its
/// handler, shed with a counted reason, still waits in the ingest queue, or
/// died with a rebuilt shard's queue.
[[nodiscard]] inline Balance reconcile(const ShardLedger& l) noexcept {
  const std::uint64_t shed = l.rate_shed + l.flood_shed + l.queue_shed;
  return {l.msgs_rx, l.dispatched + shed + l.queued + l.stranded};
}

/// What the far ends of the indication path saw: the RAN functions, the
/// agents' buffers and the subscribers.
struct IndicationFlow {
  std::uint64_t emitted = 0;     ///< by RAN functions
  std::uint64_t delivered = 0;   ///< to subscribers
  std::uint64_t buffered = 0;    ///< still in agent-side buffers
  std::uint64_t agent_shed = 0;  ///< shed or refused agent-side
  std::uint64_t supervisor_shed = 0;  ///< lost to a shard rebuild (§15)
};

/// Indication ledger (DESIGN.md §11): every indication emitted was
/// delivered, is still buffered agent-side, or was shed with a counted
/// reason. Server-side only DATA-class sheds count: a CONTROL frame the
/// ingest queue shed was never an indication.
[[nodiscard]] inline Balance reconcile(const IndicationFlow& f,
                                       const ShardLedger& l) noexcept {
  const std::uint64_t server_shed = l.rate_shed + l.flood_shed +
      l.data_queue_shed + l.fanout_shed + l.orphan_indications;
  return {f.emitted, f.delivered + f.buffered + f.agent_shed +
                         f.supervisor_shed + server_shed};
}

class ShardCounterBoard {
 public:
  /// A shard's heartbeat: how many ledgers its current incarnation has
  /// published, and the publishing reactor's time at the newest one.
  struct Beat {
    std::uint64_t count = 0;
    std::int64_t at_ns = 0;
  };

  /// Cache-line aligned per shard; the shard index is the only writer key.
  struct alignas(64) Slot {
    /// Seqlock sequence: odd while the owning shard is mid-publish. Readers
    /// retry until they observe the same even value before and after the
    /// field loads, so a ledger image is never torn across fields.
    std::atomic<std::uint64_t> seq{0};
    /// Incarnation epoch (DESIGN.md §15): a publish stamped with a stale
    /// epoch is dropped, so a force-restarted shard's leaked corpse loop
    /// cannot scribble over the replacement's slot (or beat for it) if it
    /// ever un-wedges.
    std::atomic<std::uint64_t> epoch{0};
    std::array<std::atomic<std::uint64_t>, counter_count<ShardLedger>()>
        fields{};
    std::atomic<std::uint64_t> beats{0};  ///< Beat::count
    std::atomic<std::int64_t> beat_ns{0};  ///< Beat::at_ns
  };

  explicit ShardCounterBoard(std::uint32_t shards)
      : shards_(shards), slots_(std::make_unique<Slot[]>(shards)) {}

  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }

  /// Publish into `shard`'s slot under its current epoch.
  void publish(std::uint32_t shard, const ShardLedger& v) noexcept {
    publish(shard, v, epoch_of(shard));
  }

  /// The writing shard publishes a full ledger image, which is also one
  /// beat stamped `now_ns`. Writers born before the last bump_epoch() are
  /// silently dropped: no ledger, no beat. The residual race — a writer
  /// that passed the check and then stalled mid-publish — is confined to
  /// threaded force-restart (the caller also retires that incarnation's
  /// rings, so the slot is the only shared cell, and the rebuild's reset
  /// and the replacement's next publish overwrite it).
  void publish(std::uint32_t shard, const ShardLedger& v, std::uint64_t epoch,
               std::int64_t now_ns = 0) noexcept {
    Slot& s = slots_[shard];
    if (epoch != s.epoch.load(std::memory_order_acquire)) return;
    write(s, v, {s.beats.load(std::memory_order_relaxed) + 1, now_ns});
  }

  /// Recovery: zero `shard`'s slot (an empty ledger and no beat), so the
  /// replacement's ledger and heartbeat history start fresh. Not a beat.
  void reset(std::uint32_t shard) noexcept {
    write(slots_[shard], ShardLedger{}, Beat{});
  }

  [[nodiscard]] ShardLedger read(std::uint32_t shard) const noexcept {
    const Slot& s = slots_[shard];
    ShardLedger v;
    read_untorn(s, [&] {
      std::size_t i = 0;
      counters(
          [&](std::string_view, std::uint64_t& x) {
            x = s.fields[i++].load(std::memory_order_acquire);
          },
          v);
    });
    return v;
  }

  /// Watchdog-side: the newest beat, untorn from the ledger beside it.
  [[nodiscard]] Beat beat(std::uint32_t shard) const noexcept {
    const Slot& s = slots_[shard];
    Beat b;
    read_untorn(s, [&] {
      b.count = s.beats.load(std::memory_order_acquire);
      b.at_ns = s.beat_ns.load(std::memory_order_acquire);
    });
    return b;
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
    for (std::uint32_t i = 0; i < shards_; ++i) add_counters(total, read(i));
    return total;
  }

 private:
  /// Seqlock write side (Boehm-style), with the ordering on the atomics
  /// themselves: bump the sequence odd, release-store each field (so the
  /// odd sequence is visible to whoever reads that field), then
  /// release-store the sequence even. The reader acquire-loads each field,
  /// so its closing sequence load cannot move above them. A reader that
  /// sees the same even sequence on both sides of its loads got an untorn
  /// image — the §11 reconciliation invariant holds across fields, not just
  /// within each one. No fences: ThreadSanitizer models this ordering, and
  /// on x86 it costs nothing. The sequence starts from the even value at or
  /// below the current one, so the residual race's second writer cannot
  /// leave it odd, which would stall every reader for good.
  static void write(Slot& s, const ShardLedger& v, Beat b) noexcept {
    const std::uint64_t s0 =
        s.seq.load(std::memory_order_relaxed) & ~std::uint64_t{1};
    s.seq.store(s0 + 1, std::memory_order_relaxed);
    std::size_t i = 0;
    counters(
        [&](std::string_view, std::uint64_t x) {
          s.fields[i++].store(x, std::memory_order_release);
        },
        v);
    s.beats.store(b.count, std::memory_order_release);
    s.beat_ns.store(b.at_ns, std::memory_order_release);
    s.seq.store(s0 + 2, std::memory_order_release);
  }

  /// Seqlock read side: rerun `load` while a publish is in flight (odd
  /// sequence) or raced past it (sequence changed across the loads).
  template <typename Load>
  static void read_untorn(const Slot& s, Load&& load) noexcept {
    for (;;) {
      const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 & 1) continue;
      load();
      if (s.seq.load(std::memory_order_relaxed) == s1) return;
    }
  }

  std::uint32_t shards_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace flexric
