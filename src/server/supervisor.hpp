// Shard supervision: watchdog-driven failure detection, quarantine and
// stateful recovery (DESIGN.md §15).
//
// Each shard loop's periodic ledger publish into its ShardCounterBoard slot
// is its heartbeat: the slot counts the publishes of the shard's current
// incarnation and keeps the reactor time of the newest. The home-side
// watchdog — this class — reads the beats and classifies every shard
// through a small state machine:
//
//   healthy ──stale──> degraded ──staler──> quarantined ──rebuild──>
//   recovering ──N fresh polls──> healthy
//
// with hysteresis on every edge back toward healthy (kRecoverHysteresis
// consecutive fresh polls), so one slow handler degrades a shard without
// flapping it and a limping replacement is not trusted early.
//
// Quarantine is containment + recovery, both on the home thread:
// ShardedE2Server::contain_shard stops routing agents/queries at the dead
// shard and fails in-flight cross-shard queries with a transport-style
// cause; rebuild_shard performs the stateful restart (ring drain/reseed,
// ledger harvest, reactor replacement under the same domain name, iApp and
// fan-out re-instantiation, directory resync) after which the shard's
// agents re-home through the PR-3 reconnect + subscription-replay
// machinery.
//
// Every duration is reactor-clock time: poll() takes `now` from whatever
// clock drives the home loop, so under a VirtualClock the entire
// detect/contain/rebuild/re-home sequence is bit-deterministic in the
// manual harness (tests/test_supervision.cpp) and MTTR is measured in
// virtual milliseconds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.hpp"
#include "common/counters.hpp"

namespace flexric::server {

class ShardedE2Server;

enum class ShardHealth : std::uint8_t {
  healthy = 0,
  degraded,
  quarantined,
  recovering,
};

[[nodiscard]] const char* shard_health_name(ShardHealth h) noexcept;

class ShardSupervisor {
 public:
  struct Stats {
    std::uint64_t polls = 0;
    std::uint64_t degradations = 0;   ///< healthy->degraded edges
    std::uint64_t quarantines = 0;    ///< ->quarantined edges
    std::uint64_t restarts = 0;       ///< rebuilds performed
    std::uint64_t recoveries = 0;     ///< recovering->healthy edges
    /// Last full quarantined->healthy recovery time (state-machine MTTR;
    /// the bench additionally measures detection->first-redelivered-
    /// indication). 0 until a recovery completes. A gauge, not a counter:
    /// outside the walk.
    Nanos mttr_last = 0;

    template <typename F, CounterGroup<Stats> S>
    friend constexpr void counters(F&& f, S& s) {
      f("polls", s.polls);
      f("degradations", s.degradations);
      f("quarantines", s.quarantines);
      f("restarts", s.restarts);
      f("recoveries", s.recoveries);
    }
  };

  /// Cadence of each shard's ledger publish, which is its heartbeat:
  /// comfortably below kDegradedAfter so a healthy shard does not flap.
  static constexpr Nanos kHeartbeatPeriod = 10 * kMilli;
  /// Beat older than this => degraded (watch, don't act yet — hysteresis
  /// against one slow handler or a scheduler hiccup).
  static constexpr Nanos kDegradedAfter = 50 * kMilli;
  /// Beat older than this => quarantined: contain + (auto_restart) rebuild.
  static constexpr Nanos kQuarantineAfter = 200 * kMilli;
  /// Consecutive fresh polls a recovering (or degraded) shard must deliver
  /// before it is trusted healthy again.
  static constexpr std::uint32_t kRecoverHysteresis = 3;

  /// `auto_restart` rebuilds a quarantined shard inside the poll that
  /// quarantines it; without it the shard stays contained until restart().
  ShardSupervisor(ShardedE2Server& server, bool auto_restart);

  /// One watchdog tick (home thread). `now` is home-reactor time — the
  /// same axis the shard heartbeats stamp, since every loop shares the
  /// clock. Classifies every shard, and on a quarantine edge contains the
  /// shard and (auto_restart) rebuilds it inside this call. Nothing polls
  /// by itself: the home loop's owner calls this (the deterministic world
  /// does every 1 ms quantum), so detection latency is kQuarantineAfter
  /// plus the owner's poll interval.
  void poll(Nanos now);

  [[nodiscard]] ShardHealth health(std::uint32_t shard) const noexcept {
    return states_[shard].health;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Beat age observed at the last poll (diagnostics / metrics).
  [[nodiscard]] Nanos last_age(std::uint32_t shard) const noexcept {
    return states_[shard].last_age;
  }
  /// Rebuilds performed on one shard.
  [[nodiscard]] std::uint32_t restarts_of(std::uint32_t shard) const noexcept {
    return states_[shard].restarts;
  }

  /// Observer for every state edge, fired on the home thread after the
  /// transition (and after the rebuild, for ->recovering). The harness uses
  /// it to resume pumping a rebuilt shard and to timestamp detection.
  using TransitionHook =
      std::function<void(std::uint32_t, ShardHealth, ShardHealth)>;
  void set_on_transition(TransitionHook hook) { on_transition_ = std::move(hook); }

  /// Manual recovery for a quarantined shard when auto_restart is off:
  /// contain already happened; this rebuilds and moves the shard to
  /// recovering.
  void restart(std::uint32_t shard);

 private:
  struct ShardState {
    ShardHealth health = ShardHealth::healthy;
    std::uint64_t last_beats = 0;  ///< newest beat count seen
    Nanos last_beat = 0;           ///< reactor time of that beat
    Nanos last_age = 0;
    std::uint32_t fresh_polls = 0;  ///< hysteresis counter toward healthy
    std::uint32_t restarts = 0;
    Nanos quarantined_at = 0;  ///< detection timestamp (MTTR start)
  };

  void transition(std::uint32_t shard, ShardHealth to);
  void quarantine(std::uint32_t shard, Nanos now);

  ShardedE2Server& server_;
  bool auto_restart_;
  std::vector<ShardState> states_;
  Stats stats_;
  TransitionHook on_transition_;
  Nanos last_now_ = 0;  ///< time of the newest poll (restart() baseline)
};

}  // namespace flexric::server
