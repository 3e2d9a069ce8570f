#include "server/supervisor.hpp"

#include "server/sharded_server.hpp"

namespace flexric::server {

const char* shard_health_name(ShardHealth h) noexcept {
  switch (h) {
    case ShardHealth::healthy: return "healthy";
    case ShardHealth::degraded: return "degraded";
    case ShardHealth::quarantined: return "quarantined";
    case ShardHealth::recovering: return "recovering";
  }
  return "unknown";
}

ShardSupervisor::ShardSupervisor(ShardedE2Server& server, bool auto_restart)
    : server_(server),
      auto_restart_(auto_restart),
      states_(server.num_shards()) {}

void ShardSupervisor::transition(std::uint32_t shard, ShardHealth to) {
  ShardState& st = states_[shard];
  const ShardHealth from = st.health;
  if (from == to) return;
  st.health = to;
  if (on_transition_) on_transition_(shard, from, to);
}

void ShardSupervisor::quarantine(std::uint32_t shard, Nanos now) {
  ShardState& st = states_[shard];
  st.quarantined_at = now;
  st.fresh_polls = 0;
  stats_.quarantines++;
  // Containment before anything else: no new agents, no new queries, and
  // every in-flight cross-shard query fails fast with a transport cause.
  server_.contain_shard(shard);
  transition(shard, ShardHealth::quarantined);
  if (auto_restart_) restart(shard);
}

void ShardSupervisor::restart(std::uint32_t shard) {
  ShardState& st = states_[shard];
  if (st.health != ShardHealth::quarantined) return;
  server_.rebuild_shard(shard);
  st.restarts++;
  stats_.restarts++;
  // The rebuild reset the slot, so the replacement starts a fresh beat
  // history: baseline its age at the rebuild instant so it gets a full
  // kQuarantineAfter of grace.
  st.last_beats = 0;
  st.last_beat = last_now_;
  st.fresh_polls = 0;
  transition(shard, ShardHealth::recovering);
}

void ShardSupervisor::poll(Nanos now) {
  last_now_ = now;
  stats_.polls++;
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    ShardState& st = states_[i];
    const ShardCounterBoard::Beat b = server_.board().beat(i);
    if (b.count != st.last_beats) {
      st.last_beats = b.count;
      st.last_beat = b.at_ns;
    } else if (st.last_beats == 0 && st.last_beat == 0) {
      // Never beaten and never observed: grace starts at first sight, not
      // at the epoch, or a freshly built pool would be condemned at once.
      st.last_beat = now;
    }
    const Nanos age = now - st.last_beat;
    st.last_age = age;
    // A rebuilt shard's grace baseline is not a beat: until the
    // replacement beats once, no poll of it counts as fresh.
    const bool fresh = age <= kDegradedAfter && st.last_beats != 0;
    switch (st.health) {
      case ShardHealth::healthy:
        if (age > kQuarantineAfter) {
          quarantine(i, now);
        } else if (age > kDegradedAfter) {
          st.fresh_polls = 0;
          stats_.degradations++;
          transition(i, ShardHealth::degraded);
        }
        break;
      case ShardHealth::degraded:
        if (age > kQuarantineAfter) {
          quarantine(i, now);
        } else if (fresh) {
          if (++st.fresh_polls >= kRecoverHysteresis)
            transition(i, ShardHealth::healthy);
        } else {
          st.fresh_polls = 0;
        }
        break;
      case ShardHealth::quarantined:
        // Contained with auto_restart off: nothing to watch until
        // restart() is called.
        break;
      case ShardHealth::recovering:
        if (age > kQuarantineAfter) {
          // The replacement wedged too — quarantine (and rebuild) again.
          quarantine(i, now);
        } else if (fresh) {
          if (++st.fresh_polls >= kRecoverHysteresis) {
            stats_.recoveries++;
            stats_.mttr_last = now - st.quarantined_at;
            transition(i, ShardHealth::healthy);
          }
        } else {
          st.fresh_polls = 0;
        }
        break;
    }
  }
}

}  // namespace flexric::server
