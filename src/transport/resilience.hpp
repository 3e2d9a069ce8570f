// Resilience knobs for the agent side of the E2 connection layer.
//
// The paper runs E2 over SCTP precisely because RAN<->RIC links fail in
// practice (node restarts, transient partitions). The agent recovers with
// reconnect backoff (exponential with decorrelated jitter), E2 Setup
// replay, a heartbeat (empty RICserviceUpdate on stream 0) with a miss
// threshold that forces reconnection, and a setup-response timeout for
// half-open links. The server side — per-agent liveness and transparent
// re-establishment — is configured on E2Server::Config.
//
// Everything runs on the owning Reactor thread; with a VirtualClock
// installed on the reactor the whole recovery state machine is
// bit-deterministic (see tests/test_resilience.cpp).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace flexric {

struct ResilienceConfig {
  // -- agent: reconnect backoff ---------------------------------------------
  /// Reconnect after connection loss (only possible when the controller was
  /// added with a TransportFactory; a bare transport cannot be re-dialed).
  bool reconnect = true;
  /// First retry delay; also the lower bound of every jittered delay.
  Nanos backoff_base = 100 * kMilli;
  /// Upper bound on any retry delay. Retries never give up.
  Nanos backoff_cap = 10 * kSecond;
  /// Seed for the jitter RNG — fixed seed => bit-identical retry schedule.
  std::uint64_t seed = 0x5EED;

  // -- agent: heartbeat -----------------------------------------------------
  /// Period of the liveness probe (empty RICserviceUpdate on stream 0);
  /// 0 disables the heartbeat.
  Nanos heartbeat_period = kSecond;
  /// Consecutive unanswered probes before the link is declared dead and a
  /// reconnect is forced.
  std::uint32_t heartbeat_miss_threshold = 3;
  /// E2 Setup sent but no response within this window => reconnect (guards
  /// against a link that dies exactly during the handshake). 0 disables.
  Nanos setup_timeout = 3 * kSecond;
};

/// Decorrelated-jitter backoff: first delay is `base`, then
/// uniform(base, min(cap, 3 * previous)). Spreads reconnect storms while
/// still growing roughly exponentially; fully determined by the Rng state.
inline Nanos next_backoff(const ResilienceConfig& rc, Nanos prev, Rng& rng) {
  if (prev <= 0) return std::min(rc.backoff_base, rc.backoff_cap);
  Nanos hi = std::min(rc.backoff_cap, 3 * prev);
  if (hi <= rc.backoff_base) return std::min(rc.backoff_base, rc.backoff_cap);
  Nanos span = hi - rc.backoff_base;
  return rc.backoff_base +
         static_cast<Nanos>(rng.bounded(static_cast<std::uint64_t>(span) + 1));
}

}  // namespace flexric
