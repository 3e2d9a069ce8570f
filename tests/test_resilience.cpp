// Deterministic chaos harness for the E2 resilience layer (agent reconnect
// with backoff, E2 Setup replay, heartbeat liveness, server-side retention
// and transparent subscription re-establishment).
//
// Everything runs in one test::World (world.hpp) driven by a VirtualClock:
// faults, backoff delays, heartbeats and liveness scans are all reactor
// timers, so a fixed seed produces a bit-identical schedule. The chaos soak
// is one script run over the plain server and 1/2/4 shards; override its
// seed set with FLEXRIC_CHAOS_SEEDS="1,2,3" (used by ci.sh --chaos for
// longer soaks). A failing instance is printed via SCOPED_TRACE so it can
// be replayed exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.hpp"
#include "transport/faulty.hpp"
#include "transport/resilience.hpp"
#include "world.hpp"

namespace flexric {
namespace {

using test::kPlain;
using test::World;

/// Server posture for chaos: retain and re-establish, never expire.
server::ShardedConfig chaos_cfg() {
  server::ShardedConfig cfg;
  cfg.server.quarantine_after = 2 * kSecond;
  // long: chaos must not expire the agent
  cfg.server.expire_after = 60 * kSecond;
  return cfg;
}

/// Agent posture for chaos: twitchy, so it reconnects within the budget.
ResilienceConfig chaos_rc() {
  ResilienceConfig rc;
  rc.backoff_base = 50 * kMilli;
  rc.backoff_cap = kSecond;
  rc.heartbeat_period = 200 * kMilli;
  rc.heartbeat_miss_threshold = 3;
  rc.setup_timeout = 500 * kMilli;
  return rc;
}

/// Time a lossy-linked or partitioned agent gets to establish.
constexpr Nanos kChaosBudget = 30 * kSecond;

/// Add the one agent of a plain chaos world; `seed` seeds its backoff
/// jitter and its links' faults. It dials at once.
World::Node& chaos_agent(World& w, std::uint64_t seed,
                         ResilienceConfig rc = chaos_rc()) {
  w.agent_rc = rc;
  return w.add_agent(0, 0, e2ap::NodeType::gnb, {}, seed);
}

// ---------------------------------------------------------------------------
// Backoff unit tests
// ---------------------------------------------------------------------------

TEST(Backoff, FirstDelayIsBaseThenJitteredWithinBounds) {
  ResilienceConfig rc;
  rc.backoff_base = 100 * kMilli;
  rc.backoff_cap = 2 * kSecond;
  Rng rng(42);
  Nanos prev = 0;
  prev = next_backoff(rc, prev, rng);
  EXPECT_EQ(prev, rc.backoff_base);
  for (int i = 0; i < 50; ++i) {
    Nanos hi = std::min(rc.backoff_cap, 3 * prev);
    Nanos d = next_backoff(rc, prev, rng);
    EXPECT_GE(d, rc.backoff_base);
    EXPECT_LE(d, std::max(hi, rc.backoff_base));
    EXPECT_LE(d, rc.backoff_cap);
    prev = d;
  }
}

TEST(Backoff, SameSeedSameSchedule) {
  ResilienceConfig rc;
  Rng a(7), b(7);
  Nanos pa = 0, pb = 0;
  for (int i = 0; i < 32; ++i) {
    pa = next_backoff(rc, pa, a);
    pb = next_backoff(rc, pb, b);
    EXPECT_EQ(pa, pb) << "diverged at step " << i;
  }
}

TEST(Backoff, CapNeverExceeded) {
  ResilienceConfig rc;
  rc.backoff_base = 400 * kMilli;
  rc.backoff_cap = 500 * kMilli;
  Rng rng(3);
  Nanos prev = 0;
  for (int i = 0; i < 64; ++i) {
    prev = next_backoff(rc, prev, rng);
    EXPECT_LE(prev, rc.backoff_cap);
    EXPECT_GE(prev, std::min(rc.backoff_base, rc.backoff_cap));
  }
}

// ---------------------------------------------------------------------------
// Recovery state machine on the virtual clock (single seed, exact timing)
// ---------------------------------------------------------------------------

TEST(Resilience, EstablishesThroughFactoryAndHeartbeats) {
  World w(kPlain, chaos_cfg());
  auto& n = chaos_agent(w, 5);
  ASSERT_TRUE(w.converge(n, kChaosBudget));
  EXPECT_EQ(n.dials, 1);
  EXPECT_EQ(w.server().ran_db().num_agents(), 1u);

  // Heartbeats flow and are acked without DB/iApp churn.
  auto log_before = w.events[0]->log;
  w.advance(2 * kSecond);
  EXPECT_GE(n.agent->stats().heartbeats_tx, 5u);
  EXPECT_EQ(n.agent->stats().heartbeat_misses, 0u);
  EXPECT_GE(w.server().stats().heartbeats_rx, 5u);
  EXPECT_EQ(w.events[0]->log, log_before);  // no events from liveness traffic
}

TEST(Resilience, BackoffTimingIsObservableOnVirtualClock) {
  World w(kPlain, chaos_cfg());
  const ResilienceConfig rc = chaos_rc();
  w.refuse_dials = true;  // every dial refused until we allow it
  auto& n = chaos_agent(w, 9, rc);
  EXPECT_EQ(n.agent->state(n.ctrl), agent::ConnState::reconnecting);
  EXPECT_EQ(n.dials, 1);

  // First retry fires at exactly backoff_base (first delay is the base).
  w.advance(rc.backoff_base - 5 * kMilli);
  EXPECT_EQ(n.dials, 1);  // not yet
  w.advance(10 * kMilli);
  EXPECT_EQ(n.dials, 2);  // fired within [base, base+5ms]

  // Let several more attempts fail: attempts are spaced within
  // [base, cap] and the counter grows monotonically.
  int before = n.dials;
  w.advance(5 * kSecond);
  EXPECT_GT(n.dials, before);
  EXPECT_GE(n.agent->stats().reconnect_failures,
            static_cast<std::uint64_t>(n.dials - 1));

  w.refuse_dials = false;
  ASSERT_TRUE(w.converge(n, kChaosBudget));
  EXPECT_GE(n.agent->stats().reconnects, 1u);
}

TEST(Resilience, SetupTimeoutRedialsHalfOpenLink) {
  World w(kPlain, chaos_cfg());
  const ResilienceConfig rc = chaos_rc();
  // Eat every outbound message: the SetupRequest vanishes, the link looks
  // open, and only the setup timeout can save us.
  w.link_profile.tx.drop = 1.0;
  auto& n = chaos_agent(w, 11, rc);
  EXPECT_EQ(n.agent->state(n.ctrl), agent::ConnState::setup_sent);

  w.advance(rc.setup_timeout + 50 * kMilli);
  EXPECT_NE(n.agent->state(n.ctrl), agent::ConnState::established);
  EXPECT_GE(n.dials, 1);

  n.profile = FaultProfile{};  // heal: subsequent links are clean
  ASSERT_TRUE(w.converge(n, kChaosBudget));
  // The half-open link was abandoned and a fresh dial succeeded. (This is
  // NOT a setup replay: the conn had never established before.)
  EXPECT_GE(n.dials, 2);
  EXPECT_GE(n.agent->stats().reconnects, 1u);
}

TEST(Resilience, HeartbeatMissesForceReconnectThroughPartition) {
  World w(kPlain, chaos_cfg());
  const ResilienceConfig rc = chaos_rc();
  auto& n = chaos_agent(w, 13, rc);
  ASSERT_TRUE(w.converge(n, kChaosBudget));

  // Partition the live link forever; only the heartbeat can notice.
  n.link->set_partitioned(true);
  const Nanos detect_budget =
      rc.heartbeat_period * (rc.heartbeat_miss_threshold + 2);

  // The agent must NOT give up before threshold misses are possible.
  w.advance(rc.heartbeat_period);
  EXPECT_TRUE(w.established(n));

  w.advance(detect_budget);
  EXPECT_GE(n.agent->stats().heartbeat_misses,
            static_cast<std::uint64_t>(rc.heartbeat_miss_threshold));
  ASSERT_TRUE(w.converge(n, kChaosBudget));
  EXPECT_GE(n.dials, 2);  // re-dialed a fresh (unpartitioned) link
  EXPECT_GE(n.agent->stats().reconnects, 1u);
}

// The miss-threshold boundary is exact: the agent holds the link through
// N-1 unanswered heartbeats and declares the connection dead on the tick
// that records the Nth miss — not a tick earlier, not a tick later. This
// pins the `hb_missed >= threshold` comparison: an off-by-one in either
// direction (detect at N-1, or require N+1) moves a whole heartbeat period
// of detection latency and shows up in supervision MTTR.
TEST(Resilience, HeartbeatMissBoundaryDetectsAtExactlyThreshold) {
  World w(kPlain, chaos_cfg());
  const ResilienceConfig rc = chaos_rc();
  const std::uint32_t n = rc.heartbeat_miss_threshold;  // 3 by default
  ASSERT_GE(n, 2u);
  auto& a = chaos_agent(w, 17, rc);
  ASSERT_TRUE(w.converge(a, kChaosBudget));

  // Phase-align to just past a heartbeat tick whose probe got acked, so
  // every subsequent advance of one period lands exactly one tick.
  const std::uint64_t tx0 = a.agent->stats().heartbeats_tx;
  for (Nanos t = 0; a.agent->stats().heartbeats_tx == tx0; t += kMilli) {
    ASSERT_LT(t, 2 * rc.heartbeat_period) << "heartbeat never ticked";
    w.advance(kMilli);
  }
  w.advance(kMilli);  // let the ack land

  a.link->set_partitioned(true);
  const std::uint64_t base = a.agent->stats().heartbeat_misses;
  const int dials_before = a.dials;

  // Tick 1 sends a probe into the void: nothing chargeable yet.
  w.advance(rc.heartbeat_period);
  EXPECT_EQ(a.agent->stats().heartbeat_misses, base);
  EXPECT_TRUE(w.established(a));

  // Ticks 2..N record misses 1..N-1: the link must be held at every one.
  for (std::uint32_t m = 1; m < n; ++m) {
    w.advance(rc.heartbeat_period);
    EXPECT_EQ(a.agent->stats().heartbeat_misses, base + m);
    EXPECT_TRUE(w.established(a))
        << "gave up at " << m << " misses (threshold " << n << ")";
    EXPECT_EQ(a.dials, dials_before);
  }

  // The next tick records miss N: detection fires on THIS tick, tearing
  // the partitioned link down and re-dialing a fresh one.
  w.advance(rc.heartbeat_period);
  EXPECT_EQ(a.agent->stats().heartbeat_misses, base + n)
      << "detection must not eat or double-charge the Nth miss";
  EXPECT_FALSE(w.established(a))
      << "did not give up at exactly " << n << " misses";
  ASSERT_TRUE(w.converge(a, kChaosBudget));
  EXPECT_GT(a.dials, dials_before);  // fresh (unpartitioned) link
  EXPECT_GE(a.agent->stats().reconnects, 1u);
}

TEST(Resilience, ServerQuarantinesThenExpiresSilentAgent) {
  server::ShardedConfig cfg = chaos_cfg();
  cfg.server.quarantine_after = kSecond;
  cfg.server.expire_after = 3 * kSecond;
  const server::E2Server::Config& srv = cfg.server;
  World w(kPlain, cfg);
  ResilienceConfig rc = chaos_rc();
  rc.heartbeat_period = 0;  // mute agent: nothing keeps the link warm
  rc.reconnect = false;     // and it stays gone once the server expires it
  auto& n = chaos_agent(w, 17, rc);
  ASSERT_TRUE(w.converge(n, kChaosBudget));
  ASSERT_EQ(w.server().ran_db().num_agents(), 1u);

  // Partition: the server hears nothing from a "connected" agent.
  const auto& log = w.events[0]->log;
  n.link->set_partitioned(true);
  w.advance(srv.quarantine_after + srv.quarantine_after / 2);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back(), "quarantine:1");
  EXPECT_EQ(w.server().ran_db().num_agents(), 1u);  // state retained

  w.advance(srv.expire_after + srv.quarantine_after);
  EXPECT_EQ(log.back(), "disconnect:1");
  EXPECT_EQ(w.server().ran_db().num_agents(), 0u);
  EXPECT_EQ(w.server().num_connections(), 0u);
  EXPECT_EQ(w.server().num_subscriptions(), 0u);
  EXPECT_GE(w.server().stats().quarantines, 1u);
  EXPECT_GE(w.server().stats().expiries, 1u);
}

TEST(Resilience, ReestablishmentKeepsIdAndReplaysSubscriptionsOnce) {
  World w(kPlain, chaos_cfg());
  auto& n = chaos_agent(w, 19);
  ASSERT_TRUE(w.converge(n, kChaosBudget));
  ASSERT_EQ(n.id, 1u);

  w.subscribe(n);
  ASSERT_EQ(n.sub_responses, 1);
  ASSERT_EQ(n.fn->subs, 1);

  n.fn->emit(n.ctrl);
  w.settle();
  ASSERT_EQ(n.indications, 1);

  // Kill the link; the agent returns and the server must splice it back.
  n.link->kill();
  ASSERT_TRUE(w.converge(n, kChaosBudget));

  EXPECT_EQ(w.server().ran_db().num_agents(), 1u);
  const auto* info = w.server().ran_db().agent(1);
  ASSERT_NE(info, nullptr);  // SAME AgentId as before the cut
  EXPECT_TRUE(info->connected);
  EXPECT_EQ(w.server().num_connections(), 1u);  // no stale detached twin

  // Subscription was replayed to the agent exactly once more, silently.
  w.advance(100 * kMilli);
  EXPECT_EQ(n.fn->subs, 2);
  EXPECT_EQ(n.sub_responses, 1) << "replay must not re-surface on_response";
  EXPECT_EQ(w.server().stats().subs_replayed, 1u);

  // ...and it still delivers on the SAME handle/callback.
  n.fn->emit(n.ctrl);
  w.settle();
  EXPECT_EQ(n.indications, 2);

  // iApps saw one reconnect event and zero disconnect/connect churn.
  int reconnects = 0, disconnects = 0, connects = 0;
  for (const auto& e : w.events[0]->log) {
    if (e == "reconnect:1") reconnects++;
    if (e == "disconnect:1") disconnects++;
    if (e == "connect:1") connects++;
  }
  EXPECT_EQ(reconnects, 1);
  EXPECT_EQ(disconnects, 0);
  EXPECT_EQ(connects, 1);  // only the original connect
}

TEST(Resilience, InflightControlFailsFastWithTransportCause) {
  World w(kPlain, chaos_cfg());
  auto& n = chaos_agent(w, 23);
  ASSERT_TRUE(w.converge(n, kChaosBudget));

  bool failed = false;
  e2ap::Cause cause;
  server::CtrlCallbacks cbs;
  cbs.on_ack = [&](const e2ap::ControlAck&) { FAIL() << "ack after link cut"; };
  cbs.on_failure = [&](const e2ap::ControlFailure& f) {
    failed = true;
    cause = f.cause;
  };
  ASSERT_TRUE(w.server()
                  .send_control(n.id, 200, Buffer{0x01}, Buffer{0x02},
                                std::move(cbs))
                  .is_ok());
  ASSERT_EQ(w.server().num_inflight_controls(), 1u);

  // Cut the link before the request reaches the agent: the answer can never
  // come, so the iApp must get a synthetic transport failure immediately.
  n.link->kill();
  w.settle();
  EXPECT_TRUE(failed);
  EXPECT_EQ(cause.group, e2ap::Cause::Group::transport);
  EXPECT_EQ(w.server().num_inflight_controls(), 0u);
  EXPECT_GE(w.server().stats().ctrls_failed_on_loss, 1u);
}

// ---------------------------------------------------------------------------
// Adversarial framing: a hostile peer claims absurd frame lengths
// ---------------------------------------------------------------------------

TEST(FrameAssembler, OversizedLengthClaimFailsBeforeBuffering) {
  FrameAssembler rx;
  rx.set_max_frame(1024);
  EXPECT_EQ(rx.max_frame(), 1024u);

  // A 6-byte header claiming a 1 GiB payload: rejected the moment the
  // header is parseable, without waiting for (or allocating) the payload.
  Buffer hostile = {0x00, 0x00, 0x00, 0x40,  // len = 0x40000000
                    0x00, 0x00};             // stream 0
  int frames = 0;
  Status st = rx.feed(BytesView(hostile), [&](StreamId, BytesView) {
    frames++;
    return true;
  });
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::malformed);
  EXPECT_EQ(frames, 0);
  EXPECT_EQ(rx.buffered(), hostile.size())
      << "only the hostile header itself may be buffered, never the claim";
}

TEST(FrameAssembler, BoundarySizedFramePassesOneByteOverFails) {
  FrameAssembler rx;
  rx.set_max_frame(1024);

  // Exactly at the cap: legal, delivered intact even when dribbled.
  Buffer payload(1024, 0xEE);
  Buffer wire;
  append_frame(wire, BytesView(payload), 7);
  std::size_t got = 0;
  StreamId got_stream = 0;
  for (std::size_t i = 0; i < wire.size(); i += 13) {  // adversarial chunking
    std::size_t n = std::min<std::size_t>(13, wire.size() - i);
    ASSERT_TRUE(rx.feed(BytesView(wire).subspan(i, n),
                        [&](StreamId s, BytesView msg) {
                          got = msg.size();
                          got_stream = s;
                          return true;
                        })
                    .is_ok());
  }
  EXPECT_EQ(got, 1024u);
  EXPECT_EQ(got_stream, 7u);
  EXPECT_EQ(rx.buffered(), 0u);

  // One byte over the cap: malformed, and the stream is poisoned from then
  // on (a desynchronized peer cannot resynchronize mid-stream).
  Buffer big(1025, 0xEE);
  Buffer wire2;
  append_frame(wire2, BytesView(big), 0);
  Status st = rx.feed(BytesView(wire2), [](StreamId, BytesView) {
    ADD_FAILURE() << "oversized frame must not be delivered";
    return true;
  });
  EXPECT_EQ(st.code(), Errc::malformed);
}

TEST(FrameAssembler, DefaultCapIsTheWireConstant) {
  FrameAssembler rx;
  EXPECT_EQ(rx.max_frame(), kMaxFrameSize);
}

// ---------------------------------------------------------------------------
// Seeded chaos soak: drop/delay/duplicate/reorder/corrupt + partitions +
// abrupt kills, then convergence must hold. One script over the plain
// server and 1/2/4 shards: one lossy-linked agent per server with a
// per-server derived seed, one seeded schedule across all of them. Every
// server must converge independently, a sharded RIC's merged directory must
// agree with its shards, and the whole run must replay byte-identically.
// ---------------------------------------------------------------------------

/// Run the full chaos scenario for one (server, seed); returns the trace
/// the double run compares.
std::string run_chaos(std::uint32_t shards, std::uint64_t seed) {
  World w(shards, chaos_cfg());
  w.agent_rc = chaos_rc();
  std::vector<World::Node*> nodes;
  for (std::uint32_t s = 0; s < w.num_servers(); ++s) {
    auto& n = w.add_agent(s, 0, e2ap::NodeType::gnb, {}, seed * 1000003 + s);
    n.profile.tx = {0.05, 0.02, 0.01, 0.02, 2 * kMilli};
    n.profile.rx = {0.05, 0.02, 0.01, 0.02, 2 * kMilli};
    nodes.push_back(&n);
  }
  for (auto* n : nodes)
    EXPECT_TRUE(w.converge(*n, kChaosBudget))
        << "server " << n->shard << " never established under lossy link";

  // The stable AgentIds are assigned at the first successful E2 Setup — a
  // lossy link may burn connection ids before that (dropped SetupRequest,
  // setup-timeout redial), so converge() discovers them. From here on they
  // must never change: that is the re-establishment contract.
  std::vector<server::AgentId> first_ids;
  for (auto* n : nodes) {
    EXPECT_EQ(w.server(n->shard).ran_db().num_agents(), 1u)
        << "server " << n->shard;
    first_ids.push_back(n->id);
    w.subscribe(*n, /*wait=*/false);
  }

  // Scripted chaos across every server from ONE seeded schedule: kills,
  // partitions and quiet spells land on seed-chosen nodes.
  Rng chaos(seed ^ 0xC0FFEE);
  for (int ev = 0; ev < 12; ++ev) {
    w.advance(100 * kMilli + static_cast<Nanos>(chaos.bounded(400)) * kMilli);
    auto* n = nodes[chaos.bounded(static_cast<std::uint32_t>(nodes.size()))];
    switch (chaos.bounded(3)) {
      case 0:
        if (n->link) n->link->kill();
        break;
      case 1:
        if (n->link)
          n->link->partition_for(
              100 * kMilli + static_cast<Nanos>(chaos.bounded(900)) * kMilli);
        break;
      default:
        break;  // quiet spell
    }
  }

  // Faults off: every future link is clean. Force one last reconnect onto
  // a clean link everywhere; every server must converge.
  for (auto* n : nodes) {
    n->profile = FaultProfile{};
    if (n->link) n->link->kill();
  }
  for (auto* n : nodes)
    EXPECT_TRUE(w.converge(*n, kChaosBudget))
        << "server " << n->shard << " did not re-establish after chaos";

  // Convergence invariants: exactly one live agent per node, zero stale
  // state, the same AgentIds and (sharded) an agreeing directory.
  w.expect_converged();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const World::Node& n = *nodes[i];
    server::E2Server& srv = w.server(n.shard);
    EXPECT_EQ(n.id, first_ids[i])
        << "server " << n.shard << " churned its AgentId";
    const auto* info = srv.ran_db().agent(n.id);
    EXPECT_NE(info, nullptr) << "agent id churned across reconnects";
    if (info != nullptr) { EXPECT_TRUE(info->connected); }
    EXPECT_EQ(srv.stats().misrouted, 0u) << "server " << n.shard;
    EXPECT_EQ(srv.num_inflight_controls(), 0u);
    EXPECT_LE(srv.num_subscriptions(), 1u);
  }

  // Each subscription (if it survived - a replay rejection is allowed only
  // via on_failure) must be delivering again.
  w.advance(100 * kMilli);
  for (auto* n : nodes) {
    if (w.server(n->shard).num_subscriptions() == 1) {
      const int before = n->indications;
      n->fn->emit(n->ctrl);
      w.settle();
      EXPECT_GT(n->indications, before)
          << "server " << n->shard << ": subscription stopped delivering";
    } else {
      EXPECT_GE(n->sub_failures, 1)
          << "server " << n->shard << ": subscription vanished without "
          << "on_failure";
    }
  }

  // Liveness holds steady-state: a healthy agent is never quarantined.
  std::vector<std::uint64_t> quarantines;
  for (std::uint32_t s = 0; s < w.num_servers(); ++s)
    quarantines.push_back(w.server(s).stats().quarantines);
  w.advance(5 * kSecond);
  for (auto* n : nodes) EXPECT_TRUE(w.established(*n));
  for (std::uint32_t s = 0; s < w.num_servers(); ++s)
    EXPECT_EQ(w.server(s).stats().quarantines, quarantines[s])
        << "healthy agent quarantined on server " << s
        << ": heartbeats not refreshing liveness";
  return w.trace();
}

class ChaosSoak : public ::testing::TestWithParam<test::SoakParam> {};

TEST_P(ChaosSoak, ConvergesAndIsDeterministic) {
  const auto [shards, seed] = GetParam();
  SCOPED_TRACE("FLEXRIC_CHAOS_SEEDS=" + std::to_string(seed) + " on " +
               test::server_name(shards) + " reproduces this run");
  test::expect_replays([&] { return run_chaos(shards, seed); });
}

INSTANTIATE_TEST_SUITE_P(
    Servers, ChaosSoak,
    ::testing::Combine(::testing::Values(kPlain, 1u, 2u, 4u),
                       ::testing::ValuesIn(test::soak_seeds(
                           "FLEXRIC_CHAOS_SEEDS"))),
    test::soak_name);

}  // namespace
}  // namespace flexric
