// Deterministic chaos harness for the E2 resilience layer (agent reconnect
// with backoff, E2 Setup replay, heartbeat liveness, server-side retention
// and transparent subscription re-establishment).
//
// Everything runs on one Reactor driven by a VirtualClock: faults, backoff
// delays, heartbeats and liveness scans are all reactor timers, so a fixed
// seed produces a bit-identical schedule. Each chaos test is parameterized
// over seeds; override the set with FLEXRIC_CHAOS_SEEDS="1,2,3" (used by
// ci.sh --chaos for longer soaks). A failing seed is printed via
// SCOPED_TRACE so it can be replayed exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "common/clock.hpp"
#include "helpers.hpp"
#include "server/server.hpp"
#include "shard_world.hpp"
#include "transport/faulty.hpp"
#include "transport/resilience.hpp"

namespace flexric {
namespace {

using test::advance;
using test::pump;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

class ChaosStub final : public agent::RanFunction {
 public:
  explicit ChaosStub(std::uint16_t id) {
    desc_.id = id;
    desc_.revision = 1;
    desc_.name = "CHAOS-STUB";
  }
  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }
  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req, agent::ControllerId) override {
    subs++;
    last_sub = req;
    agent::SubscriptionOutcome out;
    for (const auto& a : req.actions) out.admitted.push_back(a.id);
    return out;
  }
  Status on_subscription_delete(const e2ap::SubscriptionDeleteRequest&,
                                agent::ControllerId) override {
    return Status::ok();
  }
  Result<Buffer> on_control(const e2ap::ControlRequest& req,
                            agent::ControllerId) override {
    return req.message;
  }
  void emit(agent::ControllerId origin, Buffer payload) {
    e2ap::Indication ind;
    ind.request = last_sub.request;
    ind.ran_function_id = desc_.id;
    ind.action_id = 1;
    ind.message = std::move(payload);
    (void)services_->send_indication(origin, ind);
  }

  int subs = 0;
  e2ap::SubscriptionRequest last_sub;

 private:
  e2ap::RanFunctionItem desc_;
};

/// One agent + one server on a VirtualClock reactor; the agent dials through
/// FaultyTransport links created fresh on every (re)connect.
struct ChaosWorld {
  explicit ChaosWorld(ResilienceConfig server_rc = server_defaults())
      : server(reactor, {21, WireFormat::flat, server_rc, {}}) {
    reactor.set_time_source(&clock);
    events = std::make_shared<test::ShardEventLog>();
    server.add_iapp(events);
  }

  static ResilienceConfig server_defaults() {
    ResilienceConfig rc;
    rc.quarantine_after = 2 * kSecond;
    rc.expire_after = 60 * kSecond;  // long: chaos must not expire the agent
    rc.reestablish = true;
    return rc;
  }

  static ResilienceConfig agent_defaults(std::uint64_t seed) {
    ResilienceConfig rc;
    rc.backoff_base = 50 * kMilli;
    rc.backoff_cap = kSecond;
    rc.heartbeat_period = 200 * kMilli;
    rc.heartbeat_miss_threshold = 3;
    rc.setup_timeout = 500 * kMilli;
    rc.seed = seed;
    return rc;
  }

  /// Dial: fresh LocalTransport pair, agent side wrapped in FaultyTransport.
  agent::TransportFactory make_factory() {
    return [this]() -> Result<std::shared_ptr<MsgTransport>> {
      dials++;
      if (!dial_enabled) return Error{Errc::io, "dial refused (test)"};
      auto [a_side, s_side] = LocalTransport::make_pair(reactor);
      FaultProfile p = profile;
      p.seed = seed + static_cast<std::uint64_t>(dials) * 7919;
      auto faulty = std::make_shared<FaultyTransport>(reactor, a_side, p);
      link = faulty;
      server.attach(s_side);
      return std::static_pointer_cast<MsgTransport>(faulty);
    };
  }

  void start_agent(std::uint64_t s, ResilienceConfig rc) {
    seed = s;
    fn = std::make_shared<ChaosStub>(200);
    agent = std::make_unique<agent::E2Agent>(
        reactor, agent::E2Agent::Config{{1, 10, e2ap::NodeType::gnb},
                                        WireFormat::flat,
                                        {}});
    ASSERT_TRUE(agent->register_function(fn).is_ok());
    agent->set_on_conn_event([this](agent::ControllerId, agent::ConnState st) {
      conn_events.push_back(agent::conn_state_name(st));
    });
    auto cid = agent->add_controller(make_factory(), rc);
    ASSERT_TRUE(cid.is_ok());
    ctrl_id = *cid;
  }

  bool established() const {
    return agent->state(ctrl_id) == agent::ConnState::established;
  }

  /// Drive until the agent is established or `budget` virtual time elapses.
  bool converge(Nanos budget = 30 * kSecond) {
    for (Nanos t = 0; t < budget; t += 10 * kMilli) {
      if (established()) return true;
      advance(reactor, clock, 10 * kMilli);
    }
    return established();
  }

  VirtualClock clock;
  Reactor reactor;
  server::E2Server server;
  std::shared_ptr<test::ShardEventLog> events;
  std::unique_ptr<agent::E2Agent> agent;
  std::shared_ptr<ChaosStub> fn;
  std::shared_ptr<FaultyTransport> link;  ///< most recent agent-side link
  agent::ControllerId ctrl_id = 0;
  FaultProfile profile;  ///< applied to every new link
  std::uint64_t seed = 1;
  int dials = 0;
  bool dial_enabled = true;
  std::vector<std::string> conn_events;
};

std::vector<std::uint64_t> chaos_seeds() {
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("FLEXRIC_CHAOS_SEEDS")) {
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ','))
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
  }
  if (seeds.empty())
    for (std::uint64_t s = 1; s <= 12; ++s) seeds.push_back(s);
  return seeds;
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
  ChaosWorld w;
  w.start_agent(5, ChaosWorld::agent_defaults(5));
  ASSERT_TRUE(w.converge());
  EXPECT_EQ(w.dials, 1);
  EXPECT_EQ(w.server.ran_db().num_agents(), 1u);

  // Heartbeats flow and are acked without DB/iApp churn.
  auto log_before = w.events->log;
  advance(w.reactor, w.clock, 2 * kSecond);
  EXPECT_GE(w.agent->stats().heartbeats_tx, 5u);
  EXPECT_EQ(w.agent->stats().heartbeat_misses, 0u);
  EXPECT_GE(w.server.stats().heartbeats_rx, 5u);
  EXPECT_EQ(w.events->log, log_before);  // no events from liveness traffic
}

TEST(Resilience, BackoffTimingIsObservableOnVirtualClock) {
  ChaosWorld w;
  auto rc = ChaosWorld::agent_defaults(9);
  w.dial_enabled = false;  // every dial refused until we allow it
  w.start_agent(9, rc);
  EXPECT_EQ(w.agent->state(w.ctrl_id), agent::ConnState::reconnecting);
  EXPECT_EQ(w.dials, 1);

  // First retry fires at exactly backoff_base (first delay is the base).
  advance(w.reactor, w.clock, rc.backoff_base - 5 * kMilli);
  EXPECT_EQ(w.dials, 1);  // not yet
  advance(w.reactor, w.clock, 10 * kMilli);
  EXPECT_EQ(w.dials, 2);  // fired within [base, base+5ms]

  // Let several more attempts fail: attempts are spaced within
  // [base, cap] and the counter grows monotonically.
  int before = w.dials;
  advance(w.reactor, w.clock, 5 * kSecond);
  EXPECT_GT(w.dials, before);
  EXPECT_GE(w.agent->stats().reconnect_failures,
            static_cast<std::uint64_t>(w.dials - 1));

  w.dial_enabled = true;
  ASSERT_TRUE(w.converge());
  EXPECT_GE(w.agent->stats().reconnects, 1u);
}

TEST(Resilience, SetupTimeoutRedialsHalfOpenLink) {
  ChaosWorld w;
  auto rc = ChaosWorld::agent_defaults(11);
  // Eat every outbound message: the SetupRequest vanishes, the link looks
  // open, and only the setup timeout can save us.
  w.profile.tx.drop = 1.0;
  w.start_agent(11, rc);
  EXPECT_EQ(w.agent->state(w.ctrl_id), agent::ConnState::setup_sent);

  advance(w.reactor, w.clock, rc.setup_timeout + 50 * kMilli);
  EXPECT_NE(w.agent->state(w.ctrl_id), agent::ConnState::established);
  EXPECT_GE(w.dials, 1);

  w.profile = FaultProfile{};  // heal: subsequent links are clean
  ASSERT_TRUE(w.converge());
  // The half-open link was abandoned and a fresh dial succeeded. (This is
  // NOT a setup replay: the conn had never established before.)
  EXPECT_GE(w.dials, 2);
  EXPECT_GE(w.agent->stats().reconnects, 1u);
}

TEST(Resilience, HeartbeatMissesForceReconnectThroughPartition) {
  ChaosWorld w;
  auto rc = ChaosWorld::agent_defaults(13);
  w.start_agent(13, rc);
  ASSERT_TRUE(w.converge());

  // Partition the live link forever; only the heartbeat can notice.
  w.link->set_partitioned(true);
  const Nanos detect_budget =
      rc.heartbeat_period * (rc.heartbeat_miss_threshold + 2);

  // The agent must NOT give up before threshold misses are possible.
  advance(w.reactor, w.clock, rc.heartbeat_period);
  EXPECT_TRUE(w.established());

  advance(w.reactor, w.clock, detect_budget);
  EXPECT_GE(w.agent->stats().heartbeat_misses,
            static_cast<std::uint64_t>(rc.heartbeat_miss_threshold));
  ASSERT_TRUE(w.converge());
  EXPECT_GE(w.dials, 2);  // re-dialed a fresh (unpartitioned) link
  EXPECT_GE(w.agent->stats().reconnects, 1u);
}

// The miss-threshold boundary is exact: the agent holds the link through
// N-1 unanswered heartbeats and declares the connection dead on the tick
// that records the Nth miss — not a tick earlier, not a tick later. This
// pins the `hb_missed >= threshold` comparison: an off-by-one in either
// direction (detect at N-1, or require N+1) moves a whole heartbeat period
// of detection latency and shows up in supervision MTTR.
TEST(Resilience, HeartbeatMissBoundaryDetectsAtExactlyThreshold) {
  ChaosWorld w;
  auto rc = ChaosWorld::agent_defaults(17);
  const std::uint32_t n = rc.heartbeat_miss_threshold;  // 3 by default
  ASSERT_GE(n, 2u);
  w.start_agent(17, rc);
  ASSERT_TRUE(w.converge());

  // Phase-align to just past a heartbeat tick whose probe got acked, so
  // every subsequent advance of one period lands exactly one tick.
  const std::uint64_t tx0 = w.agent->stats().heartbeats_tx;
  for (Nanos t = 0; w.agent->stats().heartbeats_tx == tx0; t += kMilli) {
    ASSERT_LT(t, 2 * rc.heartbeat_period) << "heartbeat never ticked";
    advance(w.reactor, w.clock, kMilli);
  }
  advance(w.reactor, w.clock, kMilli);  // let the ack land

  w.link->set_partitioned(true);
  const std::uint64_t base = w.agent->stats().heartbeat_misses;
  const int dials_before = w.dials;

  // Tick 1 sends a probe into the void: nothing chargeable yet.
  advance(w.reactor, w.clock, rc.heartbeat_period);
  EXPECT_EQ(w.agent->stats().heartbeat_misses, base);
  EXPECT_TRUE(w.established());

  // Ticks 2..N record misses 1..N-1: the link must be held at every one.
  for (std::uint32_t m = 1; m < n; ++m) {
    advance(w.reactor, w.clock, rc.heartbeat_period);
    EXPECT_EQ(w.agent->stats().heartbeat_misses, base + m);
    EXPECT_TRUE(w.established())
        << "gave up at " << m << " misses (threshold " << n << ")";
    EXPECT_EQ(w.dials, dials_before);
  }

  // The next tick records miss N: detection fires on THIS tick, tearing
  // the partitioned link down and re-dialing a fresh one.
  advance(w.reactor, w.clock, rc.heartbeat_period);
  EXPECT_EQ(w.agent->stats().heartbeat_misses, base + n)
      << "detection must not eat or double-charge the Nth miss";
  EXPECT_FALSE(w.established())
      << "did not give up at exactly " << n << " misses";
  ASSERT_TRUE(w.converge());
  EXPECT_GT(w.dials, dials_before);  // fresh (unpartitioned) link
  EXPECT_GE(w.agent->stats().reconnects, 1u);
}

TEST(Resilience, ServerQuarantinesThenExpiresSilentAgent) {
  ResilienceConfig srv = ChaosWorld::server_defaults();
  srv.quarantine_after = kSecond;
  srv.expire_after = 3 * kSecond;
  ChaosWorld w(srv);
  auto rc = ChaosWorld::agent_defaults(17);
  rc.heartbeat_period = 0;  // mute agent: nothing keeps the link warm
  rc.reconnect = false;     // and it stays gone once the server expires it
  w.start_agent(17, rc);
  ASSERT_TRUE(w.converge());
  ASSERT_EQ(w.server.ran_db().num_agents(), 1u);

  // Partition: the server hears nothing from a "connected" agent.
  w.link->set_partitioned(true);
  advance(w.reactor, w.clock, srv.quarantine_after + srv.quarantine_after / 2);
  ASSERT_FALSE(w.events->log.empty());
  EXPECT_EQ(w.events->log.back(), "quarantine:1");
  EXPECT_EQ(w.server.ran_db().num_agents(), 1u);  // state retained

  advance(w.reactor, w.clock, srv.expire_after + srv.quarantine_after);
  EXPECT_EQ(w.events->log.back(), "disconnect:1");
  EXPECT_EQ(w.server.ran_db().num_agents(), 0u);
  EXPECT_EQ(w.server.num_connections(), 0u);
  EXPECT_EQ(w.server.num_subscriptions(), 0u);
  EXPECT_GE(w.server.stats().quarantines, 1u);
  EXPECT_GE(w.server.stats().expiries, 1u);
}

TEST(Resilience, ReestablishmentKeepsIdAndReplaysSubscriptionsOnce) {
  ChaosWorld w;
  w.start_agent(19, ChaosWorld::agent_defaults(19));
  ASSERT_TRUE(w.converge());

  int responses = 0, indications = 0;
  server::SubCallbacks cbs;
  cbs.on_response = [&](const e2ap::SubscriptionResponse&) { responses++; };
  cbs.on_indication = [&](const e2ap::Indication&) { indications++; };
  auto h = w.server.subscribe(1, 200, Buffer{0x01},
                              {{1, e2ap::ActionType::report, {}}},
                              std::move(cbs));
  ASSERT_TRUE(h.is_ok());
  pump(w.reactor, 20);
  ASSERT_EQ(responses, 1);
  ASSERT_EQ(w.fn->subs, 1);

  w.fn->emit(w.ctrl_id, {0xAA});
  pump(w.reactor, 20);
  ASSERT_EQ(indications, 1);

  // Kill the link; the agent returns and the server must splice it back.
  w.link->kill();
  ASSERT_TRUE(w.converge());

  EXPECT_EQ(w.server.ran_db().num_agents(), 1u);
  const auto* info = w.server.ran_db().agent(1);
  ASSERT_NE(info, nullptr);  // SAME AgentId as before the cut
  EXPECT_TRUE(info->connected);
  EXPECT_EQ(w.server.num_connections(), 1u);  // no stale detached twin

  // Subscription was replayed to the agent exactly once more, silently.
  advance(w.reactor, w.clock, 100 * kMilli);
  EXPECT_EQ(w.fn->subs, 2);
  EXPECT_EQ(responses, 1) << "replay must not re-surface on_response";
  EXPECT_EQ(w.server.stats().subs_replayed, 1u);

  // ...and it still delivers on the SAME handle/callback.
  w.fn->emit(w.ctrl_id, {0xBB});
  pump(w.reactor, 20);
  EXPECT_EQ(indications, 2);

  // iApps saw one reconnect event and zero disconnect/connect churn.
  int reconnects = 0, disconnects = 0, connects = 0;
  for (const auto& e : w.events->log) {
    if (e == "reconnect:1") reconnects++;
    if (e == "disconnect:1") disconnects++;
    if (e == "connect:1") connects++;
  }
  EXPECT_EQ(reconnects, 1);
  EXPECT_EQ(disconnects, 0);
  EXPECT_EQ(connects, 1);  // only the original connect
}

TEST(Resilience, InflightControlFailsFastWithTransportCause) {
  ChaosWorld w;
  w.start_agent(23, ChaosWorld::agent_defaults(23));
  ASSERT_TRUE(w.converge());

  bool failed = false;
  e2ap::Cause cause;
  server::CtrlCallbacks cbs;
  cbs.on_ack = [&](const e2ap::ControlAck&) { FAIL() << "ack after link cut"; };
  cbs.on_failure = [&](const e2ap::ControlFailure& f) {
    failed = true;
    cause = f.cause;
  };
  ASSERT_TRUE(w.server
                  .send_control(1, 200, Buffer{0x01}, Buffer{0x02},
                                std::move(cbs))
                  .is_ok());
  ASSERT_EQ(w.server.num_inflight_controls(), 1u);

  // Cut the link before the request reaches the agent: the answer can never
  // come, so the iApp must get a synthetic transport failure immediately.
  w.link->kill();
  pump(w.reactor, 20);
  EXPECT_TRUE(failed);
  EXPECT_EQ(cause.group, e2ap::Cause::Group::transport);
  EXPECT_EQ(w.server.num_inflight_controls(), 0u);
  EXPECT_GE(w.server.stats().ctrls_failed_on_loss, 1u);
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
// abrupt kills, then convergence must hold. Parameterized over >= 10 seeds.
// ---------------------------------------------------------------------------

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

/// Run the full chaos scenario for one seed; returns a trace that must be
/// identical across runs of the same seed (determinism proof).
std::string run_chaos(std::uint64_t seed, std::uint64_t* reconnects_out) {
  ChaosWorld w;
  auto rc = ChaosWorld::agent_defaults(seed);
  w.profile.tx = {0.05, 0.02, 0.01, 0.02, 0, 2 * kMilli};
  w.profile.rx = {0.05, 0.02, 0.01, 0.02, 0, 2 * kMilli};
  w.start_agent(seed, rc);
  EXPECT_TRUE(w.converge()) << "never established under lossy link";

  // The stable AgentId is assigned at the first successful E2 Setup — a
  // lossy link may burn connection ids before that (dropped SetupRequest,
  // setup-timeout redial), so discover it instead of assuming 1. From here
  // on it must never change: that is the re-establishment contract.
  EXPECT_EQ(w.server.ran_db().num_agents(), 1u);
  if (w.server.ran_db().num_agents() != 1) return "no-agent";
  const server::AgentId aid = w.server.ran_db().agents().front();

  int responses = 0, failures = 0, indications = 0;
  server::SubCallbacks cbs;
  cbs.on_response = [&](const e2ap::SubscriptionResponse&) { responses++; };
  cbs.on_failure = [&](const e2ap::SubscriptionFailure&) { failures++; };
  cbs.on_indication = [&](const e2ap::Indication&) { indications++; };
  auto h = w.server.subscribe(aid, 200, Buffer{0x01},
                              {{1, e2ap::ActionType::report, {}}},
                              std::move(cbs));
  EXPECT_TRUE(h.is_ok());

  // Scripted chaos: a seeded schedule of partitions, kills and quiet spells.
  Rng chaos(seed ^ 0xC0FFEE);
  for (int ev = 0; ev < 12; ++ev) {
    advance(w.reactor, w.clock,
            100 * kMilli +
                static_cast<Nanos>(chaos.bounded(400)) * kMilli);
    switch (chaos.bounded(3)) {
      case 0:
        if (w.link) w.link->kill();
        break;
      case 1:
        if (w.link)
          w.link->partition_for(
              100 * kMilli + static_cast<Nanos>(chaos.bounded(900)) * kMilli);
        break;
      default:
        break;  // quiet spell
    }
  }

  // Faults off: every future link is clean. The system must converge.
  w.profile = FaultProfile{};
  if (w.link) w.link->kill();  // force one last reconnect onto a clean link
  EXPECT_TRUE(w.converge()) << "did not re-establish after chaos stopped";

  // Convergence invariants: exactly one live agent, zero stale state.
  EXPECT_EQ(w.server.ran_db().num_agents(), 1u);
  const auto* info = w.server.ran_db().agent(aid);
  EXPECT_NE(info, nullptr) << "agent id churned across reconnects";
  if (info != nullptr) { EXPECT_TRUE(info->connected); }
  EXPECT_EQ(w.server.num_connections(), 1u);
  EXPECT_EQ(w.server.num_inflight_controls(), 0u);
  EXPECT_LE(w.server.num_subscriptions(), 1u);

  // The subscription (if it survived - a replay rejection is allowed only
  // via on_failure) must be delivering again.
  if (w.server.num_subscriptions() == 1) {
    advance(w.reactor, w.clock, 100 * kMilli);
    int before = indications;
    w.fn->emit(w.ctrl_id, {0xEE});
    pump(w.reactor, 30);
    EXPECT_GT(indications, before) << "subscription stopped delivering";
  } else {
    EXPECT_GE(failures, 1) << "subscription vanished without on_failure";
  }

  // Liveness holds steady-state: a healthy agent is never quarantined.
  auto quarantines = w.server.stats().quarantines;
  advance(w.reactor, w.clock, 5 * kSecond);
  EXPECT_TRUE(w.established());
  EXPECT_EQ(w.server.stats().quarantines, quarantines)
      << "healthy agent quarantined: heartbeats not refreshing liveness";

  if (reconnects_out != nullptr)
    *reconnects_out = w.agent->stats().reconnects;

  std::ostringstream trace;
  trace << "dials=" << w.dials << " agent{" << counters_text(w.agent->stats())
        << "} server{" << counters_text(w.server.stats())
        << "} responses=" << responses << " events=";
  for (const auto& e : w.events->log) trace << e << ";";
  for (const auto& e : w.conn_events) trace << e << ";";
  return trace.str();
}

TEST_P(ChaosSoak, ConvergesAndIsDeterministic) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("FLEXRIC_CHAOS_SEEDS=" + std::to_string(seed) +
               " reproduces this run");
  std::uint64_t reconnects = 0;
  std::string first = run_chaos(seed, &reconnects);
  if (HasFailure()) return;
  // Same seed, fresh world: bit-identical schedule and trace.
  std::string second = run_chaos(seed, nullptr);
  EXPECT_EQ(first, second) << "chaos run is not deterministic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::ValuesIn(chaos_seeds()),
                         [](const auto& param_info) {
                           return "seed_" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Sharded chaos soak (DESIGN.md §13): the chaos schedule spread over 1/2/4
// shards (seed-derived, FLEXRIC_SHARD_COUNT pins it), one lossy-linked
// agent per shard with a per-shard derived seed. Every shard must converge
// independently, the merged directory must agree with every shard, and the
// full multi-shard run must replay byte-identically.
// ---------------------------------------------------------------------------

class ShardedChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

std::string run_sharded_chaos(std::uint64_t seed) {
  const std::uint32_t shards = test::soak_shards(seed);
  server::ShardedConfig cfg;
  cfg.server.resilience = ChaosWorld::server_defaults();
  test::ShardWorld w(shards, cfg);
  w.agent_rc = ChaosWorld::agent_defaults(seed);  // twitchy: reconnects
  std::vector<test::ShardWorld::Node*> nodes;
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto& n = w.add_agent(s, 0, e2ap::NodeType::gnb, {},
                          seed * 1000003 + s);
    n.profile.tx = {0.05, 0.02, 0.01, 0.02, 0, 2 * kMilli};
    n.profile.rx = {0.05, 0.02, 0.01, 0.02, 0, 2 * kMilli};
    nodes.push_back(&n);
  }
  for (auto* n : nodes)
    EXPECT_TRUE(w.converge(*n, 30 * kSecond))
        << "shard " << n->shard << " never established under lossy link";

  // The stable per-shard AgentIds, locked in at first Setup. The
  // re-establishment contract says they never change from here on.
  std::vector<server::AgentId> first_ids;
  for (auto* n : nodes) first_ids.push_back(n->id);

  // Scripted chaos across every shard from ONE seeded schedule: kills,
  // partitions and quiet spells land on seed-chosen shards.
  Rng chaos(seed ^ 0xC0FFEE);
  for (int ev = 0; ev < 12; ++ev) {
    w.advance(100 * kMilli +
              static_cast<Nanos>(chaos.bounded(400)) * kMilli);
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

  // Faults off everywhere; every shard must converge onto a clean link.
  for (auto* n : nodes) {
    n->profile = FaultProfile{};
    if (n->link) n->link->kill();
  }
  for (auto* n : nodes)
    EXPECT_TRUE(w.converge(*n, 30 * kSecond))
        << "shard " << n->shard << " did not re-establish after chaos";

  // Convergence invariants, per shard and merged.
  for (std::uint32_t s = 0; s < shards; ++s) {
    EXPECT_EQ(w.ric.shard_server(s).ran_db().num_agents(), 1u)
        << "shard " << s;
    EXPECT_EQ(w.ric.shard_server(s).num_connections(), 1u) << "shard " << s;
    EXPECT_EQ(w.ric.shard_server(s).stats().misrouted, 0u) << "shard " << s;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i]->id, first_ids[i])
        << "shard " << nodes[i]->shard << " churned its AgentId";
    const auto* info =
        w.ric.shard_server(nodes[i]->shard).ran_db().agent(nodes[i]->id);
    EXPECT_NE(info, nullptr);
    if (info != nullptr) { EXPECT_TRUE(info->connected); }
  }
  // The home-side merged directory agrees with every shard (the directory
  // resyncs after any event-ring loss, so eventual agreement is exact).
  w.advance(200 * kMilli);
  EXPECT_EQ(w.ric.directory().num_agents(), shards);
  for (auto* n : nodes)
    EXPECT_NE(w.ric.directory().agent(n->gid), nullptr)
        << "merged directory is missing shard " << n->shard << "'s agent";

  // Steady state: no healthy agent gets quarantined.
  std::vector<std::uint64_t> quarantines;
  for (std::uint32_t s = 0; s < shards; ++s)
    quarantines.push_back(w.ric.shard_server(s).stats().quarantines);
  w.advance(5 * kSecond);
  for (std::uint32_t s = 0; s < shards; ++s)
    EXPECT_EQ(w.ric.shard_server(s).stats().quarantines, quarantines[s])
        << "healthy agent quarantined on shard " << s;

  std::ostringstream trace;
  trace << "shards=" << shards << " ";
  for (auto* n : nodes)
    trace << "n" << n->shard << "{dials=" << n->dials << " "
          << counters_text(n->agent->stats()) << "} ";
  trace << w.trace();
  return trace.str();
}

TEST_P(ShardedChaosSoak, ConvergesOnEveryShardAndIsDeterministic) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("FLEXRIC_CHAOS_SEEDS=" + std::to_string(seed) +
               " reproduces this run");
  std::string first = run_sharded_chaos(seed);
  if (HasFailure()) return;
  std::string second = run_sharded_chaos(seed);
  EXPECT_EQ(first, second) << "sharded chaos run is not deterministic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedChaosSoak,
                         ::testing::ValuesIn(chaos_seeds()),
                         [](const auto& pi) {
                           return "seed_" + std::to_string(pi.param);
                         });

}  // namespace
}  // namespace flexric
