// Deterministic indication-storm harness for end-to-end overload protection
// (DESIGN.md §11): token-bucket admission, two-class prioritized ingest,
// pluggable load shedding, flood-quarantine escalation, control deadline
// budgets and agent-side bounded indication buffers with shed reporting.
//
// Everything runs on one Reactor driven by a VirtualClock, so a storm is a
// scripted schedule: the same seed sheds the exact same messages. The core
// contract checked everywhere is EXACT ACCOUNTING — every indication emitted
// by a RAN function is either delivered to an iApp or counted in a shed
// counter somewhere; nothing vanishes silently. Seeded soaks run each seed
// twice and require bit-identical traces; override the seed set with
// FLEXRIC_STORM_SEEDS="1,2,3" (ci.sh --overload uses this for long soaks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "common/clock.hpp"
#include "common/overload.hpp"
#include "e2ap/codec.hpp"
#include "helpers.hpp"
#include "shard_world.hpp"
#include "server/server.hpp"
#include "telemetry/store.hpp"
#include "transport/faulty.hpp"
#include "transport/resilience.hpp"

namespace flexric {
namespace {

using overload::BoundedQueue;
using overload::MsgClass;
using overload::PriorityQueue;
using overload::RateLimiter;
using overload::ShedPolicy;
using test::advance;

// ---------------------------------------------------------------------------
// RateLimiter
// ---------------------------------------------------------------------------

TEST(RateLimiter, DefaultConstructedIsUnlimited) {
  RateLimiter rl;
  EXPECT_TRUE(rl.unlimited());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(rl.admit(0));
}

TEST(RateLimiter, FirstAdmitPrimesFullBurstThenRefillsAtRate) {
  RateLimiter rl(10.0, 2.0);  // 10 tokens/s, bucket depth 2
  EXPECT_TRUE(rl.admit(0));
  EXPECT_TRUE(rl.admit(0));
  EXPECT_FALSE(rl.admit(0)) << "burst exhausted at t=0";
  // 100 ms at 10/s accrues exactly one token.
  EXPECT_TRUE(rl.admit(100 * kMilli));
  EXPECT_FALSE(rl.admit(100 * kMilli));
  // Refill clamps at the burst: a long silence buys 2 tokens, not 20.
  EXPECT_NEAR(rl.tokens(10 * kSecond), 2.0, 1e-9);
  EXPECT_TRUE(rl.admit(10 * kSecond));
  EXPECT_TRUE(rl.admit(10 * kSecond));
  EXPECT_FALSE(rl.admit(10 * kSecond));
}

TEST(RateLimiter, BurstZeroDefaultsToOneSecondsWorth) {
  RateLimiter rl(5.0, 0.0);
  int admitted = 0;
  for (int i = 0; i < 20; ++i)
    if (rl.admit(0)) admitted++;
  EXPECT_EQ(admitted, 5);
}

TEST(RateLimiter, SameScheduleIsBitDeterministic) {
  RateLimiter a(100.0, 10.0), b(100.0, 10.0);
  for (Nanos t = 0; t < kSecond; t += 3 * kMilli)
    EXPECT_EQ(a.admit(t), b.admit(t)) << "diverged at t=" << t;
}

// ---------------------------------------------------------------------------
// BoundedQueue shed policies + exact accounting
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, DropNewestRejectsTheArrival) {
  BoundedQueue<int> q(2, ShedPolicy::drop_newest);
  EXPECT_TRUE(q.push(1, 10));
  EXPECT_TRUE(q.push(1, 11));
  EXPECT_FALSE(q.push(1, 12));  // full: newcomer is shed
  EXPECT_EQ(q.stats().offered.value, 3u);
  EXPECT_EQ(q.stats().admitted.value, 2u);
  EXPECT_EQ(q.stats().shed_newest.value, 1u);
  EXPECT_TRUE(q.reconciles());
  EXPECT_EQ(q.pop()->value, 10);  // FIFO preserved
  EXPECT_EQ(q.pop()->value, 11);
  EXPECT_TRUE(q.reconciles());
}

TEST(BoundedQueueTest, DropOldestEvictsTheHead) {
  BoundedQueue<int> q(2, ShedPolicy::drop_oldest);
  EXPECT_TRUE(q.push(1, 10));
  EXPECT_TRUE(q.push(1, 11));
  EXPECT_TRUE(q.push(1, 12));  // admitted by evicting 10
  EXPECT_EQ(q.stats().shed_oldest.value, 1u);
  EXPECT_TRUE(q.reconciles());
  EXPECT_EQ(q.pop()->value, 11);
  EXPECT_EQ(q.pop()->value, 12);
}

TEST(BoundedQueueTest, FairShedsHeaviestOriginFirst) {
  BoundedQueue<int> q(4, ShedPolicy::fair_per_agent);
  // Origin 7 hogs 3 of 4 slots; origin 3 holds 1.
  EXPECT_TRUE(q.push(7, 70));
  EXPECT_TRUE(q.push(7, 71));
  EXPECT_TRUE(q.push(7, 72));
  EXPECT_TRUE(q.push(3, 30));
  // A newcomer from the light origin evicts the heavy origin's oldest.
  EXPECT_TRUE(q.push(3, 31));
  EXPECT_EQ(q.depth(7), 2u);
  EXPECT_EQ(q.depth(3), 2u);
  EXPECT_EQ(q.stats().shed_oldest.value, 1u);
  EXPECT_EQ(q.pop()->value, 71) << "70 (oldest of origin 7) must be the shed one";
  EXPECT_TRUE(q.reconciles());
}

TEST(BoundedQueueTest, FairTieBreaksOnLowestOriginId) {
  BoundedQueue<int> q(4, ShedPolicy::fair_per_agent);
  EXPECT_TRUE(q.push(5, 50));
  EXPECT_TRUE(q.push(9, 90));
  EXPECT_TRUE(q.push(5, 51));
  EXPECT_TRUE(q.push(9, 91));
  // Origins 5 and 9 tie at depth 2; the lowest id sheds (deterministic).
  EXPECT_TRUE(q.push(1, 10));
  EXPECT_EQ(q.depth(5), 1u);
  EXPECT_EQ(q.depth(9), 2u);
  EXPECT_EQ(q.depth(1), 1u);
  EXPECT_EQ(q.pop()->value, 90) << "50 (oldest of origin 5) must be gone";
}

TEST(BoundedQueueTest, FairFloodedOriginDegradesToSelfDropOldest) {
  BoundedQueue<int> q(3, ShedPolicy::fair_per_agent);
  EXPECT_TRUE(q.push(8, 1));
  EXPECT_TRUE(q.push(8, 2));
  EXPECT_TRUE(q.push(8, 3));
  EXPECT_TRUE(q.push(8, 4));  // its own oldest makes room
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop()->value, 2);
  EXPECT_TRUE(q.reconciles());
}

TEST(BoundedQueueTest, DefaultCapacityZeroShedsEverything) {
  BoundedQueue<int> q;  // owners configure() later; until then: all shed
  EXPECT_FALSE(q.push(1, 42));
  EXPECT_EQ(q.stats().shed_newest.value, 1u);
  EXPECT_TRUE(q.reconciles());
  q.configure(1, ShedPolicy::drop_newest);
  EXPECT_TRUE(q.push(1, 43));
}

TEST(PriorityQueueTest, ControlDrainsStrictlyBeforeData) {
  PriorityQueue<int> q(PriorityQueue<int>::Config{2, 2,
                                                  ShedPolicy::drop_newest});
  EXPECT_TRUE(q.push(MsgClass::data, 1, 100));
  EXPECT_TRUE(q.push(MsgClass::control, 1, 200));
  EXPECT_TRUE(q.push(MsgClass::data, 1, 101));
  EXPECT_TRUE(q.push(MsgClass::control, 1, 201));
  std::vector<int> order;
  while (auto p = q.pop()) order.push_back(p->value);
  EXPECT_EQ(order, (std::vector<int>{200, 201, 100, 101}));
  EXPECT_TRUE(q.reconciles());
  EXPECT_EQ(q.shed(), 0u);
}

TEST(PriorityQueueTest, ClassCapacitiesAreIndependent) {
  PriorityQueue<int> q(PriorityQueue<int>::Config{1, 2,
                                                  ShedPolicy::drop_newest});
  EXPECT_TRUE(q.push(MsgClass::control, 1, 1));
  EXPECT_FALSE(q.push(MsgClass::control, 1, 2));  // control lane full
  EXPECT_TRUE(q.push(MsgClass::data, 1, 3));      // data lane unaffected
  EXPECT_TRUE(q.push(MsgClass::data, 1, 4));
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_TRUE(q.reconciles());
}

// ---------------------------------------------------------------------------
// Codec peek_type: O(1) classification must agree with the full decode
// ---------------------------------------------------------------------------

TEST(PeekType, MatchesFullDecodeOnBothCodecs) {
  e2ap::Indication ind;
  ind.request = {7, 9};
  ind.ran_function_id = 200;
  ind.message = {0xAA, 0xBB};
  e2ap::SetupRequest setup;
  setup.node = {1, 10, e2ap::NodeType::gnb};
  e2ap::ControlAck ack;
  ack.request = {7, 9};
  for (WireFormat f : {WireFormat::flat, WireFormat::per}) {
    const e2ap::Codec& c = e2ap::codec_for(f);
    for (const e2ap::Msg& m :
         {e2ap::Msg{ind}, e2ap::Msg{setup}, e2ap::Msg{ack}}) {
      auto wire = c.encode(m);
      ASSERT_TRUE(wire.is_ok());
      auto peeked = c.peek_type(BytesView(*wire));
      ASSERT_TRUE(peeked.is_ok());
      auto decoded = c.decode(BytesView(*wire));
      ASSERT_TRUE(decoded.is_ok());
      std::visit([&](const auto& d) { EXPECT_EQ(*peeked, d.kType); },
                 *decoded);
    }
    EXPECT_FALSE(c.peek_type(BytesView{}).is_ok());
    Buffer junk{0xFF, 0xFF, 0xFF, 0xFF};
    EXPECT_FALSE(c.peek_type(BytesView(junk)).is_ok())
        << "tag 0xFF is outside the MsgType range";
  }
}

// ---------------------------------------------------------------------------
// Storm harness: agents + server on a VirtualClock reactor
// ---------------------------------------------------------------------------

/// N agents + one overload-protected server on a VirtualClock reactor; each
/// agent dials through a clean FaultyTransport so tests can inject partitions
/// and deterministic TX backpressure (credits).
struct StormWorld {
  explicit StormWorld(const server::OverloadConfig& ov) {
    reactor.set_time_source(&clock);
    server::E2Server::Config cfg;
    cfg.ric_id = 21;
    cfg.e2ap_format = WireFormat::flat;
    cfg.overload = ov;
    server = std::make_unique<server::E2Server>(reactor, cfg);
    events = std::make_shared<test::ShardEventLog>();
    server->add_iapp(events);
  }

  struct Node {
    std::unique_ptr<agent::E2Agent> agent;
    std::shared_ptr<test::ShardStubFn> fn;
    std::shared_ptr<FaultyTransport> link;
    agent::ControllerId ctrl = 0;
    server::AgentId id = 0;     ///< server-side AgentId
    int indications = 0;        ///< delivered to the subscribing iApp
    std::vector<std::uint32_t> sns;  ///< delivery order, by Indication.sn
  };

  /// Connect one agent (heartbeating, resilient dial through FaultyTransport)
  /// and wait until the E2 Setup completes.
  Node& add_agent(std::uint32_t nb_id, agent::OverloadConfig aov = {}) {
    auto n = std::make_unique<Node>();
    Node* np = n.get();
    n->fn = std::make_shared<test::ShardStubFn>(200);
    agent::E2Agent::Config acfg{{1, nb_id, e2ap::NodeType::gnb},
                                WireFormat::flat, aov};
    n->agent = std::make_unique<agent::E2Agent>(reactor, acfg);
    EXPECT_TRUE(n->agent->register_function(n->fn).is_ok());
    ResilienceConfig rc;
    rc.heartbeat_period = 200 * kMilli;
    rc.heartbeat_miss_threshold = 100;  // storms must not flap the link
    rc.backoff_base = 50 * kMilli;
    rc.seed = 1 + nb_id * 7919;
    auto cid = n->agent->add_controller(
        [this, np]() -> Result<std::shared_ptr<MsgTransport>> {
          auto [a_side, s_side] = LocalTransport::make_pair(reactor);
          auto faulty =
              std::make_shared<FaultyTransport>(reactor, a_side,
                                                FaultProfile{});
          np->link = faulty;
          server->attach(s_side);
          return std::static_pointer_cast<MsgTransport>(faulty);
        },
        rc);
    EXPECT_TRUE(cid.is_ok());
    n->ctrl = *cid;
    for (Nanos t = 0;
         t < 5 * kSecond &&
         n->agent->state(n->ctrl) != agent::ConnState::established;
         t += 10 * kMilli)
      advance(reactor, clock, 10 * kMilli);
    EXPECT_EQ(n->agent->state(n->ctrl), agent::ConnState::established);
    // The new server-side id is the one no earlier node claimed.
    for (server::AgentId id : server->ran_db().agents()) {
      bool taken = false;
      for (const auto& other : nodes)
        if (other->id == id) taken = true;
      if (!taken) n->id = id;
    }
    EXPECT_NE(n->id, 0u);
    nodes.push_back(std::move(n));
    return *nodes.back();
  }

  /// Subscribe the harness to a node's RAN function; deliveries land in
  /// node.indications / node.sns.
  void subscribe(Node& n) {
    server::SubCallbacks cbs;
    cbs.on_response = [](const e2ap::SubscriptionResponse&) {};
    cbs.on_indication = [&n](const e2ap::Indication& ind) {
      n.indications++;
      n.sns.push_back(ind.sn);
    };
    auto h = server->subscribe(n.id, 200, Buffer{0x01},
                               {{1, e2ap::ActionType::report, {}}},
                               std::move(cbs));
    ASSERT_TRUE(h.is_ok());
    advance(reactor, clock, 10 * kMilli);
    ASSERT_EQ(n.fn->last_sub.actions.size(), 1u)
        << "subscription never reached the agent";
  }

  /// Fire one control transaction at `n`; latency (virtual ns) is recorded
  /// on ack, failures are counted.
  void send_ctrl(Node& n) {
    const Nanos t0 = reactor.now();
    server::CtrlCallbacks cbs;
    cbs.on_ack = [this, t0](const e2ap::ControlAck&) {
      ctrl_latencies.push_back(reactor.now() - t0);
    };
    cbs.on_failure = [this](const e2ap::ControlFailure&) { ctrl_failures++; };
    EXPECT_TRUE(server
                    ->send_control(n.id, 200, Buffer{0x01}, Buffer{0x02},
                                   std::move(cbs))
                    .is_ok());
  }

  [[nodiscard]] Nanos ctrl_p99() const {
    if (ctrl_latencies.empty()) return 0;
    std::vector<Nanos> s = ctrl_latencies;
    std::sort(s.begin(), s.end());
    return s[(s.size() - 1) * 99 / 100];
  }

  VirtualClock clock;
  Reactor reactor;
  std::unique_ptr<server::E2Server> server;
  std::shared_ptr<test::ShardEventLog> events;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<Nanos> ctrl_latencies;
  int ctrl_failures = 0;
};

/// The ledger that makes drops "visible": every message the server ever saw
/// is dispatched, shed with a counted reason, or still queued.
void expect_server_reconciles(StormWorld& w) {
  const ShardLedger l = w.server->ledger();
  const Balance b = reconcile(l);
  EXPECT_EQ(b.in, b.out) << counters_text(l);
  EXPECT_TRUE(w.server->ingest_queue().reconciles());
}

/// Agent-side ledger: everything a RAN function emitted is on the wire,
/// counted shed, or still buffered.
void expect_agent_reconciles(const StormWorld::Node& n) {
  const auto& st = n.agent->stats();
  const auto* pending = n.agent->pending_indications(n.ctrl);
  ASSERT_NE(pending, nullptr);
  EXPECT_TRUE(pending->reconciles());
  EXPECT_EQ(n.fn->emitted,
            st.indications_tx + st.indications_shed + pending->size());
}

server::OverloadConfig storm_defaults() {
  server::OverloadConfig ov;
  ov.enabled = true;
  ov.control_queue = 256;
  ov.data_queue = 1024;
  ov.shed_policy = ShedPolicy::fair_per_agent;
  ov.dispatch_batch = 64;
  ov.data_rate = 2000.0;  // per agent: 2 indications per virtual ms
  ov.data_burst = 100.0;
  ov.ctrl_deadline = 100 * kMilli;
  return ov;
}

// ---------------------------------------------------------------------------
// Graceful degradation under a 64x storm
// ---------------------------------------------------------------------------

TEST(Storm, ControlStaysTimelyWhileFlooderIsShedExactly) {
  StormWorld w(storm_defaults());
  auto& flooder = w.add_agent(10);
  auto& victim = w.add_agent(11);
  w.subscribe(flooder);
  w.subscribe(victim);

  // 300 virtual ms: the flooder emits at 64x the victim's line rate (64/ms
  // vs 1/ms) while a control txn targets the victim every 10 ms.
  for (int ms = 0; ms < 300; ++ms) {
    for (int k = 0; k < 64; ++k) flooder.fn->emit(flooder.ctrl);
    victim.fn->emit(victim.ctrl);
    if (ms % 10 == 0) w.send_ctrl(victim);
    advance(w.reactor, w.clock, kMilli);
  }
  advance(w.reactor, w.clock, 300 * kMilli);  // settle: queues drain

  const auto& st = w.server->stats();
  // The storm really was over admission capacity, and really was shed.
  EXPECT_GT(st.rate_shed, 10000u);
  // Control transactions all completed, fast, despite the storm.
  EXPECT_EQ(w.ctrl_failures, 0);
  EXPECT_EQ(st.ctrls_deadline_expired, 0u);
  ASSERT_EQ(w.ctrl_latencies.size(), 30u);
  EXPECT_LE(w.ctrl_p99(), 20 * kMilli);
  // The victim's line-rate traffic was untouched: every indication arrived,
  // in order.
  EXPECT_EQ(victim.indications, static_cast<int>(victim.fn->emitted));
  EXPECT_TRUE(std::is_sorted(victim.sns.begin(), victim.sns.end()));
  // Exact accounting at every layer.
  expect_server_reconciles(w);
  expect_agent_reconciles(flooder);
  expect_agent_reconciles(victim);
  // Wire-level ledger for the DATA lane: indications put on the wire by the
  // agents == rate-shed + flood-shed + offered to the data queue; delivered
  // data frames == indications dispatched to iApps.
  const auto& dq = w.server->ingest_queue().queue(MsgClass::data).stats();
  const std::uint64_t on_wire = flooder.agent->stats().indications_tx +
                                victim.agent->stats().indications_tx;
  EXPECT_EQ(on_wire, st.rate_shed + st.flood_shed + dq.offered.value);
  EXPECT_EQ(dq.delivered.value, st.indications_rx);
  EXPECT_EQ(st.indications_rx,
            static_cast<std::uint64_t>(flooder.indications +
                                       victim.indications));
}

TEST(Storm, DisabledOverloadKeepsInlineDispatchBehavior) {
  server::OverloadConfig off;  // enabled = false
  StormWorld w(off);
  auto& n = w.add_agent(12);
  w.subscribe(n);
  for (int i = 0; i < 50; ++i) n.fn->emit(n.ctrl);
  advance(w.reactor, w.clock, 20 * kMilli);
  EXPECT_EQ(n.indications, 50);
  // Everything dispatched inline: with the ledger closed, nothing was shed
  // or left queued.
  expect_server_reconciles(w);
  EXPECT_EQ(w.server->stats().msgs_rx, w.server->stats().dispatched);
}

// ---------------------------------------------------------------------------
// Flood escalation ladder: throttle -> quarantine -> cooldown -> recovery
// ---------------------------------------------------------------------------

TEST(Storm, FloodQuarantineTriggersAndRecoversDeterministically) {
  server::OverloadConfig ov = storm_defaults();
  ov.data_rate = 1000.0;
  ov.data_burst = 10.0;
  ov.flood_threshold = 50;
  ov.flood_window = kSecond;
  ov.flood_cooldown = 2 * kSecond;
  StormWorld w(ov);
  auto& n = w.add_agent(13);
  w.subscribe(n);

  // 20/ms against a 1/ms admission rate: the window fills in a few ms.
  for (int ms = 0; ms < 20; ++ms) {
    for (int k = 0; k < 20; ++k) n.fn->emit(n.ctrl);
    advance(w.reactor, w.clock, kMilli);
  }
  const auto& st = w.server->stats();
  EXPECT_EQ(st.flood_quarantines, 1u);
  EXPECT_GT(st.flood_shed, 0u) << "quarantined DATA must drop at the door";
  const std::string id = std::to_string(n.id);
  EXPECT_EQ(w.events->log,
            (std::vector<std::string>{"connect:" + id, "quarantine:" + id}));

  // CONTROL still passes while quarantined: the session stays alive.
  w.send_ctrl(n);
  advance(w.reactor, w.clock, 20 * kMilli);
  EXPECT_EQ(w.ctrl_failures, 0);
  EXPECT_EQ(w.ctrl_latencies.size(), 1u);

  // Cooldown elapses; the next frame (a heartbeat or an indication) lifts
  // the quarantine and DATA flows again.
  const int delivered_before = n.indications;
  advance(w.reactor, w.clock, ov.flood_cooldown + 100 * kMilli);
  n.fn->emit(n.ctrl);
  advance(w.reactor, w.clock, 20 * kMilli);
  EXPECT_EQ(st.flood_recoveries, 1u);
  EXPECT_EQ(w.events->log.back(), "reconnect:" + id);
  EXPECT_GT(n.indications, delivered_before)
      << "post-recovery indications must deliver again";
  expect_server_reconciles(w);
}

// ---------------------------------------------------------------------------
// Control deadline budgets
// ---------------------------------------------------------------------------

TEST(Storm, ControlDeadlineFailsFastThroughPartition) {
  StormWorld w(storm_defaults());  // ctrl_deadline = 100 ms
  auto& n = w.add_agent(14);
  w.subscribe(n);

  n.link->set_partitioned(true);  // the request can never be answered
  bool failed = false;
  e2ap::Cause cause;
  server::CtrlCallbacks cbs;
  cbs.on_ack = [](const e2ap::ControlAck&) {
    FAIL() << "ack through a partitioned link";
  };
  cbs.on_failure = [&](const e2ap::ControlFailure& f) {
    failed = true;
    cause = f.cause;
  };
  ASSERT_TRUE(w.server
                  ->send_control(n.id, 200, Buffer{0x01}, Buffer{0x02},
                                 std::move(cbs))
                  .is_ok());
  ASSERT_EQ(w.server->num_inflight_controls(), 1u);

  advance(w.reactor, w.clock, 50 * kMilli);
  EXPECT_FALSE(failed) << "deadline must not fire early";
  advance(w.reactor, w.clock, 60 * kMilli);
  EXPECT_TRUE(failed);
  EXPECT_EQ(cause.group, e2ap::Cause::Group::transport);
  EXPECT_EQ(w.server->num_inflight_controls(), 0u);
  EXPECT_EQ(w.server->stats().ctrls_deadline_expired, 1u);

  // Heal; later transactions complete and cancel their deadline timers.
  n.link->set_partitioned(false);
  w.send_ctrl(n);
  advance(w.reactor, w.clock, 200 * kMilli);
  EXPECT_EQ(w.ctrl_latencies.size(), 1u);
  EXPECT_EQ(w.server->stats().ctrls_deadline_expired, 1u) << "no spurious expiry";
}

// ---------------------------------------------------------------------------
// Agent-side bounded indication buffer under TX backpressure
// ---------------------------------------------------------------------------

TEST(Storm, AgentBuffersUnderBackpressureThenFlushesInOrder) {
  agent::OverloadConfig aov;
  aov.indication_queue = 8;
  aov.shed_policy = ShedPolicy::drop_oldest;
  aov.flush_period = 10 * kMilli;
  StormWorld w(storm_defaults());
  auto& n = w.add_agent(15, aov);
  w.subscribe(n);
  advance(w.reactor, w.clock, 10 * kMilli);

  // Slow consumer: the TX buffer accepts nothing more.
  n.link->set_tx_credit(0);
  for (int i = 0; i < 5; ++i) n.fn->emit(n.ctrl);
  const auto* pending = n.agent->pending_indications(n.ctrl);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->size(), 5u);
  EXPECT_EQ(n.agent->stats().indications_queued, 5u);
  EXPECT_EQ(n.indications, 0);

  // Push past the buffer cap: the oldest are shed, visibly.
  for (int i = 0; i < 6; ++i) n.fn->emit(n.ctrl);
  EXPECT_EQ(pending->size(), 8u);
  EXPECT_EQ(n.agent->stats().indications_shed, 3u);
  expect_agent_reconciles(n);

  // The consumer catches up: the flush timer drains the buffer in FIFO
  // order and nothing more is lost.
  n.link->add_tx_credit(1000);
  n.link->set_tx_credit(1000);
  advance(w.reactor, w.clock, 100 * kMilli);
  EXPECT_EQ(pending->size(), 0u);
  EXPECT_EQ(n.agent->stats().indications_flushed, 8u);
  EXPECT_EQ(n.indications, 8);
  EXPECT_TRUE(std::is_sorted(n.sns.begin(), n.sns.end()));
  // The three shed ones are exactly the oldest: sn 0,1,2 never arrive.
  ASSERT_EQ(n.sns.size(), 8u);
  EXPECT_EQ(n.sns.front(), 3u);
  expect_agent_reconciles(n);
}

TEST(Storm, AgentReportsShedsOnHeartbeatAndServerCountsThem) {
  agent::OverloadConfig aov;
  aov.indication_queue = 4;
  aov.shed_policy = ShedPolicy::drop_oldest;
  aov.flush_period = 10 * kMilli;
  StormWorld w(storm_defaults());
  auto& n = w.add_agent(16, aov);
  w.subscribe(n);
  advance(w.reactor, w.clock, 10 * kMilli);

  n.link->set_tx_credit(0);
  for (int i = 0; i < 10; ++i) n.fn->emit(n.ctrl);  // 4 buffered, 6 shed
  EXPECT_EQ(n.agent->stats().indications_shed, 6u);
  EXPECT_EQ(w.server->stats().agent_reported_sheds, 0u);

  // Link drains; the next heartbeat flushes and reports the shed delta.
  n.link->set_tx_credit(-1);
  advance(w.reactor, w.clock, 400 * kMilli);
  EXPECT_EQ(w.server->stats().agent_reported_sheds, 6u)
      << "shed report must carry the exact delta";
  EXPECT_GE(n.agent->stats().shed_reports_tx, 1u);
  EXPECT_EQ(n.indications, 4);

  // More sheds report incrementally, never double-counted.
  n.link->set_tx_credit(0);
  for (int i = 0; i < 7; ++i) n.fn->emit(n.ctrl);  // 4 buffered, 3 shed
  n.link->set_tx_credit(-1);
  advance(w.reactor, w.clock, 400 * kMilli);
  EXPECT_EQ(w.server->stats().agent_reported_sheds, 9u);
  expect_agent_reconciles(n);
}

// ---------------------------------------------------------------------------
// Storm telemetry: shed counters land in the bounded TelemetryStore
// ---------------------------------------------------------------------------

telemetry::StoreConfig tiny_store(std::size_t n_series, bool evict) {
  telemetry::StoreConfig cfg;
  cfg.layout.raw_capacity = 32;
  cfg.layout.tier1_capacity = 8;
  cfg.layout.tier2_capacity = 8;
  cfg.evict_on_budget = evict;
  cfg.memory_budget = sizeof(telemetry::TelemetryStore) +
                      n_series * (cfg.layout.bytes_per_series() + 96);
  return cfg;
}

TEST(StormTelemetry, OverloadMetricsHaveStableNorthboundNames) {
  using telemetry::Metric;
  for (Metric m : {Metric::ov_ingest_shed, Metric::ov_agent_shed,
                   Metric::ov_flood_quarantines}) {
    const char* name = telemetry::metric_name(m);
    ASSERT_STRNE(name, "unknown");
    auto back = telemetry::metric_from_name(name);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, m);
  }
}

TEST(StormTelemetry, ShedSeriesStormEvictsStaleAgentsUnderBudget) {
  telemetry::TelemetryStore store(tiny_store(3, /*evict=*/true));
  // A storm of shed reports from 30 agents against a 3-series budget: the
  // store must stay within budget by aging out stale agents, not by
  // rejecting the active ones.
  for (std::uint32_t a = 1; a <= 30; ++a) {
    auto st = store.record({a, 0, telemetry::Metric::ov_ingest_shed},
                           static_cast<Nanos>(a) * kMilli, 1.0);
    EXPECT_TRUE(st.is_ok());
    EXPECT_LE(store.memory_bytes(), store.memory_budget());
  }
  EXPECT_EQ(store.num_series(), 3u);
  EXPECT_EQ(store.evictions(), 27u);
  EXPECT_EQ(store.dropped_samples(), 0u);
}

TEST(StormTelemetry, RejectingStoreShedsNewSeriesButKeepsRecoveredAgentFlowing) {
  telemetry::TelemetryStore store(tiny_store(2, /*evict=*/false));
  const telemetry::SeriesKey quarantined{7, 0,
                                         telemetry::Metric::ov_ingest_shed};
  ASSERT_TRUE(store.record(quarantined, 0, 1.0).is_ok());
  ASSERT_TRUE(store
                  .record({8, 0, telemetry::Metric::ov_agent_shed}, 0, 1.0)
                  .is_ok());
  // Budget full: a new series is rejected with Errc::capacity...
  auto st = store.record({9, 0, telemetry::Metric::ov_ingest_shed}, 0, 1.0);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::capacity);
  EXPECT_GE(store.dropped_samples(), 1u);
  // ...but the quarantined-then-recovered agent's EXISTING series keeps
  // absorbing its post-recovery burst: samples for existing series are
  // never dropped, regardless of budget pressure.
  for (int i = 1; i <= 1000; ++i)
    EXPECT_TRUE(store
                    .record(quarantined, static_cast<Nanos>(i) * kMilli,
                            static_cast<double>(i))
                    .is_ok());
  auto latest = store.latest(quarantined, 1);
  ASSERT_TRUE(latest.is_ok());
  EXPECT_EQ(latest->back().v, 1000.0);
}

TEST(StormTelemetry, StormCountersRecordedPerAgentAreQueryable) {
  server::OverloadConfig ov = storm_defaults();
  ov.flood_threshold = 50;
  ov.data_rate = 1000.0;
  ov.data_burst = 10.0;
  StormWorld w(ov);
  auto& n = w.add_agent(17);
  w.subscribe(n);
  telemetry::TelemetryStore store(tiny_store(8, /*evict=*/true));

  std::uint64_t last_shed = 0;
  for (int ms = 0; ms < 100; ++ms) {
    for (int k = 0; k < 20; ++k) n.fn->emit(n.ctrl);
    advance(w.reactor, w.clock, kMilli);
    if (ms % 10 == 9) {  // sample the shed ledger each virtual 10 ms
      const auto& st = w.server->stats();
      std::uint64_t shed = st.rate_shed + st.flood_shed + st.queue_shed;
      ASSERT_TRUE(store
                      .record({n.id, 0, telemetry::Metric::ov_ingest_shed},
                              w.reactor.now(),
                              static_cast<double>(shed - last_shed))
                      .is_ok());
      last_shed = shed;
    }
  }
  // The final sample lands at exactly now(); the window end is exclusive.
  auto agg = store.window_aggregate(
      {n.id, 0, telemetry::Metric::ov_ingest_shed}, 0,
      w.reactor.now() + kMilli, telemetry::QuerySource::raw);
  ASSERT_TRUE(agg.is_ok());
  EXPECT_EQ(agg->count, 10u);
  // The series integrates back to the ledger: nothing shed went unrecorded.
  EXPECT_EQ(static_cast<std::uint64_t>(agg->sum), last_shed);
  EXPECT_GT(last_shed, 0u);
}

// ---------------------------------------------------------------------------
// Seeded storm soak: multiplier swept from the seed, double-run determinism
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> storm_seeds() {
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("FLEXRIC_STORM_SEEDS")) {
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ','))
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
  }
  if (seeds.empty())
    for (std::uint64_t s = 1; s <= 12; ++s) seeds.push_back(s);
  return seeds;
}

class StormSoak : public ::testing::TestWithParam<std::uint64_t> {};

/// One full storm for one seed; returns a trace that must be identical
/// across runs of the same seed (bit-determinism proof).
std::string run_storm(std::uint64_t seed) {
  const int mult = static_cast<int>(1u << (2 * (seed % 4)));  // 1,4,16,64
  server::OverloadConfig ov = storm_defaults();
  ov.flood_threshold = 1500;
  ov.flood_window = 100 * kMilli;
  ov.flood_cooldown = 500 * kMilli;
  StormWorld w(ov);
  agent::OverloadConfig aov;
  aov.indication_queue = 64;
  auto& flooder = w.add_agent(20, aov);
  auto& victim = w.add_agent(21, aov);
  w.subscribe(flooder);
  w.subscribe(victim);

  // Mixed workload: a storm burst, a slow-consumer spell on the flooder's
  // own link, then recovery — all on the virtual clock.
  for (int ms = 0; ms < 200; ++ms) {
    if (ms == 120) flooder.link->set_tx_credit(4);   // slow consumer
    if (ms == 140) flooder.link->set_tx_credit(-1);  // catches up
    for (int k = 0; k < mult; ++k) flooder.fn->emit(flooder.ctrl);
    victim.fn->emit(victim.ctrl);
    if (ms % 20 == 0) w.send_ctrl(victim);
    advance(w.reactor, w.clock, kMilli);
  }
  advance(w.reactor, w.clock, kSecond);  // settle: flush, heartbeats, reports

  // Invariants hold for every seed and every multiplier.
  expect_server_reconciles(w);
  expect_agent_reconciles(flooder);
  expect_agent_reconciles(victim);
  EXPECT_EQ(w.ctrl_failures, 0);
  EXPECT_EQ(victim.indications, static_cast<int>(victim.fn->emitted));
  EXPECT_LE(w.ctrl_p99(), 20 * kMilli);
  // Zero silent drops, end to end: every emitted indication is delivered,
  // agent-shed (and reported), or server-shed.
  IndicationFlow flow;
  flow.emitted = flooder.fn->emitted + victim.fn->emitted;
  flow.agent_shed = flooder.agent->stats().indications_shed +
                    victim.agent->stats().indications_shed;
  flow.delivered =
      static_cast<std::uint64_t>(flooder.indications + victim.indications);
  const Balance b = reconcile(flow, w.server->ledger());
  EXPECT_EQ(b.in, b.out);
  const auto& st = w.server->stats();
  EXPECT_EQ(st.agent_reported_sheds, flow.agent_shed)
      << "every agent-side shed must be reported by the settle point";

  std::ostringstream trace;
  trace << "mult=" << mult << " " << counters_text(st)
        << " delivered=" << flow.delivered << " agent_shed=" << flow.agent_shed
        << " ctrl_p99=" << w.ctrl_p99() << " events=";
  for (const auto& e : w.events->log) trace << e << ";";
  return trace.str();
}

TEST_P(StormSoak, ShedsExactlyAndIsDeterministic) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("FLEXRIC_STORM_SEEDS=" + std::to_string(seed) +
               " reproduces this run");
  std::string first = run_storm(seed);
  if (HasFailure()) return;
  std::string second = run_storm(seed);
  EXPECT_EQ(first, second) << "storm replay is not deterministic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StormSoak, ::testing::ValuesIn(storm_seeds()),
                         [](const auto& param_info) {
                           return "seed_" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Sharded storm soak (DESIGN.md §13): the same storm, spread over 1/2/4
// shards (seed-derived, FLEXRIC_SHARD_COUNT pins it), one flooder + one
// victim per shard with per-shard derived seeds. The global ledger — summed
// across shards via merge-on-query — must reconcile exactly, and the whole
// multi-shard schedule must replay byte-identically.
// ---------------------------------------------------------------------------

class ShardedStormSoak : public ::testing::TestWithParam<std::uint64_t> {};

std::string run_sharded_storm(std::uint64_t seed) {
  const std::uint32_t shards = test::soak_shards(seed);
  const int mult = static_cast<int>(1u << (2 * (seed % 4)));  // 1,4,16,64
  server::ShardedConfig cfg;
  cfg.server.overload = storm_defaults();
  cfg.server.overload.flood_threshold = 1500;
  cfg.server.overload.flood_window = 100 * kMilli;
  cfg.server.overload.flood_cooldown = 500 * kMilli;
  test::ShardWorld w(shards, cfg);
  agent::OverloadConfig aov;
  aov.indication_queue = 64;
  std::vector<test::ShardWorld::Node*> flooders, victims;
  for (std::uint32_t s = 0; s < shards; ++s) {
    flooders.push_back(
        &w.add_agent(s, 0, e2ap::NodeType::gnb, aov, seed * 1000003 + s));
    victims.push_back(
        &w.add_agent(s, 0, e2ap::NodeType::gnb, aov, seed * 2000003 + s));
  }
  for (auto* n : flooders) EXPECT_TRUE(w.converge(*n));
  for (auto* n : victims) EXPECT_TRUE(w.converge(*n));
  for (auto* n : flooders) w.subscribe(*n);
  for (auto* n : victims) w.subscribe(*n);

  // Every shard rides the same storm schedule: flooder at mult/ms, victim
  // at line rate, TX-credit squeeze mid-storm.
  for (int ms = 0; ms < 200; ++ms) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      if (ms == 120) flooders[s]->link->set_tx_credit(4);
      if (ms == 140) flooders[s]->link->set_tx_credit(-1);
      for (int k = 0; k < mult; ++k) flooders[s]->fn->emit(flooders[s]->ctrl);
      victims[s]->fn->emit(victims[s]->ctrl);
    }
    w.advance(kMilli);
  }
  w.advance(kSecond);  // settle: flush, heartbeats, shed reports, publishes

  // Per-shard: the victim's line-rate traffic survived its local storm.
  for (std::uint32_t s = 0; s < shards; ++s) {
    EXPECT_EQ(victims[s]->indications,
              static_cast<int>(victims[s]->fn->emitted))
        << "victim on shard " << s << " lost traffic to its local flooder";
    EXPECT_TRUE(
        std::is_sorted(victims[s]->sns.begin(), victims[s]->sns.end()));
  }
  // Global: sum(emitted) == sum(delivered) + sum(agent_shed)
  //                        + sum(server_shed), across every shard.
  w.expect_global_reconciles();
  // Shed reports arrived everywhere by the settle point.
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint64_t agent_shed =
        flooders[s]->agent->stats().indications_shed +
        victims[s]->agent->stats().indications_shed;
    EXPECT_EQ(w.ric.shard_server(s).stats().agent_reported_sheds, agent_shed)
        << "shard " << s;
  }

  std::ostringstream trace;
  trace << "mult=" << mult << " shards=" << shards << " ";
  for (std::uint32_t s = 0; s < shards; ++s)
    trace << "v" << s << "=" << victims[s]->indications << " f" << s << "="
          << flooders[s]->indications << " ";
  trace << w.trace();
  return trace.str();
}

TEST_P(ShardedStormSoak, ShedsExactlyAcrossShardsAndIsDeterministic) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("FLEXRIC_STORM_SEEDS=" + std::to_string(seed) +
               " reproduces this run");
  std::string first = run_sharded_storm(seed);
  if (HasFailure()) return;
  std::string second = run_sharded_storm(seed);
  EXPECT_EQ(first, second) << "sharded storm replay is not deterministic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedStormSoak,
                         ::testing::ValuesIn(storm_seeds()),
                         [](const auto& param_info) {
                           return "seed_" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace flexric
