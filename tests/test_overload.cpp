// Deterministic indication-storm harness for end-to-end overload protection
// (DESIGN.md §11): token-bucket admission, two-class prioritized ingest,
// pluggable load shedding, flood-quarantine escalation, control deadline
// budgets and agent-side bounded indication buffers with shed reporting.
//
// Everything runs in one test::World (world.hpp) driven by a VirtualClock,
// so a storm is a scripted schedule: the same seed sheds the exact same
// messages. The core contract checked everywhere is EXACT ACCOUNTING —
// every indication emitted by a RAN function is either delivered to an
// iApp or counted in a shed counter somewhere; nothing vanishes silently.
// The seeded soak is one script run over the plain server and 1/2/4 shards,
// each seed twice with bit-identical traces; override the seed set with
// FLEXRIC_STORM_SEEDS="1,2,3" (ci.sh --overload uses this for long soaks).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "common/clock.hpp"
#include "common/overload.hpp"
#include "e2ap/codec.hpp"
#include "telemetry/store.hpp"
#include "world.hpp"

namespace flexric {
namespace {

using overload::BoundedQueue;
using overload::MsgClass;
using overload::PriorityQueue;
using overload::RateLimiter;
using overload::ShedPolicy;
using test::kPlain;
using test::World;

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
  q.configure(1, ShedPolicy::drop_oldest);
  EXPECT_TRUE(q.push(1, 43));
}

TEST(PriorityQueueTest, ControlDrainsStrictlyBeforeData) {
  PriorityQueue<int> q(PriorityQueue<int>::Config{2, 2});
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
  PriorityQueue<int> q(PriorityQueue<int>::Config{1, 2});
  EXPECT_TRUE(q.push(MsgClass::control, 1, 1));
  EXPECT_TRUE(q.push(MsgClass::control, 1, 2));  // control lane full: sheds 1
  EXPECT_TRUE(q.push(MsgClass::data, 1, 3));     // data lane unaffected
  EXPECT_TRUE(q.push(MsgClass::data, 1, 4));
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.queue(MsgClass::data).stats().shed(), 0u);
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
// Storm harness: agents + server in one test::World
// ---------------------------------------------------------------------------

server::OverloadConfig storm_defaults() {
  server::OverloadConfig ov;
  ov.enabled = true;
  ov.control_queue = 256;
  ov.data_queue = 1024;
  ov.dispatch_batch = 64;
  ov.data_rate = 2000.0;  // per agent: 2 indications per virtual ms
  ov.data_burst = 100.0;
  ov.ctrl_deadline = 100 * kMilli;
  return ov;
}

server::ShardedConfig storm_cfg(
    const server::OverloadConfig& ov = storm_defaults()) {
  server::ShardedConfig cfg;
  cfg.server.overload = ov;
  return cfg;
}

/// Connect one agent (heartbeating, resilient dial through a clean
/// FaultyTransport, so tests can inject partitions and deterministic TX
/// backpressure) and wait until the E2 Setup completes.
World::Node& connect_agent(World& w, std::uint32_t nb_id,
                           agent::OverloadConfig aov = {}) {
  auto& n = w.add_agent(0, nb_id, e2ap::NodeType::gnb, aov);
  EXPECT_TRUE(w.converge(n, 5 * kSecond));
  return n;
}

/// Agent-side ledger: everything a RAN function emitted is on the wire,
/// counted shed, or still buffered.
void expect_agent_reconciles(const World::Node& n) {
  const auto& st = n.agent->stats();
  const auto* pending = n.agent->pending_indications(n.ctrl);
  ASSERT_NE(pending, nullptr);
  EXPECT_TRUE(pending->reconciles());
  EXPECT_EQ(n.fn->emitted,
            st.indications_tx + st.indications_shed + pending->size());
}

// ---------------------------------------------------------------------------
// Graceful degradation under a 64x storm
// ---------------------------------------------------------------------------

TEST(Storm, ControlStaysTimelyWhileFlooderIsShedExactly) {
  World w(kPlain, storm_cfg());
  auto& flooder = connect_agent(w, 10);
  auto& victim = connect_agent(w, 11);
  w.subscribe(flooder);
  w.subscribe(victim);

  // 300 virtual ms: the flooder emits at 64x the victim's line rate (64/ms
  // vs 1/ms) while a control txn targets the victim every 10 ms.
  for (int ms = 0; ms < 300; ++ms) {
    for (int k = 0; k < 64; ++k) flooder.fn->emit(flooder.ctrl);
    victim.fn->emit(victim.ctrl);
    if (ms % 10 == 0) w.send_ctrl(victim);
    w.advance(kMilli);
  }
  w.advance(300 * kMilli);  // settle: queues drain

  const auto& st = w.server().stats();
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
  w.expect_reconciles();
  expect_agent_reconciles(flooder);
  expect_agent_reconciles(victim);
  // Wire-level ledger for the DATA lane: indications put on the wire by the
  // agents == rate-shed + flood-shed + offered to the data queue; delivered
  // data frames == indications dispatched to iApps.
  const auto& dq = w.server().ingest_queue().queue(MsgClass::data).stats();
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
  World w(kPlain, storm_cfg(off));
  auto& n = connect_agent(w, 12);
  w.subscribe(n);
  for (int i = 0; i < 50; ++i) n.fn->emit(n.ctrl);
  w.advance(20 * kMilli);
  EXPECT_EQ(n.indications, 50);
  // Everything dispatched inline: with the ledger closed, nothing was shed
  // or left queued.
  w.expect_reconciles();
  EXPECT_EQ(w.server().stats().msgs_rx, w.server().stats().dispatched);
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
  World w(kPlain, storm_cfg(ov));
  auto& n = connect_agent(w, 13);
  w.subscribe(n);

  // 20/ms against a 1/ms admission rate: the window fills in a few ms.
  for (int ms = 0; ms < 20; ++ms) {
    for (int k = 0; k < 20; ++k) n.fn->emit(n.ctrl);
    w.advance(kMilli);
  }
  const auto& st = w.server().stats();
  EXPECT_EQ(st.flood_quarantines, 1u);
  EXPECT_GT(st.flood_shed, 0u) << "quarantined DATA must drop at the door";
  const std::string id = std::to_string(n.id);
  EXPECT_EQ(w.events[0]->log,
            (std::vector<std::string>{"connect:" + id, "quarantine:" + id}));

  // CONTROL still passes while quarantined: the session stays alive.
  w.send_ctrl(n);
  w.advance(20 * kMilli);
  EXPECT_EQ(w.ctrl_failures, 0);
  EXPECT_EQ(w.ctrl_latencies.size(), 1u);

  // Cooldown elapses; the next frame (a heartbeat or an indication) lifts
  // the quarantine and DATA flows again.
  const int delivered_before = n.indications;
  w.advance(ov.flood_cooldown + 100 * kMilli);
  n.fn->emit(n.ctrl);
  w.advance(20 * kMilli);
  EXPECT_EQ(st.flood_recoveries, 1u);
  EXPECT_EQ(w.events[0]->log.back(), "reconnect:" + id);
  EXPECT_GT(n.indications, delivered_before)
      << "post-recovery indications must deliver again";
  w.expect_reconciles();
}

// ---------------------------------------------------------------------------
// Control deadline budgets
// ---------------------------------------------------------------------------

TEST(Storm, ControlDeadlineFailsFastThroughPartition) {
  World w(kPlain, storm_cfg());  // ctrl_deadline = 100 ms
  auto& n = connect_agent(w, 14);
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
  ASSERT_TRUE(w.server()
                  .send_control(n.id, 200, Buffer{0x01}, Buffer{0x02},
                                std::move(cbs))
                  .is_ok());
  ASSERT_EQ(w.server().num_inflight_controls(), 1u);

  w.advance(50 * kMilli);
  EXPECT_FALSE(failed) << "deadline must not fire early";
  w.advance(60 * kMilli);
  EXPECT_TRUE(failed);
  EXPECT_EQ(cause.group, e2ap::Cause::Group::transport);
  EXPECT_EQ(w.server().num_inflight_controls(), 0u);
  EXPECT_EQ(w.server().stats().ctrls_deadline_expired, 1u);

  // Heal; later transactions complete and cancel their deadline timers.
  n.link->set_partitioned(false);
  w.send_ctrl(n);
  w.advance(200 * kMilli);
  EXPECT_EQ(w.ctrl_latencies.size(), 1u);
  EXPECT_EQ(w.server().stats().ctrls_deadline_expired, 1u) << "no spurious expiry";
}

// ---------------------------------------------------------------------------
// Agent-side bounded indication buffer under TX backpressure
// ---------------------------------------------------------------------------

TEST(Storm, AgentBuffersUnderBackpressureThenFlushesInOrder) {
  agent::OverloadConfig aov;
  aov.indication_queue = 8;
  World w(kPlain, storm_cfg());
  auto& n = connect_agent(w, 15, aov);
  w.subscribe(n);
  w.advance(10 * kMilli);

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
  w.advance(100 * kMilli);
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
  World w(kPlain, storm_cfg());
  auto& n = connect_agent(w, 16, aov);
  w.subscribe(n);
  w.advance(10 * kMilli);

  n.link->set_tx_credit(0);
  for (int i = 0; i < 10; ++i) n.fn->emit(n.ctrl);  // 4 buffered, 6 shed
  EXPECT_EQ(n.agent->stats().indications_shed, 6u);
  EXPECT_EQ(w.server().stats().agent_reported_sheds, 0u);

  // Link drains; the next heartbeat flushes and reports the shed delta.
  n.link->set_tx_credit(-1);
  w.advance(400 * kMilli);
  EXPECT_EQ(w.server().stats().agent_reported_sheds, 6u)
      << "shed report must carry the exact delta";
  EXPECT_GE(n.agent->stats().shed_reports_tx, 1u);
  EXPECT_EQ(n.indications, 4);

  // More sheds report incrementally, never double-counted.
  n.link->set_tx_credit(0);
  for (int i = 0; i < 7; ++i) n.fn->emit(n.ctrl);  // 4 buffered, 3 shed
  n.link->set_tx_credit(-1);
  w.advance(400 * kMilli);
  EXPECT_EQ(w.server().stats().agent_reported_sheds, 9u);
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
  World w(kPlain, storm_cfg(ov));
  auto& n = connect_agent(w, 17);
  w.subscribe(n);
  telemetry::TelemetryStore store(tiny_store(8, /*evict=*/true));

  std::uint64_t last_shed = 0;
  for (int ms = 0; ms < 100; ++ms) {
    for (int k = 0; k < 20; ++k) n.fn->emit(n.ctrl);
    w.advance(kMilli);
    if (ms % 10 == 9) {  // sample the shed ledger each virtual 10 ms
      const auto& st = w.server().stats();
      std::uint64_t shed = st.rate_shed + st.flood_shed + st.queue_shed;
      ASSERT_TRUE(store
                      .record({n.id, 0, telemetry::Metric::ov_ingest_shed},
                              w.clock.now(),
                              static_cast<double>(shed - last_shed))
                      .is_ok());
      last_shed = shed;
    }
  }
  // The final sample lands at exactly now(); the window end is exclusive.
  auto agg = store.window_aggregate(
      {n.id, 0, telemetry::Metric::ov_ingest_shed}, 0,
      w.clock.now() + kMilli, telemetry::QuerySource::raw);
  ASSERT_TRUE(agg.is_ok());
  EXPECT_EQ(agg->count, 10u);
  // The series integrates back to the ledger: nothing shed went unrecorded.
  EXPECT_EQ(static_cast<std::uint64_t>(agg->sum), last_shed);
  EXPECT_GT(last_shed, 0u);
}

// ---------------------------------------------------------------------------
// Seeded storm soak: one script over the plain server and 1/2/4 shards. A
// flooder and a victim per server with per-server derived seeds, the
// multiplier swept from the seed, control transactions at the victims. The
// global ledger must reconcile exactly, every victim stays whole and timely,
// and the whole schedule must replay byte-identically.
// ---------------------------------------------------------------------------

/// One full storm for one (server, seed); returns the trace the double run
/// compares.
std::string run_storm(std::uint32_t shards, std::uint64_t seed) {
  const int mult = static_cast<int>(1u << (2 * (seed % 4)));  // 1,4,16,64
  server::OverloadConfig ov = storm_defaults();
  ov.flood_threshold = 1500;
  ov.flood_window = 100 * kMilli;
  ov.flood_cooldown = 500 * kMilli;
  World w(shards, storm_cfg(ov));
  agent::OverloadConfig aov;
  aov.indication_queue = 64;
  std::vector<World::Node*> flooders, victims;
  for (std::uint32_t s = 0; s < w.num_servers(); ++s) {
    flooders.push_back(
        &w.add_agent(s, 0, e2ap::NodeType::gnb, aov, seed * 1000003 + s));
    victims.push_back(
        &w.add_agent(s, 0, e2ap::NodeType::gnb, aov, seed * 2000003 + s));
  }
  for (auto* n : flooders) EXPECT_TRUE(w.converge(*n, 5 * kSecond));
  for (auto* n : victims) EXPECT_TRUE(w.converge(*n, 5 * kSecond));
  for (auto* n : flooders) w.subscribe(*n);
  for (auto* n : victims) w.subscribe(*n);

  // Every server rides the same schedule: a storm burst at mult/ms, the
  // victim at line rate with a control txn every 20 ms, and a slow-consumer
  // spell on the flooder's own link, then recovery — all on the virtual
  // clock.
  for (int ms = 0; ms < 200; ++ms) {
    for (std::uint32_t s = 0; s < w.num_servers(); ++s) {
      if (ms == 120) flooders[s]->link->set_tx_credit(4);   // slow consumer
      if (ms == 140) flooders[s]->link->set_tx_credit(-1);  // catches up
      for (int k = 0; k < mult; ++k) flooders[s]->fn->emit(flooders[s]->ctrl);
      victims[s]->fn->emit(victims[s]->ctrl);
      if (ms % 20 == 0) w.send_ctrl(*victims[s]);
    }
    w.advance(kMilli);
  }
  w.advance(kSecond);  // settle: flush, heartbeats, shed reports, publishes

  // Invariants hold for every server, seed and multiplier. Zero silent
  // drops, end to end: every emitted indication is delivered, agent-shed
  // (and reported), or server-shed.
  w.expect_reconciles();
  for (const auto& n : w.nodes) expect_agent_reconciles(*n);
  EXPECT_EQ(w.ctrl_failures, 0);
  EXPECT_LE(w.ctrl_p99(), 20 * kMilli);
  for (std::uint32_t s = 0; s < w.num_servers(); ++s) {
    // The victim's line-rate traffic survived its local storm, in order.
    EXPECT_EQ(victims[s]->indications,
              static_cast<int>(victims[s]->fn->emitted))
        << "victim on server " << s << " lost traffic to its local flooder";
    EXPECT_TRUE(
        std::is_sorted(victims[s]->sns.begin(), victims[s]->sns.end()));
    // Shed reports arrived everywhere by the settle point.
    EXPECT_EQ(w.server(s).stats().agent_reported_sheds,
              flooders[s]->agent->stats().indications_shed +
                  victims[s]->agent->stats().indications_shed)
        << "server " << s
        << ": every agent-side shed must be reported by the settle point";
  }
  return "mult=" + std::to_string(mult) + " " + w.trace();
}

class StormSoak : public ::testing::TestWithParam<test::SoakParam> {};

TEST_P(StormSoak, ShedsExactlyAndIsDeterministic) {
  const auto [shards, seed] = GetParam();
  SCOPED_TRACE("FLEXRIC_STORM_SEEDS=" + std::to_string(seed) + " on " +
               test::server_name(shards) + " reproduces this run");
  test::expect_replays([&] { return run_storm(shards, seed); });
}

INSTANTIATE_TEST_SUITE_P(
    Servers, StormSoak,
    ::testing::Combine(::testing::Values(kPlain, 1u, 2u, 4u),
                       ::testing::ValuesIn(test::soak_seeds(
                           "FLEXRIC_STORM_SEEDS"))),
    test::soak_name);

}  // namespace
}  // namespace flexric
