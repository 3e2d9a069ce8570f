// Shard supervision (DESIGN.md §15): watchdog detection, quarantine
// containment, stateful recovery, exact accounting across the whole arc,
// and the seeded kill/recover chaos soak — all on VirtualClock, so every
// duration below is virtual milliseconds and every run replays
// byte-identically.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ctrl/json.hpp"
#include "ctrl/rest.hpp"
#include "ctrl/supervision_rest.hpp"
#include "world.hpp"

namespace flexric::test {
namespace {

using server::ShardHealth;

/// Agent resilience twitchy enough to re-home within the test budget.
ResilienceConfig fast_rc() {
  ResilienceConfig rc;
  rc.heartbeat_period = 20 * kMilli;
  rc.heartbeat_miss_threshold = 3;
  rc.backoff_base = 20 * kMilli;
  return rc;
}

// ---------------------------------------------------------------------------
// Counter board: the ledger publish is the heartbeat
// ---------------------------------------------------------------------------

TEST(CounterBoard, PublishIsTheBeatAndTheRebuildResetIsNot) {
  ShardCounterBoard board(2);
  EXPECT_EQ(board.beat(0).count, 0u);
  board.publish(0, uniform_ledger(1), board.epoch_of(0), 5 * kMilli);
  board.publish(0, uniform_ledger(2), board.epoch_of(0), 7 * kMilli);
  EXPECT_EQ(board.beat(0).count, 2u);
  EXPECT_EQ(board.beat(0).at_ns, 7 * kMilli);
  EXPECT_EQ(board.beat(1).count, 0u) << "slots are independent";
  // A corpse incarnation neither publishes nor beats.
  const std::uint64_t old_epoch = board.epoch_of(0);
  board.bump_epoch(0);
  board.publish(0, uniform_ledger(99), old_epoch, 9 * kMilli);
  EXPECT_EQ(board.beat(0).count, 2u);
  EXPECT_EQ(board.beat(0).at_ns, 7 * kMilli);
  // The rebuild's reset empties the slot and is not a beat.
  board.reset(0);
  EXPECT_EQ(board.read(0), ShardLedger{});
  EXPECT_EQ(board.beat(0).count, 0u);
  EXPECT_EQ(board.beat(0).at_ns, 0);
  // The replacement's first publish is its first beat.
  board.publish(0, uniform_ledger(3), board.epoch_of(0), 11 * kMilli);
  EXPECT_EQ(board.beat(0).count, 1u);
  EXPECT_EQ(board.beat(0).at_ns, 11 * kMilli);
}

TEST(CounterBoard, StaleEpochPublishIsDropped) {
  ShardCounterBoard board(1);
  const std::uint64_t old_epoch = board.epoch_of(0);
  board.publish(0, uniform_ledger(7), old_epoch);
  EXPECT_EQ(board.read(0), uniform_ledger(7));
  board.bump_epoch(0);
  board.publish(0, uniform_ledger(99), old_epoch);  // corpse incarnation
  EXPECT_EQ(board.read(0), uniform_ledger(7))
      << "stale-epoch publish must be dropped, every field of it";
  board.publish(0, uniform_ledger(11), board.epoch_of(0));  // replacement
  EXPECT_EQ(board.read(0), uniform_ledger(11));
}

// ---------------------------------------------------------------------------
// Watchdog state machine
// ---------------------------------------------------------------------------

TEST(Watchdog, HealthyWhileBeating) {
  World w(2, {}, /*supervised=*/true);
  w.advance(kSecond);
  for (std::uint32_t i = 0; i < 2; ++i)
    EXPECT_EQ(w.ric->supervisor().health(i), ShardHealth::healthy);
  EXPECT_EQ(w.ric->supervisor().stats().quarantines, 0u);
}

TEST(Watchdog, DetectsWedgedShardWithinDeadline) {
  World w(2, {}, /*supervised=*/true);
  w.advance(100 * kMilli);
  const Nanos wedged_at = w.clock.now();
  w.wedge_shard(1);
  // Detection must land within kQuarantineAfter + one heartbeat period +
  // one watchdog quantum (the world polls every 1 ms) of the wedge.
  const Nanos deadline = server::ShardSupervisor::kQuarantineAfter +
                         server::ShardSupervisor::kHeartbeatPeriod + kMilli;
  w.advance(deadline);
  EXPECT_EQ(w.ric->supervisor().stats().quarantines, 1u)
      << "wedged shard not detected within the deadline";
  EXPECT_GE(w.detect_at, wedged_at);
  EXPECT_LE(w.detect_at - wedged_at, deadline);
  EXPECT_EQ(w.ric->supervisor().health(0), ShardHealth::healthy)
      << "healthy shard must be untouched";
}

TEST(Watchdog, DegradedShardRecoversOnlyAfterHysteresis) {
  World w(1, {}, /*supervised=*/true);
  w.advance(100 * kMilli);
  // Silence the shard long enough to degrade but not to quarantine.
  w.wedge_shard(0);
  w.advance(100 * kMilli);
  EXPECT_EQ(w.ric->supervisor().health(0), ShardHealth::degraded);
  // Un-wedge by hand (the handler came back on its own — no restart).
  for (auto& n : w.nodes) n->link->set_tx_credit(-1);
  w.unwedge_shard(0);
  // One fresh poll is not enough; kRecoverHysteresis (3) consecutive are.
  w.advance(kMilli);
  EXPECT_EQ(w.ric->supervisor().health(0), ShardHealth::degraded);
  w.advance(10 * kMilli);
  EXPECT_EQ(w.ric->supervisor().health(0), ShardHealth::healthy);
  EXPECT_EQ(w.ric->supervisor().stats().quarantines, 0u);
  EXPECT_EQ(w.pool->restarts(), 0u) << "degraded alone must not restart";
}

// ---------------------------------------------------------------------------
// Containment: queries fail fast, no new work routed at the shard
// ---------------------------------------------------------------------------

TEST(Containment, InFlightQueryFailsFastAndNewQueriesAreRejected) {
  World w(2, {}, /*supervised=*/true);
  auto& n = w.add_agent(1, 0, e2ap::NodeType::gnb, {}, 1);
  (void)n;
  ASSERT_TRUE(w.converge(*w.nodes[0]));
  w.wedge_shard(1);

  std::vector<std::string> outcomes;
  ASSERT_TRUE(w.ric
                  ->query(
                      1, [](server::E2Server&) { return std::string("x"); },
                      [&](Result<std::string> r) {
                        outcomes.push_back(r.is_ok() ? "ok"
                                                     : r.status().to_string());
                      })
                  .is_ok());
  // The wedged shard never runs the job; detection must fail the query
  // with a transport-style cause instead of leaving it pending forever.
  w.advance(300 * kMilli);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_NE(outcomes[0].find("quarantined"), std::string::npos)
      << "got: " << outcomes[0];

  // While quarantined/rebuilding happened inside the same poll; afterwards
  // the shard accepts again. But against a *non-auto-restart* world the
  // refusal is observable: exercise it through a second wedge with the
  // budget spent.
  EXPECT_GE(w.ric->queries_failed(), 1u);
}

TEST(Containment, QuarantinedShardRefusesQueriesWhenNotAutoRestarted) {
  server::ShardedConfig cfg;
  cfg.auto_restart = false;
  World w(2, cfg, /*supervised=*/true);
  w.advance(100 * kMilli);
  w.wedge_shard(1);
  w.advance(300 * kMilli);
  ASSERT_EQ(w.ric->supervisor().health(1), ShardHealth::quarantined);
  EXPECT_FALSE(w.ric->accepting(1));
  Status st = w.ric->query(
      1, [](server::E2Server&) { return std::string(); },
      [](Result<std::string>) {});
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::rejected);
  EXPECT_FALSE(w.ric->post_to_shard(1, [] {}).is_ok());
  // Healthy shard is unaffected.
  EXPECT_TRUE(w.ric->post_to_shard(0, [] {}).is_ok());
  // Manual recovery path: the operator restarts it.
  w.ric->supervisor().restart(1);
  EXPECT_EQ(w.ric->supervisor().health(1), ShardHealth::recovering);
  EXPECT_TRUE(w.ric->accepting(1));
  w.advance(100 * kMilli);
  EXPECT_EQ(w.ric->supervisor().health(1), ShardHealth::healthy);
}

// ---------------------------------------------------------------------------
// Full arc: wedge -> detect -> quarantine -> rebuild -> re-home -> deliver
// ---------------------------------------------------------------------------

TEST(Recovery, WedgedShardIsRebuiltAgentsRehomeAndLedgerReconciles) {
  World w(2, {}, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.enable_fanout();
  auto& a = w.add_agent(0);
  auto& b = w.add_agent(1);
  ASSERT_TRUE(w.converge(a));
  ASSERT_TRUE(w.converge(b));
  w.advance(50 * kMilli);  // fan-out subscriptions land
  a.fn->emit(a.ctrl);
  b.fn->emit(b.ctrl);
  w.settle();
  ASSERT_EQ(w.fanout_delivered, 2u);
  const std::string dir_before = [&] {
    std::ostringstream o;
    for (auto id : w.ric->directory().agents()) o << id << ",";
    return o.str();
  }();

  w.wedge_shard(1);
  // Emissions during the outage: b's buffer agent-side (TCP backpressure
  // model), a's flow normally.
  for (int i = 0; i < 5; ++i) {
    a.fn->emit(a.ctrl);
    b.fn->emit(b.ctrl);
    w.advance(50 * kMilli);
  }
  EXPECT_EQ(w.ric->supervisor().stats().quarantines, 1u);
  EXPECT_EQ(w.ric->supervisor().stats().restarts, 1u);
  EXPECT_EQ(w.pool->restarts(), 1u);

  // Give the re-home time: reconnect, subscription replay, resync.
  w.advance(2 * kSecond);
  EXPECT_EQ(w.ric->supervisor().health(1), ShardHealth::healthy);
  EXPECT_TRUE(w.established(b)) << "agent failed to re-home";
  EXPECT_GE(b.dials, 2) << "re-home must be a fresh dial";

  // The merged directory converged back to the same membership (global ids
  // are deterministic, so the exact same line).
  w.settle();
  const std::string dir_after = [&] {
    std::ostringstream o;
    for (auto id : w.ric->directory().agents()) o << id << ",";
    return o.str();
  }();
  EXPECT_EQ(dir_before, dir_after) << "ghost or missing directory entries";

  // Post-recovery delivery: the replayed subscription carries indications
  // again (MTTR's second half).
  const std::uint64_t before = w.fanout_delivered;
  b.fn->emit(b.ctrl);
  w.advance(20 * kMilli);
  EXPECT_GT(w.fanout_delivered, before)
      << "subscription was not replayed on the rebuilt shard";
  EXPECT_GT(w.first_redelivery_at, w.detect_at);

  w.settle();
  w.expect_reconciles();
}

TEST(Recovery, CrashedShardLinksResetAndLedgerReconciles) {
  World w(2, {}, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.enable_fanout();
  auto& a = w.add_agent(1);
  ASSERT_TRUE(w.converge(a));
  w.advance(50 * kMilli);
  a.fn->emit(a.ctrl);
  w.settle();
  ASSERT_EQ(w.fanout_delivered, 1u);

  w.crash_shard(1);
  for (int i = 0; i < 5; ++i) {
    a.fn->emit(a.ctrl);
    w.advance(100 * kMilli);
  }
  w.advance(2 * kSecond);
  EXPECT_EQ(w.ric->supervisor().health(1), ShardHealth::healthy);
  EXPECT_TRUE(w.established(a));
  const std::uint64_t before = w.fanout_delivered;
  a.fn->emit(a.ctrl);
  w.advance(20 * kMilli);
  EXPECT_GT(w.fanout_delivered, before);
  w.settle();
  w.expect_reconciles();
}

// The replacement shard wedges before it earns trust: the watchdog must
// quarantine and rebuild it a second time, the agents must re-home onto the
// third incarnation, and the global ledger must close over both retired
// incarnations.
TEST(Recovery, ReplacementWedgedWhileRecoveringIsRebuiltAgain) {
  World w(2, {}, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.enable_fanout();
  auto& a = w.add_agent(0);
  auto& b = w.add_agent(1);
  ASSERT_TRUE(w.converge(a));
  ASSERT_TRUE(w.converge(b));
  w.advance(50 * kMilli);
  b.fn->emit(b.ctrl);
  w.settle();
  ASSERT_EQ(w.fanout_delivered, 1u);

  w.wedge_shard(1);
  for (Nanos t = 0; w.ric->supervisor().stats().restarts == 0; t += kMilli) {
    ASSERT_LT(t, kSecond) << "first wedge never rebuilt";
    w.advance(kMilli);
  }
  ASSERT_EQ(w.ric->supervisor().health(1), ShardHealth::recovering);
  w.wedge_shard_raw(1);  // the replacement never turns
  for (int i = 0; i < 5; ++i) {
    a.fn->emit(a.ctrl);
    b.fn->emit(b.ctrl);
    w.advance(100 * kMilli);
  }
  w.advance(2 * kSecond);

  std::vector<std::string> arc;
  for (const std::string& tr : w.transitions)
    if (tr.find(" s1 ") != std::string::npos)
      arc.push_back(tr.substr(tr.find(" s1 ") + 4));
  EXPECT_EQ(arc, (std::vector<std::string>{
                     "healthy->degraded", "degraded->quarantined",
                     "quarantined->recovering", "recovering->quarantined",
                     "quarantined->recovering", "recovering->healthy"}));
  EXPECT_EQ(w.ric->supervisor().stats().quarantines, 2u);
  EXPECT_EQ(w.ric->supervisor().stats().restarts, 2u);
  EXPECT_EQ(w.ric->supervisor().restarts_of(1), 2u);
  EXPECT_EQ(w.pool->restarts(), 2u);

  EXPECT_TRUE(w.established(b)) << "agent failed to re-home";
  const std::uint64_t before = w.fanout_delivered;
  b.fn->emit(b.ctrl);
  w.advance(20 * kMilli);
  EXPECT_GT(w.fanout_delivered, before)
      << "subscription was not replayed on the third incarnation";

  w.settle();
  EXPECT_GT(w.ric->retired_ledger(1).msgs_rx, 0u)
      << "the first incarnation's ledger was not harvested";
  EXPECT_TRUE(reconcile(w.ric->global_ledger()).closes())
      << counters_text(w.ric->global_ledger());
  w.expect_reconciles();
  w.expect_converged();
}

TEST(Recovery, ParkedFanoutIsShedWithExactAccounting) {
  World w(1, {}, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.enable_fanout();
  auto& a = w.add_agent(0);
  ASSERT_TRUE(w.converge(a));
  w.advance(50 * kMilli);

  // Emit and pump ONLY the shard (not the home rings): the indications
  // cross into the fan-out ring and park there.
  a.fn->emit(a.ctrl);
  a.fn->emit(a.ctrl);
  a.fn->emit(a.ctrl);
  for (int i = 0; i < 10; ++i) w.pool->pump_shard(0, 8);
  EXPECT_EQ(w.fanout_delivered, 0u) << "indications must be parked";

  // Quarantine + rebuild before the home side ever drains them: the parked
  // indications belong to a condemned incarnation and are shed with exact
  // accounting, not delivered stale. wedge_shard_raw skips the quiescence
  // settle — a settle would pump home and deliver the parked frames, which
  // is exactly what this fault must prevent.
  w.wedge_shard_raw(0);
  const std::uint64_t shed_before = w.ric->supervisor_shed();
  // advance() pumps home too, but the fan-out ring drains only via
  // pump_home... which would deliver them. Drive the supervisor directly.
  for (Nanos t = w.clock.now(); w.ric->supervisor().stats().restarts == 0;) {
    t += 10 * kMilli;
    w.clock.set(t);
    w.ric->supervisor().poll(t);
    ASSERT_LT(t, 10 * kSecond);
  }
  EXPECT_GE(w.ric->supervisor_shed(), shed_before + 3)
      << "parked fan-out must land in supervisor_shed";
  w.unwedge_shard(0);
  w.advance(2 * kSecond);
  w.settle();
  w.expect_reconciles();
}

// A CONTROL frame the ingest queue sheds was never an indication: a burst of
// control acks overflowing a 2-deep CONTROL queue must leave the indication
// ledger exact, counting only DATA-class queue sheds.
TEST(Recovery, ShedControlFramesStayOutOfTheIndicationLedger) {
  server::ShardedConfig cfg;
  cfg.server.overload.enabled = true;
  cfg.server.overload.control_queue = 2;
  World w(1, cfg, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.enable_fanout();
  auto& a = w.add_agent(0);
  ASSERT_TRUE(w.converge(a));
  w.advance(50 * kMilli);
  a.fn->emit(a.ctrl);
  for (int i = 0; i < 16; ++i)
    (void)w.ric->shard_server(0).send_control(a.id, 200, Buffer{0x01},
                                             Buffer{0x02}, {});
  w.advance(50 * kMilli);
  w.settle();
  ASSERT_EQ(w.fanout_delivered, 1u);
  const ShardLedger g = w.ric->global_ledger();
  EXPECT_GT(g.queue_shed, g.data_queue_shed)
      << "the ack burst was supposed to shed CONTROL frames";
  w.expect_reconciles();
}

// A rebuild destroys whatever waits in the dead shard's ingest queue. Only
// the DATA share of that backlog was ever an indication: CONTROL frames
// stranded there (control acks whose drain never ran) must leave the
// indication ledger exact, and the whole backlog must keep the server
// ledger closed.
TEST(Recovery, StrandedControlFramesStayOutOfTheIndicationLedger) {
  server::ShardedConfig cfg;
  cfg.server.overload.enabled = true;
  cfg.server.overload.dispatch_batch = 1;  // one frame per loop turn
  World w(1, cfg, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.enable_fanout();
  auto& a = w.add_agent(0);
  ASSERT_TRUE(w.converge(a));
  w.advance(50 * kMilli);
  a.fn->emit(a.ctrl);
  w.settle();
  ASSERT_EQ(w.fanout_delivered, 1u);

  // Four control acks and two indications reach the shard in one loop
  // turn, which dispatches one frame and posts the rest of the drain for
  // the next turn, which never comes.
  for (int i = 0; i < 4; ++i)
    (void)w.ric->shard_server(0).send_control(a.id, 200, Buffer{0x01},
                                              Buffer{0x02}, {});
  a.fn->emit(a.ctrl);
  a.fn->emit(a.ctrl);
  const auto& ingest = w.ric->shard_server(0).ingest_queue();
  for (int turn = 0; turn < 8 && ingest.size() == 0; ++turn)
    w.pool->pump_shard(0, 1);
  const std::size_t stranded_ctrl =
      ingest.queue(overload::MsgClass::control).size();
  const std::size_t stranded_data =
      ingest.queue(overload::MsgClass::data).size();
  ASSERT_GT(stranded_ctrl, 0u) << "no CONTROL frame stranded";
  ASSERT_GT(stranded_data, 0u) << "no indication stranded";

  w.wedge_shard_raw(0);
  for (Nanos t = w.clock.now(); w.ric->supervisor().stats().restarts == 0;) {
    t += 10 * kMilli;
    w.clock.set(t);
    w.ric->supervisor().poll(t);
    ASSERT_LT(t, 10 * kSecond);
  }
  // The whole backlog is counted once, in the retired ledger, so the
  // server equation still closes; only its DATA share is an indication.
  EXPECT_EQ(w.ric->global_ledger().stranded, stranded_ctrl + stranded_data);
  EXPECT_TRUE(reconcile(w.ric->global_ledger()).closes())
      << counters_text(w.ric->global_ledger());
  EXPECT_EQ(w.ric->supervisor_shed(), stranded_data);
  w.unwedge_shard(0);
  w.advance(2 * kSecond);
  w.settle();
  w.expect_reconciles();
}

// ---------------------------------------------------------------------------
// Satellite: directory snapshot resync racing agent churn
// ---------------------------------------------------------------------------

TEST(DirectoryResync, SnapshotRacingChurnConvergesWithoutGhosts) {
  // Tiny event ring so incremental directory traffic overflows and forces
  // snapshot resyncs while agents churn.
  server::ShardedConfig cfg;
  cfg.event_ring = 2;
  World w(2, cfg, /*supervised=*/true);
  w.agent_rc = fast_rc();

  // A stable population plus churners that attach/detach while snapshots
  // are in flight.
  auto& stable0 = w.add_agent(0);
  auto& stable1 = w.add_agent(1);
  ASSERT_TRUE(w.converge(stable0));
  ASSERT_TRUE(w.converge(stable1));

  std::vector<World::Node*> churners;
  for (int i = 0; i < 6; ++i)
    churners.push_back(&w.add_agent(static_cast<std::uint32_t>(i % 2)));
  for (auto* c : churners) ASSERT_TRUE(w.converge(*c));

  // Churn: kill and re-home the churners repeatedly; each burst overflows
  // the 2-deep event ring, so snapshots race the very churn they describe.
  for (int round = 0; round < 4; ++round) {
    for (auto* c : churners) c->link->kill();
    w.advance(300 * kMilli);
    for (auto* c : churners)
      for (Nanos t = 0; !w.established(*c) && t < 10 * kSecond;
           t += 50 * kMilli)
        w.advance(50 * kMilli);
  }
  w.advance(kSecond);
  w.settle();
  EXPECT_GT(w.ric->directory_resyncs(), 0u)
      << "test did not actually exercise the resync path";

  // Converged view: every live agent exactly once, no ghosts of any dead
  // incarnation, in both directions. Churners re-attached to a LIVE server,
  // so their ids drifted — re-discover before comparing.
  const auto ids = w.ric->directory().agents();
  EXPECT_EQ(ids.size(), 2u + churners.size())
      << "ghost or duplicate directory entries";
  for (const auto& n : w.nodes) {
    w.refresh_ids(*n);
    int hits = 0;
    for (auto id : ids)
      if (id == n->gid) hits++;
    EXPECT_EQ(hits, 1) << "agent nb=" << n->nb_id << " appears " << hits
                       << " times in the merged directory";
  }
}

// ---------------------------------------------------------------------------
// Northbound REST export (telemetry health metrics)
// ---------------------------------------------------------------------------

TEST(SupervisionRest, ExportsHealthAndRecoveryCounters) {
  World w(2, {}, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.advance(100 * kMilli);
  w.wedge_shard(1);
  w.advance(kSecond);  // detect + rebuild + recover
  ASSERT_EQ(w.ric->supervisor().stats().restarts, 1u);

  // The REST layer renders supervisor state; drive the handlers directly
  // (the HTTP plumbing itself is covered by the REST tests).
  Reactor r;
  ctrl::HttpServer http(r);
  ctrl::SupervisionRest rest(http, *w.ric);
  ASSERT_TRUE(http.listen(0).is_ok());
  std::string shards_body, sup_body;
  // The release store publishes the bodies written before it; the main
  // thread's acquire load pairs with it (and join() below is the fallback).
  std::atomic<bool> got{false};
  // One-shot client on a helper thread would break determinism; use the
  // blocking client against the reactor pumped inline instead.
  std::thread client([&] {
    auto resp1 = ctrl::HttpClient::request("127.0.0.1", http.port(), "GET",
                                           "/shards");
    auto resp2 = ctrl::HttpClient::request("127.0.0.1", http.port(), "GET",
                                           "/supervision");
    if (resp1.is_ok() && resp2.is_ok()) {
      shards_body = resp1->body;
      sup_body = resp2->body;
      got.store(true, std::memory_order_release);
    }
  });
  for (int i = 0; i < 2000 && !got.load(std::memory_order_acquire); ++i)
    r.run_once(1);
  client.join();
  ASSERT_TRUE(got.load());

  auto shards = ctrl::Json::parse(shards_body);
  ASSERT_TRUE(shards.is_ok());
  const auto& arr = shards->as_object().at("shards").as_array();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].as_object().at("health").as_string(), "healthy");
  EXPECT_EQ(arr[1].as_object().at("health").as_string(), "healthy");
  EXPECT_EQ(arr[1].as_object().at("restarts").as_number(), 1.0);

  auto sup = ctrl::Json::parse(sup_body);
  ASSERT_TRUE(sup.is_ok());
  const auto& o = sup->as_object();
  EXPECT_EQ(o.at("supervisor_quarantines").as_number(), 1.0);
  EXPECT_EQ(o.at("supervisor_restarts").as_number(), 1.0);
  EXPECT_EQ(o.at("supervisor_recoveries").as_number(), 1.0);
  EXPECT_GT(o.at("mttr_last_ms").as_number(), 0.0);
}

// ---------------------------------------------------------------------------
// Seeded kill/recover chaos soak: {1,2,4} shards x seeds, double-run
// byte-identical, every agent re-homed, ledger exact
// ---------------------------------------------------------------------------

std::string soak_run(std::uint32_t shards, std::uint64_t seed) {
  World w(shards, {}, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.enable_fanout();

  // Seeded world population: 1-2 agents per shard.
  std::uint64_t rng = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  std::vector<World::Node*> agents;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const int count = 1 + static_cast<int>(next() % 2);
    for (int i = 0; i < count; ++i) agents.push_back(&w.add_agent(s, 0));
  }
  for (auto* a : agents) EXPECT_TRUE(w.converge(*a));
  w.advance(100 * kMilli);

  // Seeded fault plan: 3 faults, each wedging or crashing one shard after
  // the nth emission burst (the crash-on-nth-event knob).
  for (int round = 0; round < 3; ++round) {
    const std::uint32_t victim = next() % shards;
    const bool crash = (next() % 2) == 0;
    const std::uint32_t nth = 1 + next() % 3;

    for (std::uint32_t burst = 0; burst < nth; ++burst) {
      for (auto* a : agents) a->fn->emit(a->ctrl);
      w.advance(20 * kMilli);
    }
    ShardFault f;
    f.kind = crash ? ShardFault::Kind::crash : ShardFault::Kind::wedge;
    f.shard = victim;
    w.inject(f);
    // Emit through the outage: victims buffer/shed, the rest flow.
    for (int i = 0; i < 6; ++i) {
      for (auto* a : agents) a->fn->emit(a->ctrl);
      w.advance(100 * kMilli);
    }
    // Recovery window: re-home everyone before the next fault.
    w.advance(3 * kSecond);
    for (auto* a : agents)
      EXPECT_TRUE(w.established(*a))
          << "seed " << seed << " round " << round << ": agent nb="
          << a->nb_id << " not re-homed";
  }

  // Final drain: flush buffered backlogs, then reconcile the world.
  w.advance(2 * kSecond);
  w.settle();
  w.expect_reconciles();
  w.expect_converged();
  EXPECT_EQ(w.ric->supervisor().stats().quarantines,
            w.ric->supervisor().stats().recoveries)
      << "seed " << seed << ": a quarantined shard never recovered";
  return w.trace();
}

class SuperviseSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(SuperviseSoak, KillRecoverReconcileAndReplayByteIdentically) {
  const auto [shards, seed] = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed) + " on " +
               server_name(shards) + " reproduces this run");
  expect_replays([&] { return soak_run(shards, seed); });
}

INSTANTIATE_TEST_SUITE_P(
    Shards, SuperviseSoak,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Range<std::uint64_t>(1, 13)),
    soak_name);

}  // namespace
}  // namespace flexric::test
