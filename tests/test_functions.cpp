// Integration tests for the bundled RAN functions: periodic stats SMs, RRC
// events, slice + TC control through the full agent/server/E2AP stack, HW
// ping, and per-controller UE visibility (§4.1.2).
#include <gtest/gtest.h>

#include "agent/agent.hpp"
#include "e2sm/common.hpp"
#include "helpers.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

namespace flexric {
namespace {

using test::pump;
using test::pump_until;

constexpr WireFormat kFmt = WireFormat::flat;

ran::CellConfig nr_cell() {
  ran::CellConfig cfg;
  cfg.rat = ran::Rat::nr;
  cfg.num_prbs = 106;
  cfg.default_mcs = 20;
  return cfg;
}

/// Full single-BS stack: simulator + agent with all bundled functions +
/// server, wired over an in-process transport.
struct Stack {
  Reactor reactor;
  ran::BaseStation bs{nr_cell()};
  agent::E2Agent agent{reactor,
                       {{1, 10, e2ap::NodeType::gnb}, kFmt}};
  ran::BsFunctionBundle bundle{bs, agent, kFmt};
  server::E2Server server{reactor, {21, kFmt}};
  Nanos now = 0;

  Stack() {
    auto [a_side, s_side] = LocalTransport::make_pair(reactor);
    server.attach(s_side);
    EXPECT_TRUE(agent.add_controller(a_side).is_ok());
    test::pump_until(reactor,
                     [this] { return server.ran_db().num_agents() == 1; });
  }

  /// Advance virtual time with reactor pumping interleaved.
  void run_ttis(int n, std::function<void(Nanos)> per_tti = nullptr) {
    for (int t = 0; t < n; ++t) {
      now += kMilli;
      if (per_tti) per_tti(now);
      bs.tick(now);
      bundle.on_tti(now);
      reactor.run_once(0);
    }
  }

  Buffer trigger(std::uint32_t period_ms,
                 e2sm::TriggerKind kind = e2sm::TriggerKind::periodic) {
    return e2sm::sm_encode(e2sm::EventTrigger{kind, period_ms}, kFmt);
  }
};

TEST(Functions, AgentAdvertisesAllBundledSms) {
  Stack s;
  const auto* info = s.server.ran_db().agent(1);
  ASSERT_NE(info, nullptr);
  std::set<std::uint16_t> ids;
  for (const auto& f : info->functions) ids.insert(f.id);
  EXPECT_EQ(ids, (std::set<std::uint16_t>{
                     e2sm::mac::Sm::kId, e2sm::rlc::Sm::kId,
                     e2sm::pdcp::Sm::kId, e2sm::kpm::Sm::kId,
                     e2sm::rrc::Sm::kId, e2sm::slice::Sm::kId,
                     e2sm::tc::Sm::kId}));
}

TEST(Functions, MacStatsPeriodicReports) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  std::vector<e2sm::mac::IndicationMsg> reports;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    auto msg = e2sm::sm_decode<e2sm::mac::IndicationMsg>(ind.message, kFmt);
    ASSERT_TRUE(msg.is_ok());
    reports.push_back(std::move(*msg));
  };
  auto h = s.server.subscribe(1, e2sm::mac::Sm::kId, s.trigger(1),
                              {{1, e2ap::ActionType::report, {}}}, cbs);
  ASSERT_TRUE(h.is_ok());
  pump(s.reactor);
  s.run_ttis(50);
  pump(s.reactor, 5);
  // 1 ms reporting: one report per TTI.
  EXPECT_GE(reports.size(), 48u);
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports[0].ues.size(), 1u);
  EXPECT_EQ(reports[0].ues[0].rnti, 100);
}

TEST(Functions, ReportPeriodIsHonored) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  int count = 0;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication&) { count++; };
  (void)s.server.subscribe(1, e2sm::mac::Sm::kId, s.trigger(10),
                     {{1, e2ap::ActionType::report, {}}}, cbs);
  pump(s.reactor);
  s.run_ttis(100);
  pump(s.reactor, 5);
  EXPECT_GE(count, 9);
  EXPECT_LE(count, 11);
}

TEST(Functions, HarqOnlyWhenRequested) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  std::optional<e2sm::mac::IndicationMsg> with, without;
  auto subscribe = [&](bool harq, auto& out) {
    e2sm::mac::ActionDef def;
    def.include_harq = harq;
    server::SubCallbacks cbs;
    cbs.on_indication = [&out](const e2ap::Indication& ind) {
      out = *e2sm::sm_decode<e2sm::mac::IndicationMsg>(ind.message, kFmt);
    };
    (void)s.server.subscribe(1, e2sm::mac::Sm::kId, s.trigger(1),
                       {{1, e2ap::ActionType::report,
                         e2sm::sm_encode(def, kFmt)}},
                       cbs);
  };
  subscribe(true, with);
  subscribe(false, without);
  pump(s.reactor);
  // Generate traffic so HARQ retx counters have a chance to tick.
  s.run_ttis(600, [&](Nanos) {
    ran::Packet p;
    p.size_bytes = 1400;
    s.bs.deliver_downlink(100, 1, p);
  });
  ASSERT_TRUE(with.has_value());
  ASSERT_TRUE(without.has_value());
  EXPECT_EQ(without->ues[0].harq_retx, 0u);
}

TEST(Functions, SubscriptionDeleteStopsReports) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  int count = 0;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication&) { count++; };
  auto h = s.server.subscribe(1, e2sm::mac::Sm::kId, s.trigger(1),
                              {{1, e2ap::ActionType::report, {}}}, cbs);
  pump(s.reactor);
  s.run_ttis(10);
  ASSERT_TRUE(s.server.unsubscribe(*h).is_ok());
  pump(s.reactor, 5);
  EXPECT_EQ(s.bundle.mac().num_subscriptions(), 0u);
  int at_unsub = count;
  s.run_ttis(20);
  EXPECT_EQ(count, at_unsub);
}

TEST(Functions, OnEventTriggerRejectedByPeriodicSm) {
  Stack s;
  bool failed = false;
  server::SubCallbacks cbs;
  cbs.on_failure = [&](const e2ap::SubscriptionFailure&) { failed = true; };
  (void)s.server.subscribe(1, e2sm::mac::Sm::kId,
                     s.trigger(0, e2sm::TriggerKind::on_event),
                     {{1, e2ap::ActionType::report, {}}}, cbs);
  ASSERT_TRUE(pump_until(s.reactor, [&] { return failed; }));
}

TEST(Functions, RlcAndPdcpAndKpmReports) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  std::optional<e2sm::rlc::IndicationMsg> rlc;
  std::optional<e2sm::pdcp::IndicationMsg> pdcp;
  std::optional<e2sm::kpm::IndicationMsg> kpm;
  server::SubCallbacks rlc_cbs, pdcp_cbs, kpm_cbs;
  rlc_cbs.on_indication = [&](const e2ap::Indication& ind) {
    rlc = *e2sm::sm_decode<e2sm::rlc::IndicationMsg>(ind.message, kFmt);
  };
  pdcp_cbs.on_indication = [&](const e2ap::Indication& ind) {
    pdcp = *e2sm::sm_decode<e2sm::pdcp::IndicationMsg>(ind.message, kFmt);
  };
  kpm_cbs.on_indication = [&](const e2ap::Indication& ind) {
    kpm = *e2sm::sm_decode<e2sm::kpm::IndicationMsg>(ind.message, kFmt);
  };
  (void)s.server.subscribe(1, e2sm::rlc::Sm::kId, s.trigger(5),
                     {{1, e2ap::ActionType::report, {}}}, rlc_cbs);
  (void)s.server.subscribe(1, e2sm::pdcp::Sm::kId, s.trigger(5),
                     {{1, e2ap::ActionType::report, {}}}, pdcp_cbs);
  (void)s.server.subscribe(1, e2sm::kpm::Sm::kId, s.trigger(10),
                     {{1, e2ap::ActionType::report, {}}}, kpm_cbs);
  pump(s.reactor);
  s.run_ttis(50, [&](Nanos) {
    ran::Packet p;
    p.size_bytes = 1200;
    s.bs.deliver_downlink(100, 1, p);
  });
  ASSERT_TRUE(rlc.has_value());
  ASSERT_TRUE(pdcp.has_value());
  ASSERT_TRUE(kpm.has_value());
  EXPECT_EQ(rlc->bearers.size(), 1u);
  EXPECT_GT(pdcp->bearers[0].tx_sdus, 0u);
  EXPECT_FALSE(kpm->metrics.empty());
}

TEST(Functions, RrcEventsReachSubscriber) {
  Stack s;
  std::vector<e2sm::rrc::IndicationMsg> events;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    events.push_back(
        *e2sm::sm_decode<e2sm::rrc::IndicationMsg>(ind.message, kFmt));
  };
  (void)s.server.subscribe(1, e2sm::rrc::Sm::kId,
                     s.trigger(0, e2sm::TriggerKind::on_event),
                     {{1, e2ap::ActionType::report, {}}}, cbs);
  pump(s.reactor);
  (void)s.bs.attach_ue({100, 20899, 5, 15, 20});
  (void)s.bs.detach_ue(100);
  pump(s.reactor, 5);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, e2sm::rrc::EventKind::attach);
  EXPECT_EQ(events[0].s_nssai, 5u);
  EXPECT_EQ(events[1].kind, e2sm::rrc::EventKind::detach);
}

TEST(Functions, RrcDetachOnlyFilter) {
  Stack s;
  std::vector<e2sm::rrc::EventKind> kinds;
  e2sm::rrc::ActionDef def;
  def.attach_events = false;
  def.detach_events = true;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    kinds.push_back(
        e2sm::sm_decode<e2sm::rrc::IndicationMsg>(ind.message, kFmt)->kind);
  };
  (void)s.server.subscribe(1, e2sm::rrc::Sm::kId,
                     s.trigger(0, e2sm::TriggerKind::on_event),
                     {{1, e2ap::ActionType::report,
                       e2sm::sm_encode(def, kFmt)}},
                     cbs);
  pump(s.reactor);
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  (void)s.bs.detach_ue(100);
  pump(s.reactor, 5);
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], e2sm::rrc::EventKind::detach);
}

TEST(Functions, SliceControlViaE2AppliesAndAcks) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  e2sm::slice::CtrlMsg msg;
  msg.kind = e2sm::slice::CtrlKind::add_mod;
  msg.algo = e2sm::slice::Algo::nvs;
  e2sm::slice::SliceConf conf;
  conf.id = 1;
  conf.nvs = {e2sm::slice::NvsKind::capacity, 0.5, 0, 0};
  msg.slices = {conf};

  std::optional<bool> success;
  server::CtrlCallbacks cbs;
  cbs.on_ack = [&](const e2ap::ControlAck& ack) {
    success =
        e2sm::sm_decode<e2sm::slice::CtrlOutcome>(ack.outcome, kFmt)->success;
  };
  (void)s.server.send_control(1, e2sm::slice::Sm::kId, {},
                        e2sm::sm_encode(msg, kFmt), cbs);
  ASSERT_TRUE(pump_until(s.reactor, [&] { return success.has_value(); }));
  EXPECT_TRUE(*success);
  EXPECT_EQ(s.bs.mac().num_slices(), 2u);  // default + new
}

TEST(Functions, SliceControlRejectionReportedInOutcome) {
  Stack s;
  e2sm::slice::CtrlMsg msg;
  msg.kind = e2sm::slice::CtrlKind::add_mod;
  msg.algo = e2sm::slice::Algo::nvs;
  e2sm::slice::SliceConf a, b;
  a.id = 1;
  a.nvs = {e2sm::slice::NvsKind::capacity, 0.8, 0, 0};
  b.id = 2;
  b.nvs = {e2sm::slice::NvsKind::capacity, 0.4, 0, 0};
  msg.slices = {a, b};
  std::optional<e2sm::slice::CtrlOutcome> outcome;
  server::CtrlCallbacks cbs;
  cbs.on_ack = [&](const e2ap::ControlAck& ack) {
    outcome = *e2sm::sm_decode<e2sm::slice::CtrlOutcome>(ack.outcome, kFmt);
  };
  (void)s.server.send_control(1, e2sm::slice::Sm::kId, {},
                        e2sm::sm_encode(msg, kFmt), cbs);
  ASSERT_TRUE(pump_until(s.reactor, [&] { return outcome.has_value(); }));
  EXPECT_FALSE(outcome->success);
  EXPECT_NE(outcome->diagnostic.find("admission"), std::string::npos);
}

TEST(Functions, SliceStatusReports) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  std::optional<e2sm::slice::IndicationMsg> status;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    status = *e2sm::sm_decode<e2sm::slice::IndicationMsg>(ind.message, kFmt);
  };
  (void)s.server.subscribe(1, e2sm::slice::Sm::kId, s.trigger(10),
                     {{1, e2ap::ActionType::report, {}}}, cbs);
  pump(s.reactor);
  s.run_ttis(30);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->algo, e2sm::slice::Algo::none);
  ASSERT_FALSE(status->slices.empty());  // default slice
}

TEST(Functions, TcControlInstallsQueueFilterPacer) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  auto send_tc = [&](e2sm::tc::CtrlMsg msg) {
    std::optional<bool> ok;
    server::CtrlCallbacks cbs;
    cbs.on_ack = [&](const e2ap::ControlAck& ack) {
      ok = e2sm::sm_decode<e2sm::tc::CtrlOutcome>(ack.outcome, kFmt)->success;
    };
    cbs.on_failure = [&](const e2ap::ControlFailure&) { ok = false; };
    (void)s.server.send_control(1, e2sm::tc::Sm::kId, {},
                          e2sm::sm_encode(msg, kFmt), cbs);
    pump_until(s.reactor, [&] { return ok.has_value(); });
    return ok.value_or(false);
  };

  e2sm::tc::CtrlMsg add_q;
  add_q.kind = e2sm::tc::CtrlKind::add_queue;
  add_q.rnti = 100;
  add_q.queue.qid = 1;
  EXPECT_TRUE(send_tc(add_q));
  EXPECT_FALSE(send_tc(add_q));  // duplicate queue rejected

  e2sm::tc::CtrlMsg add_f;
  add_f.kind = e2sm::tc::CtrlKind::add_filter;
  add_f.rnti = 100;
  add_f.filter.filter_id = 1;
  add_f.filter.match.dst_port = 5060;
  add_f.filter.dst_qid = 1;
  EXPECT_TRUE(send_tc(add_f));

  e2sm::tc::CtrlMsg pacer;
  pacer.kind = e2sm::tc::CtrlKind::pacer_conf;
  pacer.rnti = 100;
  pacer.pacer.kind = e2sm::tc::PacerKind::bdp;
  EXPECT_TRUE(send_tc(pacer));

  tc::TcChain* chain = s.bs.tc_chain(100, 1);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->num_queues(), 2u);
  EXPECT_EQ(chain->pacer().kind, e2sm::tc::PacerKind::bdp);

  e2sm::tc::CtrlMsg bad;
  bad.kind = e2sm::tc::CtrlKind::add_queue;
  bad.rnti = 999;  // no such UE
  bad.queue.qid = 2;
  EXPECT_FALSE(send_tc(bad));

  // An unknown kind is a wire value no case handles: it must not be acked
  // as a successful no-op.
  e2sm::tc::CtrlMsg unknown;
  unknown.kind = static_cast<e2sm::tc::CtrlKind>(6);
  unknown.rnti = 100;
  EXPECT_FALSE(send_tc(unknown));
}

TEST(Functions, TcStatsReports) {
  Stack s;
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  std::optional<e2sm::tc::IndicationMsg> stats;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    stats = *e2sm::sm_decode<e2sm::tc::IndicationMsg>(ind.message, kFmt);
  };
  (void)s.server.subscribe(1, e2sm::tc::Sm::kId, s.trigger(10),
                     {{1, e2ap::ActionType::report, {}}}, cbs);
  pump(s.reactor);
  s.run_ttis(30, [&](Nanos) {
    ran::Packet p;
    p.size_bytes = 800;
    s.bs.deliver_downlink(100, 1, p);
  });
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->queues.size(), 1u);  // default queue
  EXPECT_GT(stats->queues[0].tx_pkts, 0u);
}

TEST(Functions, HwPingPongRoundTrip) {
  Reactor reactor;
  agent::E2Agent agent(reactor, {{1, 10, e2ap::NodeType::gnb}, kFmt});
  (void)agent.register_function(std::make_shared<ran::HwFunction>(kFmt));
  server::E2Server server(reactor, {21, kFmt});
  auto [a_side, s_side] = LocalTransport::make_pair(reactor);
  server.attach(s_side);
  (void)agent.add_controller(a_side);
  pump_until(reactor, [&] { return server.ran_db().num_agents() == 1; });

  // Install the pong path (subscription), then ping via control.
  std::optional<e2sm::hw::Pong> pong;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    pong = *e2sm::sm_decode<e2sm::hw::Pong>(ind.message, kFmt);
  };
  (void)server.subscribe(1, e2sm::hw::Sm::kId,
                   e2sm::sm_encode(
                       e2sm::EventTrigger{e2sm::TriggerKind::on_event, 0},
                       kFmt),
                   {{1, e2ap::ActionType::report, {}}}, cbs);
  pump(reactor, 5);

  e2sm::hw::Ping ping;
  ping.seq = 7;
  ping.sent_ns = 1234;
  ping.payload = Buffer(100, 0x5A);
  (void)server.send_control(1, e2sm::hw::Sm::kId, {},
                      e2sm::sm_encode(ping, kFmt), {},
                      /*ack_requested=*/false);
  ASSERT_TRUE(pump_until(reactor, [&] { return pong.has_value(); }));
  EXPECT_EQ(pong->seq, 7u);
  EXPECT_EQ(pong->ping_sent_ns, 1234u);
  EXPECT_EQ(pong->payload, Buffer(100, 0x5A));
}

TEST(Functions, HwPingWithoutSubscriptionFails) {
  Reactor reactor;
  agent::E2Agent agent(reactor, {{1, 10, e2ap::NodeType::gnb}, kFmt});
  (void)agent.register_function(std::make_shared<ran::HwFunction>(kFmt));
  server::E2Server server(reactor, {21, kFmt});
  auto [a_side, s_side] = LocalTransport::make_pair(reactor);
  server.attach(s_side);
  (void)agent.add_controller(a_side);
  pump_until(reactor, [&] { return server.ran_db().num_agents() == 1; });

  bool failed = false;
  server::CtrlCallbacks cbs;
  cbs.on_failure = [&](const e2ap::ControlFailure&) { failed = true; };
  e2sm::hw::Ping ping;
  (void)server.send_control(1, e2sm::hw::Sm::kId, {}, e2sm::sm_encode(ping, kFmt),
                      cbs);
  ASSERT_TRUE(pump_until(reactor, [&] { return failed; }));
}

// ---------------------------------------------------------------------------
// Multi-controller UE visibility through the stats SMs (§4.1.2)
// ---------------------------------------------------------------------------

TEST(Functions, SecondControllerSeesOnlyAssociatedUes) {
  Stack s;  // controller 0 = s.server
  server::E2Server second(s.reactor, {22, kFmt});
  auto [a_side, s_side] = LocalTransport::make_pair(s.reactor);
  second.attach(s_side);
  ASSERT_TRUE(s.agent.add_controller(a_side).is_ok());
  pump_until(s.reactor, [&] { return second.ran_db().num_agents() == 1; });

  (void)s.bs.attach_ue({100, 1, 0, 15, 20});
  (void)s.bs.attach_ue({101, 1, 0, 15, 20});
  s.agent.associate_ue(101, 1);  // expose only UE 101 to controller 1

  std::optional<e2sm::mac::IndicationMsg> first_view, second_view;
  server::SubCallbacks cbs1, cbs2;
  cbs1.on_indication = [&](const e2ap::Indication& ind) {
    first_view = *e2sm::sm_decode<e2sm::mac::IndicationMsg>(ind.message, kFmt);
  };
  cbs2.on_indication = [&](const e2ap::Indication& ind) {
    second_view =
        *e2sm::sm_decode<e2sm::mac::IndicationMsg>(ind.message, kFmt);
  };
  (void)s.server.subscribe(1, e2sm::mac::Sm::kId, s.trigger(1),
                     {{1, e2ap::ActionType::report, {}}}, cbs1);
  (void)second.subscribe(1, e2sm::mac::Sm::kId, s.trigger(1),
                   {{1, e2ap::ActionType::report, {}}}, cbs2);
  pump(s.reactor);
  s.run_ttis(10);
  pump(s.reactor, 5);

  ASSERT_TRUE(first_view.has_value());
  ASSERT_TRUE(second_view.has_value());
  EXPECT_EQ(first_view->ues.size(), 2u);   // primary sees all
  ASSERT_EQ(second_view->ues.size(), 1u);  // partitioned view
  EXPECT_EQ(second_view->ues[0].rnti, 101);
}

TEST(Functions, SliceAssocForInvisibleUeRejected) {
  Stack s;
  server::E2Server second(s.reactor, {22, kFmt});
  auto [a_side, s_side] = LocalTransport::make_pair(s.reactor);
  second.attach(s_side);
  (void)s.agent.add_controller(a_side);
  pump_until(s.reactor, [&] { return second.ran_db().num_agents() == 1; });
  (void)s.bs.attach_ue({100, 1, 0, 15, 20});

  // Controller 1 (not primary) tries to associate UE 100 it cannot see.
  e2sm::slice::CtrlMsg add;
  add.kind = e2sm::slice::CtrlKind::add_mod;
  add.algo = e2sm::slice::Algo::nvs;
  e2sm::slice::SliceConf conf;
  conf.id = 1;
  conf.nvs.capacity_share = 0.5;
  add.slices = {conf};
  std::optional<bool> add_ok;
  server::CtrlCallbacks add_cbs;
  add_cbs.on_ack = [&](const e2ap::ControlAck& ack) {
    add_ok =
        e2sm::sm_decode<e2sm::slice::CtrlOutcome>(ack.outcome, kFmt)->success;
  };
  (void)second.send_control(1, e2sm::slice::Sm::kId, {},
                      e2sm::sm_encode(add, kFmt), add_cbs);
  pump_until(s.reactor, [&] { return add_ok.has_value(); });
  EXPECT_TRUE(add_ok.value_or(false));

  e2sm::slice::CtrlMsg assoc;
  assoc.kind = e2sm::slice::CtrlKind::assoc_ue;
  assoc.assoc = {{100, 1}};
  bool failed = false;
  server::CtrlCallbacks cbs;
  cbs.on_failure = [&](const e2ap::ControlFailure&) { failed = true; };
  (void)second.send_control(1, e2sm::slice::Sm::kId, {},
                      e2sm::sm_encode(assoc, kFmt), cbs);
  ASSERT_TRUE(pump_until(s.reactor, [&] { return failed; }));
}

}  // namespace
}  // namespace flexric
