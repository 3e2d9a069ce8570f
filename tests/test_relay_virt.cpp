// Recursive controllers: the relay (two-hop emulation, Fig. 9a) and the
// virtualization controller (§6.2, Appendix B, Fig. 15).
#include <gtest/gtest.h>

#include "agent/agent.hpp"
#include "ctrl/relay.hpp"
#include "ctrl/slicing.hpp"
#include "ctrl/virt.hpp"
#include "e2sm/common.hpp"
#include "helpers.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

namespace flexric::ctrl {
namespace {

using test::pump;
using test::pump_until;

constexpr WireFormat kFmt = WireFormat::flat;

ran::CellConfig lte50() {
  ran::CellConfig cfg;
  cfg.rat = ran::Rat::lte;
  cfg.num_prbs = 50;
  cfg.default_mcs = 28;
  return cfg;
}

// ---------------------------------------------------------------------------
// Relay controller (two hops with FlexRIC components)
// ---------------------------------------------------------------------------

struct RelayWorld {
  Reactor reactor;
  // Real agent with the HW SM.
  agent::E2Agent agent{reactor, {{1, 10, e2ap::NodeType::gnb}, kFmt}};
  RelayController relay{reactor,
                        {kFmt, {1, 500, e2ap::NodeType::gnb}}};
  server::E2Server top{reactor, {99, kFmt}};  // the upper controller

  RelayWorld() {
    (void)agent.register_function(std::make_shared<ran::HwFunction>(kFmt));
    auto [a_side, s_side] = LocalTransport::make_pair(reactor);
    relay.southbound().attach(s_side);
    (void)agent.add_controller(a_side);
    test::pump_until(reactor, [this] { return relay.southbound_ready(); });
    auto [n_side, t_side] = LocalTransport::make_pair(reactor);
    top.attach(t_side);
    EXPECT_TRUE(relay.connect_northbound(n_side).is_ok());
    test::pump_until(reactor,
                     [this] { return top.ran_db().num_agents() == 1; });
  }
};

TEST(Relay, MirrorsSouthboundFunctionsNorthbound) {
  RelayWorld w;
  const auto* info = w.top.ran_db().agent(1);
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->functions.size(), 1u);
  EXPECT_EQ(info->functions[0].id, e2sm::hw::Sm::kId);
  // The northbound virtual node carries the mirrored entity's identity.
  EXPECT_EQ(info->node.nb_id, 10u);
  EXPECT_EQ(w.relay.num_entities(), 1u);
}

TEST(Relay, Fig14bCuDuExposedAsOneMonolithicNode) {
  // Topology abstraction (paper Fig. 14b): a CU + DU pair southbound is
  // presented northbound as ONE monolithic base station whose function set
  // is the union of both parts'.
  Reactor reactor;
  ran::BaseStation bs({ran::Rat::nr, 1, 106, kMilli, 20, false});
  agent::E2Agent cu(reactor, {{9, 321, e2ap::NodeType::cu}, kFmt});
  (void)cu.register_function(std::make_shared<ran::PdcpStatsFunction>(bs, kFmt));
  agent::E2Agent du(reactor, {{9, 321, e2ap::NodeType::du}, kFmt});
  (void)du.register_function(std::make_shared<ran::MacStatsFunction>(bs, kFmt));

  RelayController relay(reactor, {kFmt, {9, 999, e2ap::NodeType::gnb}});
  auto [c0, s0] = LocalTransport::make_pair(reactor);
  relay.southbound().attach(s0);
  (void)cu.add_controller(c0);
  auto [d0, s1] = LocalTransport::make_pair(reactor);
  relay.southbound().attach(s1);
  (void)du.add_controller(d0);
  pump_until(reactor, [&] {
    return relay.southbound().ran_db().num_agents() == 2;
  });
  EXPECT_EQ(relay.num_entities(), 1u);  // one virtual node, not two

  server::E2Server top(reactor, {99, kFmt});
  auto [n0, t0] = LocalTransport::make_pair(reactor);
  top.attach(t0);
  ASSERT_TRUE(relay.connect_northbound_entity(9, 321, n0).is_ok());
  pump_until(reactor, [&] { return top.ran_db().num_agents() == 1; });

  const auto* info = top.ran_db().agent(1);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->node.nb_id, 321u);
  EXPECT_EQ(info->node.type, e2ap::NodeType::gnb);  // monolithic view
  std::set<std::uint16_t> fns;
  for (const auto& f : info->functions) fns.insert(f.id);
  // Union of the CU's and the DU's function sets on one node.
  EXPECT_TRUE(fns.count(e2sm::pdcp::Sm::kId));
  EXPECT_TRUE(fns.count(e2sm::mac::Sm::kId));
  // Unknown entity is rejected.
  auto [nx, tx] = LocalTransport::make_pair(reactor);
  EXPECT_FALSE(relay.connect_northbound_entity(9, 322, nx).is_ok());
}

TEST(Relay, ConnectBeforeSouthboundRejected) {
  Reactor reactor;
  RelayController relay(reactor, {kFmt, {1, 500, e2ap::NodeType::gnb}});
  auto [n_side, t_side] = LocalTransport::make_pair(reactor);
  EXPECT_FALSE(relay.connect_northbound(n_side).is_ok());
}

TEST(Relay, PingTraversesTwoHops) {
  RelayWorld w;
  // Top controller: subscribe (pong path) through the relay, then ping.
  std::optional<e2sm::hw::Pong> pong;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    pong = *e2sm::sm_decode<e2sm::hw::Pong>(ind.message, kFmt);
  };
  auto h = w.top.subscribe(
      1, e2sm::hw::Sm::kId,
      e2sm::sm_encode(e2sm::EventTrigger{e2sm::TriggerKind::on_event, 0},
                      kFmt),
      {{1, e2ap::ActionType::report, {}}}, cbs);
  ASSERT_TRUE(h.is_ok());
  pump(w.reactor, 10);

  e2sm::hw::Ping ping;
  ping.seq = 99;
  ping.payload = Buffer(1500, 0x3C);
  (void)w.top.send_control(1, e2sm::hw::Sm::kId, {}, e2sm::sm_encode(ping, kFmt),
                     {}, /*ack_requested=*/false);
  ASSERT_TRUE(pump_until(w.reactor, [&] { return pong.has_value(); }));
  EXPECT_EQ(pong->seq, 99u);
  EXPECT_EQ(pong->payload.size(), 1500u);
}

TEST(Relay, UnsubscribeTearsDownSouthbound) {
  RelayWorld w;
  int indications = 0;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication&) { indications++; };
  auto h = w.top.subscribe(
      1, e2sm::hw::Sm::kId,
      e2sm::sm_encode(e2sm::EventTrigger{e2sm::TriggerKind::on_event, 0},
                      kFmt),
      {{1, e2ap::ActionType::report, {}}}, cbs);
  pump(w.reactor, 10);
  ASSERT_TRUE(w.top.unsubscribe(*h).is_ok());
  pump(w.reactor, 10);
  // Ping after unsubscribe: the pong has no path (no sub at the agent).
  e2sm::hw::Ping ping;
  (void)w.top.send_control(1, e2sm::hw::Sm::kId, {}, e2sm::sm_encode(ping, kFmt),
                     {}, false);
  pump(w.reactor, 10);
  EXPECT_EQ(indications, 0);
}

// ---------------------------------------------------------------------------
// Virtualization math (Appendix B)
// ---------------------------------------------------------------------------

TEST(VirtMath, CapacityScaling) {
  TenantConfig tenant{"opA", 1, 0.5, 10};
  e2sm::slice::SliceConf virt_conf;
  virt_conf.id = 3;
  virt_conf.label = "gold";
  virt_conf.nvs.kind = e2sm::slice::NvsKind::capacity;
  virt_conf.nvs.capacity_share = 0.66;
  auto phys = VirtController::virtualize_conf(virt_conf, tenant);
  EXPECT_EQ(phys.id, 13u);
  EXPECT_DOUBLE_EQ(phys.nvs.capacity_share, 0.33);
}

TEST(VirtMath, RateScalingMatchesAppendixExample) {
  // Appendix B: "a base station with 100 Mbps shared equally by two
  // operators. If one operator creates a 5 Mbps slice over reference
  // 50 Mbps (10% resources), it is mapped into a 5 Mbps slice with
  // reference rate 100 Mbps (a 5% share, corresponding to the SLA)."
  TenantConfig tenant{"opA", 1, 0.5, 10};
  e2sm::slice::SliceConf virt_conf;
  virt_conf.id = 1;
  virt_conf.nvs.kind = e2sm::slice::NvsKind::rate;
  virt_conf.nvs.rate_mbps = 5.0;
  virt_conf.nvs.ref_rate_mbps = 50.0;
  auto phys = VirtController::virtualize_conf(virt_conf, tenant);
  EXPECT_DOUBLE_EQ(phys.nvs.rate_mbps, 5.0);
  EXPECT_DOUBLE_EQ(phys.nvs.ref_rate_mbps, 100.0);
  // Physical share = 5/100 = 5% = 10% x SLA(50%).
}

TEST(VirtMath, VirtualLoadAggregation) {
  e2sm::slice::SliceConf cap;
  cap.nvs.kind = e2sm::slice::NvsKind::capacity;
  cap.nvs.capacity_share = 0.6;
  e2sm::slice::SliceConf rate;
  rate.nvs.kind = e2sm::slice::NvsKind::rate;
  rate.nvs.rate_mbps = 10;
  rate.nvs.ref_rate_mbps = 50;
  EXPECT_DOUBLE_EQ(VirtController::virtual_load({cap, rate}), 0.8);
}

// ---------------------------------------------------------------------------
// Virtualization controller end to end
// ---------------------------------------------------------------------------

struct VirtWorld {
  Reactor reactor;
  ran::BaseStation bs{lte50()};
  agent::E2Agent agent{reactor, {{900, 1, e2ap::NodeType::enb}, kFmt}};
  ran::BsFunctionBundle bundle{bs, agent, kFmt};
  VirtController virt{reactor,
                      {kFmt, kFmt},
                      {TenantConfig{"opA", 100, 0.5, 10},
                       TenantConfig{"opB", 200, 0.5, 20}}};
  // Tenant controllers: each a plain E2 server + slicing iApp.
  server::E2Server tenant_a{reactor, {101, kFmt}};
  server::E2Server tenant_b{reactor, {102, kFmt}};
  std::shared_ptr<SlicingIApp> slicing_a =
      std::make_shared<SlicingIApp>(SlicingIApp::Config{kFmt, 50});
  std::shared_ptr<SlicingIApp> slicing_b =
      std::make_shared<SlicingIApp>(SlicingIApp::Config{kFmt, 50});
  Nanos now = 0;

  VirtWorld() {
    tenant_a.add_iapp(slicing_a);
    tenant_b.add_iapp(slicing_b);
    // Shared BS agent -> virt controller southbound.
    auto [a_side, s_side] = LocalTransport::make_pair(reactor);
    virt.southbound().attach(s_side);
    (void)agent.add_controller(a_side);
    test::pump_until(reactor, [this] { return virt.southbound_ready(); });
    // Virtual E2 nodes -> tenant controllers.
    auto [na, ta] = LocalTransport::make_pair(reactor);
    tenant_a.attach(ta);
    EXPECT_TRUE(virt.connect_tenant(0, na).is_ok());
    auto [nb, tb] = LocalTransport::make_pair(reactor);
    tenant_b.attach(tb);
    EXPECT_TRUE(virt.connect_tenant(1, nb).is_ok());
    test::pump_until(reactor, [this] {
      return tenant_a.ran_db().num_agents() == 1 &&
             tenant_b.ran_db().num_agents() == 1;
    });
  }

  void run_ttis(int n, std::function<void(Nanos)> per_tti = nullptr) {
    for (int t = 0; t < n; ++t) {
      now += kMilli;
      if (per_tti) per_tti(now);
      bs.tick(now);
      bundle.on_tti(now);
      reactor.run_once(0);
    }
  }
};

TEST(Virt, TenantsSeeTheirVirtualNode) {
  VirtWorld w;
  const auto* a = w.tenant_a.ran_db().agents().empty()
                      ? nullptr
                      : w.tenant_a.ran_db().agent(
                            w.tenant_a.ran_db().agents().front());
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->node.plmn, 100u);  // tenant A's virtual node, not the BS
  std::set<std::uint16_t> fns;
  for (const auto& f : a->functions) fns.insert(f.id);
  EXPECT_TRUE(fns.count(e2sm::slice::Sm::kId));
  EXPECT_TRUE(fns.count(e2sm::mac::Sm::kId));
  EXPECT_TRUE(fns.count(e2sm::rrc::Sm::kId));
}

TEST(Virt, UeAttributionByPlmn) {
  VirtWorld w;
  (void)w.bs.attach_ue({1, 100, 0, 15, 28});  // op A subscriber
  (void)w.bs.attach_ue({2, 100, 0, 15, 28});
  (void)w.bs.attach_ue({3, 200, 0, 15, 28});  // op B subscriber
  pump(w.reactor, 10);
  EXPECT_EQ(w.virt.tenant_ues(0), (std::set<std::uint16_t>{1, 2}));
  EXPECT_EQ(w.virt.tenant_ues(1), (std::set<std::uint16_t>{3}));
}

TEST(Virt, SliceConfigIsRescaledAndForwarded) {
  VirtWorld w;
  (void)w.bs.attach_ue({1, 100, 0, 15, 28});
  pump(w.reactor, 10);
  server::AgentId va = w.tenant_a.ran_db().agents().front();

  // Tenant A configures a 66% virtual slice through its own controller.
  e2sm::slice::CtrlMsg msg;
  msg.kind = e2sm::slice::CtrlKind::add_mod;
  msg.algo = e2sm::slice::Algo::nvs;
  e2sm::slice::SliceConf conf;
  conf.id = 1;
  conf.label = "gold";
  conf.nvs.capacity_share = 0.66;
  msg.slices = {conf};
  std::optional<bool> ok;
  (void)w.slicing_a->configure(va, msg, [&](const e2sm::slice::CtrlOutcome& o) {
    ok = o.success;
  });
  ASSERT_TRUE(pump_until(w.reactor, [&] { return ok.has_value(); }));
  EXPECT_TRUE(*ok);
  pump(w.reactor, 10);

  // Physically: slice id 10+1 with share 0.66 * 0.5 = 0.33.
  auto report = w.bs.mac().status_report(false);
  bool found = false;
  for (const auto& s : report.slices) {
    if (s.conf.id == 11) {
      found = true;
      EXPECT_NEAR(s.conf.nvs.capacity_share, 0.33, 1e-9);
      EXPECT_EQ(s.conf.label, "opA/gold");
    }
  }
  EXPECT_TRUE(found);
}

TEST(Virt, TenantCannotExceedVirtualAdmission) {
  VirtWorld w;
  server::AgentId va = w.tenant_a.ran_db().agents().front();
  e2sm::slice::CtrlMsg msg;
  msg.kind = e2sm::slice::CtrlKind::add_mod;
  msg.algo = e2sm::slice::Algo::nvs;
  e2sm::slice::SliceConf s1, s2;
  s1.id = 1;
  s1.nvs.capacity_share = 0.7;
  s2.id = 2;
  s2.nvs.capacity_share = 0.7;  // 1.4 > 1 virtually
  msg.slices = {s1, s2};
  std::optional<bool> ok;
  server::CtrlCallbacks unused;
  (void)w.slicing_a->configure(va, msg, [&](const e2sm::slice::CtrlOutcome& o) {
    ok = o.success;
  });
  // The virtual slice function rejects -> control failure or ack(false).
  pump(w.reactor, 20);
  if (ok.has_value()) { EXPECT_FALSE(*ok); }
  // Nothing leaked into the physical scheduler.
  auto report = w.bs.mac().status_report(false);
  EXPECT_EQ(report.slices.size(), 1u);  // default only
}

TEST(Virt, TenantCannotTouchForeignUes) {
  VirtWorld w;
  (void)w.bs.attach_ue({3, 200, 0, 15, 28});  // op B's UE
  pump(w.reactor, 10);
  server::AgentId va = w.tenant_a.ran_db().agents().front();
  // Tenant A first creates a slice, then tries to grab op B's UE.
  e2sm::slice::CtrlMsg add;
  add.kind = e2sm::slice::CtrlKind::add_mod;
  add.algo = e2sm::slice::Algo::nvs;
  e2sm::slice::SliceConf conf;
  conf.id = 1;
  conf.nvs.capacity_share = 0.5;
  add.slices = {conf};
  (void)w.slicing_a->configure(va, add);
  pump(w.reactor, 10);

  e2sm::slice::CtrlMsg assoc;
  assoc.kind = e2sm::slice::CtrlKind::assoc_ue;
  assoc.assoc = {{3, 1}};
  std::optional<bool> ok;
  (void)w.slicing_a->configure(va, assoc, [&](const e2sm::slice::CtrlOutcome& o) {
    ok = o.success;
  });
  pump(w.reactor, 20);
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
  EXPECT_EQ(w.bs.mac().slice_of(3), 0u);  // untouched
}

TEST(Virt, MacStatsPartitionedPerTenant) {
  VirtWorld w;
  (void)w.bs.attach_ue({1, 100, 0, 15, 28});
  (void)w.bs.attach_ue({3, 200, 0, 15, 28});
  pump(w.reactor, 10);

  std::optional<e2sm::mac::IndicationMsg> view_a, view_b;
  auto subscribe = [&](server::E2Server& tenant, auto& out) {
    server::SubCallbacks cbs;
    cbs.on_indication = [&out](const e2ap::Indication& ind) {
      out = *e2sm::sm_decode<e2sm::mac::IndicationMsg>(ind.message, kFmt);
    };
    (void)tenant.subscribe(
        tenant.ran_db().agents().front(), e2sm::mac::Sm::kId,
        e2sm::sm_encode(e2sm::EventTrigger{e2sm::TriggerKind::periodic, 1},
                        kFmt),
        {{1, e2ap::ActionType::report, {}}}, cbs);
  };
  subscribe(w.tenant_a, view_a);
  subscribe(w.tenant_b, view_b);
  pump(w.reactor, 10);
  w.run_ttis(10);
  pump(w.reactor, 10);

  ASSERT_TRUE(view_a.has_value());
  ASSERT_TRUE(view_b.has_value());
  ASSERT_EQ(view_a->ues.size(), 1u);
  EXPECT_EQ(view_a->ues[0].rnti, 1);
  ASSERT_EQ(view_b->ues.size(), 1u);
  EXPECT_EQ(view_b->ues[0].rnti, 3);
}

TEST(Virt, IsolationAcrossTenantsUnderSaturation) {
  // Mini Fig. 15: each tenant has one UE; tenant A configures a 100 %
  // virtual slice (= 50 % physical). Both saturate: each ends up with half
  // of the 50-PRB cell.
  VirtWorld w;
  (void)w.bs.attach_ue({1, 100, 0, 15, 28});
  (void)w.bs.attach_ue({3, 200, 0, 15, 28});
  pump(w.reactor, 10);

  for (std::size_t tenant_idx : {0u, 1u}) {
    auto& tenant = tenant_idx == 0 ? w.tenant_a : w.tenant_b;
    auto& slicing = tenant_idx == 0 ? w.slicing_a : w.slicing_b;
    e2sm::slice::CtrlMsg add;
    add.kind = e2sm::slice::CtrlKind::add_mod;
    add.algo = e2sm::slice::Algo::nvs;
    e2sm::slice::SliceConf conf;
    conf.id = 1;
    conf.nvs.capacity_share = 1.0;
    add.slices = {conf};
    (void)slicing->configure(tenant.ran_db().agents().front(), add);
    pump(w.reactor, 10);
    e2sm::slice::CtrlMsg assoc;
    assoc.kind = e2sm::slice::CtrlKind::assoc_ue;
    assoc.assoc = {{static_cast<std::uint16_t>(tenant_idx == 0 ? 1 : 3), 1}};
    (void)slicing->configure(tenant.ran_db().agents().front(), assoc);
    pump(w.reactor, 10);
  }

  w.run_ttis(3000, [&](Nanos) {
    for (int k = 0; k < 4; ++k) {
      ran::Packet p;
      p.size_bytes = 1400;
      w.bs.deliver_downlink(1, 1, p);
      ran::Packet q;
      q.size_bytes = 1400;
      w.bs.deliver_downlink(3, 1, q);
    }
  });
  double t1 = w.bs.ue_throughput_mbps(1, w.now, false);
  double t3 = w.bs.ue_throughput_mbps(3, w.now, false);
  EXPECT_NEAR(t1 / (t1 + t3), 0.5, 0.05);  // SLA split holds
  EXPECT_GT(t1 + t3, 0.85 * ran::cell_capacity_mbps(w.bs.config()));
}

}  // namespace
}  // namespace flexric::ctrl
