// Traffic-control demo (paper §6.1.1, Fig. 11): the flow-based traffic
// controller defeating bufferbloat.
//
// A VoIP conversation (irtt-like, 172 B / 20 ms) shares a bearer with a
// greedy Cubic flow (iperf3-like). In transparent mode the VoIP RTT explodes
// with the bloated RLC buffer; with the TC xApp watching the RLC stats over
// the broker, it installs a second queue + 5-tuple filter + 5G-BDP pacer and
// the VoIP RTT collapses back.
#include <cstdio>

#include "agent/agent.hpp"
#include "ctrl/broker.hpp"
#include "ctrl/monitor.hpp"
#include "ctrl/tc_xapp.hpp"
#include "flows/cubic.hpp"
#include "flows/manager.hpp"
#include "flows/voip.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

using namespace flexric;

namespace {

constexpr WireFormat kFmt = WireFormat::flat;

e2sm::tc::FiveTuple voip_tuple() {
  e2sm::tc::FiveTuple t;
  t.src_ip = 0x0A000001;
  t.dst_ip = 0x0A640001;
  t.src_port = 40000;
  t.dst_port = 5060;
  t.proto = 17;
  return t;
}

e2sm::tc::FiveTuple bulk_tuple() {
  e2sm::tc::FiveTuple t;
  t.src_ip = 0x0A000002;
  t.dst_ip = 0x0A640001;
  t.src_port = 40001;
  t.dst_port = 443;
  t.proto = 6;
  return t;
}

struct Scenario {
  bool with_xapp;
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
};

Scenario run_scenario(bool with_xapp) {
  Reactor reactor;
  ran::CellConfig cell;
  cell.rat = ran::Rat::lte;
  cell.num_prbs = 25;
  cell.default_mcs = 28;
  ran::BaseStation bs(cell);
  agent::E2Agent agent(reactor, {{20899, 1, e2ap::NodeType::enb}, kFmt});
  ran::BsFunctionBundle functions(bs, agent, kFmt);

  server::E2Server ric(reactor, {.ric_id = 21,
                                 .e2ap_format = kFmt,
                                 .quarantine_after = 3 * kSecond,
                                 .expire_after = 10 * kSecond});
  ctrl::Broker broker(reactor);
  ctrl::MonitorIApp::Config mon_cfg{kFmt, /*period_ms=*/10};
  mon_cfg.broker = &broker;
  mon_cfg.want_mac = false;
  mon_cfg.want_pdcp = false;
  auto monitor = std::make_shared<ctrl::MonitorIApp>(mon_cfg);
  auto manager = std::make_shared<ctrl::TcSmManagerIApp>(kFmt);
  ric.add_iapp(monitor);
  ric.add_iapp(manager);

  std::unique_ptr<ctrl::TcXapp> xapp;
  if (with_xapp) {
    ctrl::TcXapp::Config xcfg;
    xcfg.sm_format = kFmt;
    xcfg.sojourn_limit_ms = 20.0;
    xcfg.low_latency_flow = voip_tuple();
    xcfg.rnti = 100;
    xapp = std::make_unique<ctrl::TcXapp>(broker, *manager, xcfg);
  }

  auto [a_side, s_side] = LocalTransport::make_pair(reactor);
  ric.attach(s_side);
  (void)agent.add_controller(a_side);
  for (int i = 0; i < 50; ++i) reactor.run_once(0);

  (void)bs.attach_ue({100, 20899, 0, 15, 28});
  flows::TrafficManager tm(bs, {});
  flows::VoipSource voip(1, voip_tuple());
  flows::CubicSource bulk(2, bulk_tuple(), /*start=*/5 * kSecond);
  tm.attach(&voip, 100);
  tm.attach(&bulk, 100);

  // One minute conversation, iperf3 starting 5 s in (the paper's setup).
  Nanos now = 0;
  for (int t = 0; t < 65'000; ++t) {
    now += kMilli;
    tm.tick(now);
    bs.tick(now);
    functions.on_tti(now);
    reactor.run_once(0);
  }

  Scenario out{with_xapp};
  out.p50 = voip.rtt_ms().quantile(0.5);
  out.p90 = voip.rtt_ms().quantile(0.9);
  out.p99 = voip.rtt_ms().quantile(0.99);
  out.max = voip.rtt_ms().max();
  std::printf("  xApp applied: %s, bulk goodput %.1f Mbps, drops %llu\n",
              xapp && xapp->applied() ? "yes" : "no (transparent)",
              static_cast<double>(bulk.delivered_bytes()) * 8 / 1e6 / 60.0,
              static_cast<unsigned long long>(bulk.drops()));
  return out;
}

}  // namespace

int main() {
  std::printf("== Traffic control demo (cf. paper Fig. 11) ==\n");
  std::printf("VoIP (172 B / 20 ms) + greedy Cubic flow on one bearer\n\n");
  std::printf("transparent mode:\n");
  Scenario base = run_scenario(false);
  std::printf("with TC xApp:\n");
  Scenario tc = run_scenario(true);

  std::printf("\n%-22s %10s %10s\n", "VoIP RTT", "transparent", "xApp");
  std::printf("%-22s %9.1f ms %7.1f ms\n", "median", base.p50, tc.p50);
  std::printf("%-22s %9.1f ms %7.1f ms\n", "p90", base.p90, tc.p90);
  std::printf("%-22s %9.1f ms %7.1f ms\n", "p99", base.p99, tc.p99);
  std::printf("%-22s %9.1f ms %7.1f ms\n", "max", base.max, tc.max);

  // Paper: "the RTT of the VoIP flow when segregated is in the order of
  // four times faster".
  bool ok = tc.p90 * 2.0 < base.p90;
  std::printf("\ntraffic_control_demo: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
