// Fig. 11 — Bufferbloat and the traffic-control xApp.
//
// Paper setup: one UE carries a VoIP flow (G.711: 172 B / 20 ms, irtt) and,
// from t=5 s, a greedy Cubic flow (iperf3). (a) transparent mode: the RLC
// DRB buffer bloats and every packet's sojourn time explodes; (b) with the
// TC xApp: a second FIFO queue + 5-tuple filter + RR scheduler + 5G-BDP
// pacer segregate the VoIP flow; (c) the VoIP RTT CDF is ~4x faster with
// the xApp, while the unloaded RTT varies between 20 and 40 ms.
//
// This bench prints the per-second sojourn-time series of both scenarios
// (Figs. 11a/11b) and the two RTT CDFs (Fig. 11c).
#include <cstdio>

#include "agent/agent.hpp"
#include "bench/bench_util.hpp"
#include "ctrl/broker.hpp"
#include "ctrl/monitor.hpp"
#include "ctrl/tc_xapp.hpp"
#include "flows/cubic.hpp"
#include "flows/manager.hpp"
#include "flows/voip.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

using namespace flexric;
using namespace flexric::bench;

namespace {

constexpr WireFormat kFmt = WireFormat::flat;

e2sm::tc::FiveTuple voip_tuple() {
  return {0x0A000001, 0x0A640001, 40000, 5060, 17};
}
e2sm::tc::FiveTuple bulk_tuple() {
  return {0x0A000002, 0x0A640001, 40001, 443, 6};
}

struct SojournSample {
  int second;
  double rlc_ms;       // DRB buffer sojourn (bulk path when segregated)
  double tc_q1_ms;     // TC low-latency queue sojourn (xApp case)
  double tc_q0_ms;     // TC default queue sojourn (backlogged bulk, xApp)
};

struct Run {
  std::vector<SojournSample> series;
  Histogram voip_rtt;
  bool xapp_applied = false;
};

Run run_scenario(bool with_xapp, int seconds) {
  Reactor reactor;
  ran::CellConfig cell{ran::Rat::lte, 1, 25, kMilli, 28, false};
  ran::BaseStation bs(cell);
  agent::E2Agent agent(reactor, {{20899, 1, e2ap::NodeType::enb}, kFmt});
  ran::BsFunctionBundle functions(bs, agent, kFmt);

  server::E2Server ric(reactor, {.ric_id = 21,
                                 .e2ap_format = kFmt,
                                 .quarantine_after = 3 * kSecond,
                                 .expire_after = 10 * kSecond});
  ctrl::Broker broker(reactor);
  ctrl::MonitorIApp::Config mon_cfg{kFmt, 10};
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

  Run out;
  Nanos now = 0;
  for (int sec = 0; sec < seconds; ++sec) {
    double rlc_max = 0, q0_max = 0, q1_max = 0;
    for (int t = 0; t < 1000; ++t) {
      now += kMilli;
      tm.tick(now);
      bs.tick(now);
      functions.on_tti(now);
      reactor.run_once(0);
      if (t % 100 == 0) {
        auto rlc = bs.rlc_stats({});
        if (!rlc.bearers.empty())
          rlc_max = std::max(rlc_max, rlc.bearers[0].sojourn_max_ms);
        // Per-period queue sojourn (reset after reading): what a packet
        // dequeued in this window actually waited.
        if (tc::TcChain* chain = bs.tc_chain(100, 1)) {
          for (auto& q : chain->stats_snapshot(/*reset_period=*/true)) {
            if (q.qid == 0) q0_max = std::max(q0_max, q.sojourn_max_ms);
            if (q.qid == 1) q1_max = std::max(q1_max, q.sojourn_max_ms);
          }
        }
      }
    }
    out.series.push_back({sec, rlc_max, q1_max, q0_max});
  }
  out.voip_rtt = voip.rtt_ms();
  out.xapp_applied = xapp && xapp->applied();
  return out;
}

}  // namespace

int main() {
  banner("Fig. 11: sojourn times and VoIP RTT, transparent vs TC xApp",
         "VoIP + greedy Cubic flow on one bearer; 1-minute conversation");
  constexpr int kSeconds = 60;

  Run transparent = run_scenario(false, kSeconds);
  Run xapp = run_scenario(true, kSeconds);

  std::printf("(a/b) per-second max sojourn times [ms] "
              "(bulk flow starts at t=5 s)\n");
  Table table({"t (s)", "transp. RLC", "xApp RLC", "xApp TC q0",
               "xApp TC q1"});
  for (int sec = 0; sec < kSeconds; sec += 5) {
    table.row(std::to_string(sec),
              {fmt("%.0f", transparent.series[sec].rlc_ms),
               fmt("%.1f", xapp.series[sec].rlc_ms),
               fmt("%.0f", xapp.series[sec].tc_q0_ms),
               fmt("%.2f", xapp.series[sec].tc_q1_ms)});
  }
  std::printf("\n  xApp actions applied: %s\n",
              xapp.xapp_applied ? "yes" : "NO");

  std::printf("\n(c) VoIP RTT CDF [ms]\n");
  Table cdf({"percentile", "transparent", "xApp"});
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    cdf.row(fmt("%.0f%%", q * 100),
            {fmt("%.1f", transparent.voip_rtt.quantile(q)),
             fmt("%.1f", xapp.voip_rtt.quantile(q))});
  }
  std::printf("\n  median speedup with xApp: %.1fx (paper: ~4x)\n",
              transparent.voip_rtt.quantile(0.5) /
                  std::max(1e-6, xapp.voip_rtt.quantile(0.5)));

  note("expected shape: transparent RLC sojourn rises to hundreds of ms");
  note("after t=5 s and stays; with the xApp the RLC and the VoIP queue");
  note("(q1) stay in single-digit ms while the bulk backlog moves to q0;");
  note("unloaded VoIP RTT (t<5 s) varies in the paper's 20-40 ms band");
  return 0;
}
