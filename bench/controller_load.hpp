// Shared controller-load harness (Figs. 8a, 8b, 9b).
//
// N agents (each a small idle base station exporting full 32-UE statistics
// at 1 ms) run on an UNMEASURED thread at accelerated virtual time; the
// controller under test runs on a MEASURED thread. Reported CPU is
// controller-thread time over virtual time; memory is the retained-state
// footprint of the controller's data structures plus the process RSS delta
// across the run.
#pragma once

#include <atomic>
#include <future>

#include "agent/agent.hpp"
#include "baseline/flexran/flexran.hpp"
#include "baseline/oran/ric.hpp"
#include "bench/bench_util.hpp"
#include "ctrl/monitor.hpp"
#include "e2sm/common.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

namespace flexric::bench {

enum class ControllerKind {
  flexric_fb,   ///< server library + stats iApp, FlatBuffers E2AP+SM
  flexric_asn,  ///< same with ASN.1 (PER) E2AP+SM
  flexran,      ///< FlexRAN controller: RIB history + 1 ms poller
  oran,         ///< O-RAN RIC: E2 termination + RMR hop + xApp (ASN.1)
};

struct ControllerLoad {
  double cpu_percent = 0.0;
  std::uint64_t indications = 0;
  std::uint64_t retained_bytes = 0;  ///< controller data-structure footprint
  std::uint64_t rss_delta = 0;       ///< process RSS growth over the run
};

inline WireFormat e2_format(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::flexric_fb: return WireFormat::flat;
    case ControllerKind::flexric_asn: return WireFormat::per;
    case ControllerKind::flexran: return WireFormat::proto;
    case ControllerKind::oran: return WireFormat::per;
  }
  return WireFormat::flat;
}

/// Agent farm on the calling (unmeasured) thread: `num_agents` small base
/// stations with `ues` idle UEs, full MAC(+RLC+PDCP when `all_sms`) stats
/// at 1 ms for `virtual_secs` simulated seconds.
inline void run_agent_farm(ControllerKind kind, std::uint16_t port,
                           int num_agents, int ues, int virtual_secs,
                           bool all_sms) {
  Reactor reactor;
  ran::CellConfig cell{ran::Rat::lte, 1, 25, kMilli, 28, false};
  WireFormat fmt = e2_format(kind);

  struct Pair {
    std::unique_ptr<ran::BaseStation> bs;
    std::unique_ptr<agent::E2Agent> agent;
    std::unique_ptr<ran::BsFunctionBundle> bundle;
    std::unique_ptr<baseline::flexran::Agent> fxr;
  };
  std::vector<Pair> pairs;
  for (int a = 0; a < num_agents; ++a) {
    Pair p;
    cell.cell_id = static_cast<std::uint32_t>(a);
    p.bs = std::make_unique<ran::BaseStation>(cell);
    for (int u = 0; u < ues; ++u)
      (void)p.bs->attach_ue({static_cast<std::uint16_t>(100 + u), 1, 0, 15, 28});
    auto conn = TcpTransport::connect(reactor, "127.0.0.1", port);
    FLEXRIC_ASSERT(conn.is_ok(), "bench: connect failed");
    if (kind == ControllerKind::flexran) {
      p.fxr = std::make_unique<baseline::flexran::Agent>(
          *p.bs, std::shared_ptr<MsgTransport>(std::move(*conn)),
          static_cast<std::uint32_t>(a + 1));
    } else {
      p.agent = std::make_unique<agent::E2Agent>(
          reactor,
          agent::E2Agent::Config{
              {1, static_cast<std::uint32_t>(a + 1), e2ap::NodeType::enb},
              fmt,
              {}});
      p.bundle =
          std::make_unique<ran::BsFunctionBundle>(*p.bs, *p.agent, fmt);
      (void)p.agent->add_controller(std::shared_ptr<MsgTransport>(std::move(*conn)));
    }
    pairs.push_back(std::move(p));
  }
  // Let setup + subscriptions settle.
  for (int i = 0; i < 500; ++i) reactor.run_once(1);
  (void)all_sms;

  const Nanos duration = static_cast<Nanos>(virtual_secs) * kSecond;
  // FlexRAN's polling application is clocked by real time, so its scenario
  // runs paced to the wall clock; the event-driven controllers have no
  // timers and run accelerated.
  const bool realtime = kind == ControllerKind::flexran;
  const Nanos wall0 = mono_now();
  Nanos now = 0;
  while (now < duration) {
    now += kMilli;
    for (Pair& p : pairs) {
      p.bs->tick(now);
      if (p.bundle) p.bundle->on_tti(now);
      if (p.fxr) p.fxr->on_tti(now);
    }
    reactor.run_once(0);
    while (realtime && mono_now() - wall0 < now) reactor.run_once(1);
  }
  // Flush whatever is still queued.
  for (int i = 0; i < 200; ++i) reactor.run_once(1);
}

/// Run the full scenario; returns the measured controller-side load.
inline ControllerLoad run_controller_load(
    ControllerKind kind, int num_agents, int ues, int virtual_secs,
    bool oran_subscribe_all = true,
    const server::OverloadConfig& overload = {}) {
  std::atomic<bool> stop{false};
  std::promise<std::uint16_t> port_promise;
  auto port_future = port_promise.get_future();
  ControllerLoad out;
  std::uint64_t rss0 = rss_bytes();

  std::thread controller_thread([&] {
    Reactor reactor;
    Nanos cpu0 = thread_cpu_now();
    if (kind == ControllerKind::flexran) {
      baseline::flexran::Controller ctrl(reactor);
      (void)ctrl.listen(0);
      // Polling application, as FlexRAN requires (1 ms scans).
      std::uint64_t scanned = 0;
      ctrl.add_poller(1, [&scanned](const auto& ribs) {
        for (const auto& [bs, rib] : ribs)
          if (!rib.history.empty()) scanned += rib.history.back().ues.size();
      });
      port_promise.set_value(ctrl.port());
      bool requested = false;
      while (!stop.load(std::memory_order_relaxed)) {
        reactor.run_once(1);
        if (!requested &&
            ctrl.rib().size() == static_cast<std::size_t>(num_agents)) {
          ctrl.request_stats(1);
          requested = true;
        }
      }
      out.cpu_percent = cpu_percent(
          thread_cpu_now() - cpu0,
          static_cast<Nanos>(virtual_secs) * kSecond);
      std::uint64_t retained = 0, reports = 0;
      for (const auto& [bs, rib] : ctrl.rib()) {
        reports += rib.reports_rx;
        for (const auto& r : rib.history)
          retained += sizeof(r) +
                      r.ues.size() * sizeof(baseline::flexran::UeStats);
      }
      out.indications = reports;
      out.retained_bytes = retained;
    } else if (kind == ControllerKind::oran) {
      baseline::oran::E2Termination e2term(reactor);
      (void)e2term.listen_e2(0);
      (void)e2term.listen_rmr(0);
      auto xconn =
          TcpTransport::connect(reactor, "127.0.0.1", e2term.rmr_port());
      FLEXRIC_ASSERT(xconn.is_ok(), "bench: xapp connect failed");
      baseline::oran::OranXapp xapp(
          reactor, std::shared_ptr<MsgTransport>(std::move(*xconn)),
          WireFormat::per);
      port_promise.set_value(e2term.e2_port());
      // Subscribe to MAC stats of every agent once they connect.
      int subscribed = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        reactor.run_once(1);
        while (oran_subscribe_all && subscribed < num_agents &&
               e2term.stats().e2_msgs_rx >
                   static_cast<std::uint64_t>(subscribed)) {
          (void)xapp.subscribe(
              e2sm::mac::Sm::kId,
              e2sm::sm_encode(
                  e2sm::EventTrigger{e2sm::TriggerKind::periodic, 1},
                  WireFormat::per),
              {{1, e2ap::ActionType::report, {}}});
          subscribed++;
        }
      }
      out.cpu_percent = cpu_percent(
          thread_cpu_now() - cpu0,
          static_cast<Nanos>(virtual_secs) * kSecond);
      out.indications = xapp.stats().indications_rx;
      out.retained_bytes =
          xapp.db().size() * sizeof(e2sm::mac::UeStats) * 2;
    } else {
      server::E2Server ric(reactor, {.ric_id = 21,
                                     .e2ap_format = e2_format(kind),
                                     .quarantine_after = 3 * kSecond,
                                     .expire_after = 10 * kSecond,
                                     .overload = overload});
      ctrl::MonitorIApp::Config mon_cfg{e2_format(kind), 1};
      // FB: keep the raw (directly queryable) bytes, no decode step.
      // ASN.1: payloads are unusable unparsed — decode every message.
      mon_cfg.decode_payloads = kind == ControllerKind::flexric_asn;
      mon_cfg.retain_on_disconnect = true;
      auto monitor = std::make_shared<ctrl::MonitorIApp>(mon_cfg);
      ric.add_iapp(monitor);
      (void)ric.listen(0);
      port_promise.set_value(ric.port());
      while (!stop.load(std::memory_order_relaxed)) reactor.run_once(1);
      out.cpu_percent = cpu_percent(
          thread_cpu_now() - cpu0,
          static_cast<Nanos>(virtual_secs) * kSecond);
      out.indications = monitor->total_indications();
      std::uint64_t retained = 0;
      for (const auto& [id, db] : monitor->db()) {
        retained += db.mac.size() * sizeof(e2sm::mac::UeStats) +
                    db.rlc.size() * sizeof(e2sm::rlc::BearerStats) +
                    db.pdcp.size() * sizeof(e2sm::pdcp::BearerStats);
        for (const auto& [fn, raw] : db.raw) retained += raw.size();
      }
      out.retained_bytes = retained;
    }
  });

  std::uint16_t port = port_future.get();
  run_agent_farm(kind, port, num_agents, ues, virtual_secs,
                 /*all_sms=*/true);
  stop = true;
  controller_thread.join();
  std::uint64_t rss1 = rss_bytes();
  out.rss_delta = rss1 > rss0 ? rss1 - rss0 : 0;
  return out;
}

}  // namespace flexric::bench
