// Shared scenario runner for the agent-overhead benches (Figs. 6a/6b).
//
// The base station + agent run on a MEASURED thread at accelerated virtual
// time; the controller consumes the 1 ms statistics stream on an unmeasured
// thread, connected over framed TCP on loopback (the paper's agent and
// controller are separate machines — here separate threads, so the reported
// CPU is attributable to the agent side alone).
#pragma once

#include <atomic>
#include <future>

#include "agent/agent.hpp"
#include "baseline/flexran/flexran.hpp"
#include "bench/bench_util.hpp"
#include "ctrl/monitor.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

namespace flexric::bench {

enum class AgentKind { none, flexric, flexran };

struct OverheadResult {
  double cpu_percent = 0.0;  ///< agent-thread CPU over virtual time
};

/// Run `virtual_secs` of simulated time with `num_ues` saturated UEs on the
/// given cell, exporting MAC+RLC+PDCP stats (no HARQ) every millisecond.
inline OverheadResult run_agent_scenario(AgentKind kind,
                                         const ran::CellConfig& cell,
                                         int num_ues, int virtual_secs) {
  std::atomic<bool> stop{false};
  std::promise<std::uint16_t> port_promise;
  auto port_future = port_promise.get_future();

  // ---- controller thread (unmeasured consumer) ----
  std::thread controller_thread([&] {
    Reactor reactor;
    // FlexRIC controller: server + stats iApp. FlexRAN: its controller.
    std::unique_ptr<server::E2Server> ric;
    std::shared_ptr<ctrl::MonitorIApp> monitor;
    std::unique_ptr<baseline::flexran::Controller> fxr;
    if (kind == AgentKind::flexran) {
      fxr = std::make_unique<baseline::flexran::Controller>(reactor);
      (void)fxr->listen(0);
      port_promise.set_value(fxr->port());
      bool requested = false;
      while (!stop.load(std::memory_order_relaxed)) {
        reactor.run_once(1);
        if (!requested && !fxr->rib().empty()) {
          fxr->request_stats(1);
          requested = true;
        }
      }
    } else {
      ric = std::make_unique<server::E2Server>(
          reactor, server::E2Server::Config{.ric_id = 21,
                                            .e2ap_format = WireFormat::flat,
                                            .quarantine_after = 3 * kSecond,
                                            .expire_after = 10 * kSecond});
      monitor = std::make_shared<ctrl::MonitorIApp>(
          ctrl::MonitorIApp::Config{WireFormat::flat, 1});
      ric->add_iapp(monitor);
      (void)ric->listen(0);
      port_promise.set_value(ric->port());
      while (!stop.load(std::memory_order_relaxed)) reactor.run_once(1);
    }
  });
  std::uint16_t port = port_future.get();

  // ---- agent thread (measured) ----
  Nanos cpu = run_measured_thread([&] {
    Reactor reactor;
    ran::BaseStation bs(cell);
    for (int i = 0; i < num_ues; ++i)
      (void)bs.attach_ue({static_cast<std::uint16_t>(100 + i), 1, 0, 15,
                    cell.default_mcs});
    bs.set_on_delivery([](std::uint16_t, const ran::Packet&, Nanos) {});

    std::unique_ptr<agent::E2Agent> agent;
    std::unique_ptr<ran::BsFunctionBundle> bundle;
    std::unique_ptr<baseline::flexran::Agent> fxr_agent;
    if (kind == AgentKind::flexric) {
      agent = std::make_unique<agent::E2Agent>(
          reactor,
          agent::E2Agent::Config{{1, 10, e2ap::NodeType::gnb},
                                 WireFormat::flat});
      bundle = std::make_unique<ran::BsFunctionBundle>(bs, *agent,
                                                       WireFormat::flat);
      auto conn = TcpTransport::connect(reactor, "127.0.0.1", port);
      FLEXRIC_ASSERT(conn.is_ok(), "bench: connect failed");
      (void)agent->add_controller(std::shared_ptr<MsgTransport>(std::move(*conn)));
      // Let the monitor's subscriptions land before the clock starts.
      for (int i = 0; i < 300; ++i) reactor.run_once(1);
    } else if (kind == AgentKind::flexran) {
      auto conn = TcpTransport::connect(reactor, "127.0.0.1", port);
      FLEXRIC_ASSERT(conn.is_ok(), "bench: connect failed");
      fxr_agent = std::make_unique<baseline::flexran::Agent>(
          bs, std::shared_ptr<MsgTransport>(std::move(*conn)), 10);
      for (int i = 0; i < 300; ++i) reactor.run_once(1);
    }

    const Nanos duration = static_cast<Nanos>(virtual_secs) * kSecond;
    Nanos now = 0;
    ran::Packet pkt;
    pkt.size_bytes = 1400;
    while (now < duration) {
      now += kMilli;
      // Moderate saturating downlink per UE.
      for (int i = 0; i < num_ues; ++i)
        bs.deliver_downlink(static_cast<std::uint16_t>(100 + i), 1, pkt);
      bs.tick(now);
      if (bundle) bundle->on_tti(now);
      if (fxr_agent) fxr_agent->on_tti(now);
      reactor.run_once(0);
    }
  });

  stop = true;
  controller_thread.join();

  OverheadResult out;
  out.cpu_percent =
      cpu_percent(cpu, static_cast<Nanos>(virtual_secs) * kSecond);
  return out;
}

}  // namespace flexric::bench
