// Quickstart: the smallest complete FlexRIC deployment.
//
// Builds a simulated 5G base station with the bundled agent SMs, connects it
// over (framed) TCP to a FlexRIC controller running a monitoring iApp, and
// prints the live MAC statistics the iApp collects — the "hello world" of
// the SDK.
//
//   base station (sim) ── agent library ──E2AP/TCP──▶ server library
//                                                        └── monitor iApp
#include <cstdio>

#include "agent/agent.hpp"
#include "ctrl/monitor.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

using namespace flexric;

int main() {
  Reactor reactor;
  constexpr WireFormat kFmt = WireFormat::flat;

  // --- Controller side: server library + statistics iApp ------------------
  // Opt into connection resilience (DESIGN.md §9): a dropped agent is
  // quarantined, retained, and its subscriptions replayed transparently if
  // it returns within the expiry window.
  server::E2Server ric(reactor, {.ric_id = 21,
                                 .e2ap_format = kFmt,
                                 .quarantine_after = 5 * kSecond,
                                 .expire_after = 30 * kSecond});
  auto monitor = std::make_shared<ctrl::MonitorIApp>(
      ctrl::MonitorIApp::Config{kFmt, /*period_ms=*/1});
  ric.add_iapp(monitor);
  if (Status st = ric.listen(0); !st.is_ok()) {
    std::fprintf(stderr, "listen failed: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("RIC listening on 127.0.0.1:%u\n", ric.port());

  // --- RAN side: simulator + agent library --------------------------------
  ran::CellConfig cell;
  cell.rat = ran::Rat::nr;
  cell.num_prbs = 106;   // 20 MHz NR
  cell.default_mcs = 20;
  ran::BaseStation bs(cell);
  agent::E2Agent agent(reactor,
                       {{/*plmn=*/20899, /*nb_id=*/1, e2ap::NodeType::gnb},
                        kFmt});
  ran::BsFunctionBundle functions(bs, agent, kFmt);

  // Resilient attach: the agent dials through this factory and re-dials it
  // with backoff if the link ever drops, replaying E2 Setup on success.
  std::uint16_t ric_port = ric.port();
  auto dial = [&reactor, ric_port]() -> Result<std::shared_ptr<MsgTransport>> {
    auto conn = TcpTransport::connect(reactor, "127.0.0.1", ric_port);
    if (!conn) return conn.error();
    return std::shared_ptr<MsgTransport>(std::move(*conn));
  };
  if (auto cid = agent.add_controller(dial, ResilienceConfig{}); !cid) {
    std::fprintf(stderr, "connect failed: %s\n",
                 cid.error().to_string().c_str());
    return 1;
  }

  // Three UEs with fixed MCS 20 (the paper's NR setup).
  for (std::uint16_t rnti : {100, 101, 102})
    (void)bs.attach_ue({rnti, 20899, 0, 15, 20});

  // --- Run 2 simulated seconds of saturated downlink ----------------------
  Nanos now = 0;
  for (int tti = 0; tti < 2000; ++tti) {
    now += kMilli;
    for (std::uint16_t rnti : {100, 101, 102}) {
      ran::Packet p;
      p.size_bytes = 1400;
      bs.deliver_downlink(rnti, 1, p);
    }
    bs.tick(now);
    functions.on_tti(now);
    reactor.run_once(0);
  }
  for (int i = 0; i < 50; ++i) reactor.run_once(1);

  // --- Inspect what the controller learned --------------------------------
  std::printf("\nRAN database: %zu agent(s)\n", ric.ran_db().num_agents());
  std::printf("Indications received: %llu\n",
              static_cast<unsigned long long>(monitor->total_indications()));
  for (const auto& [agent_id, db] : monitor->db()) {
    std::printf("agent %u: %zu UE(s) in the MAC view\n", agent_id,
                db.mac.size());
    for (const auto& [rnti, ue] : db.mac)
      std::printf("  rnti=%u cqi=%u mcs=%u slice=%u bsr=%uB\n", rnti, ue.cqi,
                  ue.mcs_dl, ue.slice_id, ue.bsr);
  }
  bool ok = monitor->total_indications() > 1000 &&
            !monitor->db().empty() &&
            monitor->db().begin()->second.mac.size() == 3;
  std::printf("\nquickstart: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
