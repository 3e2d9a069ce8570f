// Fig. 9a — Round-trip time over two hops: FlexRIC (relay controller) vs
// the O-RAN RIC (E2 termination + RMR + xApp).
//
// Paper setup: HW-SM ping with 100 B / 1500 B payloads; FlexRIC uses a
// relaying controller to emulate the two hops that O-RAN's architecture
// *imposes* (xApp -> E2T -> agent). Paper result: the O-RAN RIC is at least
// 3x slower for small and 2x for medium payloads (~1 ms on a local host).
#include "baseline/oran/ric.hpp"
#include "bench/bench_util.hpp"
#include "common/metrics.hpp"
#include "ctrl/relay.hpp"
#include "e2sm/common.hpp"
#include "ran/functions.hpp"

using namespace flexric;
using namespace flexric::bench;

namespace {

/// Top controller -> relay -> agent, all FlexRIC, selectable encoding.
double flexric_two_hop_rtt_us(WireFormat fmt, std::size_t payload,
                              int rounds) {
  Reactor reactor;
  agent::E2Agent agent(reactor, {{1, 10, e2ap::NodeType::gnb}, fmt});
  (void)agent.register_function(std::make_shared<ran::HwFunction>(fmt));
  ctrl::RelayController relay(reactor, {fmt, {1, 500, e2ap::NodeType::gnb}});
  FLEXRIC_ASSERT(relay.listen(0).is_ok(), "bench: relay listen");
  auto a_conn =
      TcpTransport::connect(reactor, "127.0.0.1", relay.southbound().port());
  FLEXRIC_ASSERT(a_conn.is_ok(), "bench: agent connect");
  (void)agent.add_controller(std::shared_ptr<MsgTransport>(std::move(*a_conn)));
  for (int i = 0; i < 500 && !relay.southbound_ready(); ++i)
    reactor.run_once(1);

  server::E2Server top(reactor, {.ric_id = 99,
                                 .e2ap_format = fmt,
                                 .quarantine_after = 3 * kSecond,
                                 .expire_after = 10 * kSecond});
  FLEXRIC_ASSERT(top.listen(0).is_ok(), "bench: top listen");
  auto n_conn = TcpTransport::connect(reactor, "127.0.0.1", top.port());
  FLEXRIC_ASSERT(n_conn.is_ok(), "bench: relay northbound connect");
  FLEXRIC_ASSERT(
      relay.connect_northbound(std::shared_ptr<MsgTransport>(std::move(*n_conn)))
          .is_ok(),
      "bench: relay northbound");
  for (int i = 0; i < 500 && top.ran_db().num_agents() == 0; ++i)
    reactor.run_once(1);

  std::optional<std::uint32_t> pong_seq;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    auto pong = e2sm::sm_decode<e2sm::hw::Pong>(ind.message, fmt);
    if (pong) pong_seq = pong->seq;
  };
  auto h = top.subscribe(
      top.ran_db().agents().front(), e2sm::hw::Sm::kId,
      e2sm::sm_encode(e2sm::EventTrigger{e2sm::TriggerKind::on_event, 0}, fmt),
      {{1, e2ap::ActionType::report, {}}}, cbs);
  FLEXRIC_ASSERT(h.is_ok(), "bench: subscribe");
  for (int i = 0; i < 200; ++i) reactor.run_once(1);

  Histogram rtt;
  for (int i = 1; i <= rounds; ++i) {
    e2sm::hw::Ping ping;
    ping.seq = static_cast<std::uint32_t>(i);
    ping.payload.assign(payload, 0x5A);
    pong_seq.reset();
    Nanos t0 = mono_now();
    (void)top.send_control(top.ran_db().agents().front(), e2sm::hw::Sm::kId, {},
                     e2sm::sm_encode(ping, fmt), {},
                     /*ack_requested=*/false);
    while (!pong_seq || *pong_seq != static_cast<std::uint32_t>(i))
      reactor.run_once(1);
    rtt.record(static_cast<double>(mono_now() - t0) / 1e3);
  }
  return rtt.quantile(0.5);
}

/// xApp -> E2T -> agent over the O-RAN RIC baseline (ASN.1, as mandated).
double oran_two_hop_rtt_us(std::size_t payload, int rounds) {
  Reactor reactor;
  agent::E2Agent agent(reactor,
                       {{1, 10, e2ap::NodeType::gnb}, WireFormat::per});
  (void)agent.register_function(
      std::make_shared<ran::HwFunction>(WireFormat::per));
  baseline::oran::E2Termination e2term(reactor);
  FLEXRIC_ASSERT(e2term.listen_e2(0).is_ok(), "bench: e2t listen");
  FLEXRIC_ASSERT(e2term.listen_rmr(0).is_ok(), "bench: rmr listen");
  auto a_conn =
      TcpTransport::connect(reactor, "127.0.0.1", e2term.e2_port());
  FLEXRIC_ASSERT(a_conn.is_ok(), "bench: agent connect");
  (void)agent.add_controller(std::shared_ptr<MsgTransport>(std::move(*a_conn)));
  auto x_conn =
      TcpTransport::connect(reactor, "127.0.0.1", e2term.rmr_port());
  FLEXRIC_ASSERT(x_conn.is_ok(), "bench: xapp connect");
  baseline::oran::OranXapp xapp(
      reactor, std::shared_ptr<MsgTransport>(std::move(*x_conn)),
      WireFormat::per);
  for (int i = 0; i < 300; ++i) reactor.run_once(1);

  std::optional<std::uint32_t> pong_seq;
  xapp.set_on_indication([&](const e2ap::Indication& ind) {
    auto pong = e2sm::sm_decode<e2sm::hw::Pong>(ind.message, WireFormat::per);
    if (pong) pong_seq = pong->seq;
  });
  (void)xapp.subscribe(e2sm::hw::Sm::kId,
                 e2sm::sm_encode(
                     e2sm::EventTrigger{e2sm::TriggerKind::on_event, 0},
                     WireFormat::per),
                 {{1, e2ap::ActionType::report, {}}});
  for (int i = 0; i < 200; ++i) reactor.run_once(1);

  Histogram rtt;
  for (int i = 1; i <= rounds; ++i) {
    e2sm::hw::Ping ping;
    ping.seq = static_cast<std::uint32_t>(i);
    ping.payload.assign(payload, 0x5A);
    pong_seq.reset();
    Nanos t0 = mono_now();
    (void)xapp.send_control(e2sm::hw::Sm::kId, {},
                      e2sm::sm_encode(ping, WireFormat::per));
    while (!pong_seq || *pong_seq != static_cast<std::uint32_t>(i))
      reactor.run_once(1);
    rtt.record(static_cast<double>(mono_now() - t0) / 1e3);
  }
  return rtt.quantile(0.5);
}

}  // namespace

int main() {
  banner("Fig. 9a: two-hop ping RTT, FlexRIC relay vs O-RAN RIC",
         "HW-SM ping through two hops; 100 B and 1500 B payloads");
  constexpr int kRounds = 2000;

  Table table({"system", "RTT 100B (us)", "RTT 1500B (us)"});
  table.row("FlexRIC relay (FB/FB)",
            {fmt("%.1f", flexric_two_hop_rtt_us(WireFormat::flat, 100, kRounds)),
             fmt("%.1f", flexric_two_hop_rtt_us(WireFormat::flat, 1500, kRounds))});
  table.row("FlexRIC relay (ASN/ASN)",
            {fmt("%.1f", flexric_two_hop_rtt_us(WireFormat::per, 100, kRounds)),
             fmt("%.1f", flexric_two_hop_rtt_us(WireFormat::per, 1500, kRounds))});
  table.row("O-RAN RIC (E2T + RMR + xApp)",
            {fmt("%.1f", oran_two_hop_rtt_us(100, kRounds)),
             fmt("%.1f", oran_two_hop_rtt_us(1500, kRounds))});

  note("paper: O-RAN >= 3x slower (small) / 2x (medium) than FlexRIC;");
  note("the O-RAN E2T fully decodes + re-wraps every message (double");
  note("decode), the FlexRIC relay forwards through the IR once");
  return 0;
}
