// Recursive slicing demo (paper §6.2, Fig. 15): two operators share one
// base station through the virtualization controller, each driving its own
// unmodified slicing controller against a virtual E2 node.
//
//   slicing ctrl A   slicing ctrl B        (tenant controllers)
//        ▲                ▲
//   [virtual node A] [virtual node B]      (agent library, reused)
//        └────── VirtController ──────┘    (NVS rescaling, id remap,
//                      ▲                    stats partitioning)
//               shared eNB agent
#include <cstdio>

#include "agent/agent.hpp"
#include "ctrl/slicing.hpp"
#include "ctrl/virt.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

using namespace flexric;

namespace {
constexpr WireFormat kFmt = WireFormat::flat;
constexpr std::uint32_t kPlmnA = 100, kPlmnB = 200;
}  // namespace

int main() {
  Reactor reactor;

  // Shared infrastructure: one 10 MHz eNB (50 PRBs), as in Fig. 15b.
  ran::CellConfig cell;
  cell.rat = ran::Rat::lte;
  cell.num_prbs = 50;
  cell.default_mcs = 28;
  ran::BaseStation bs(cell);
  agent::E2Agent agent(reactor, {{999, 1, e2ap::NodeType::enb}, kFmt});
  ran::BsFunctionBundle functions(bs, agent, kFmt);

  // Virtualization controller: 50 % SLA per operator.
  ctrl::VirtController virt(reactor, {kFmt, kFmt},
                            {{"opA", kPlmnA, 0.5, 10},
                             {"opB", kPlmnB, 0.5, 20}});
  auto [a_side, s_side] = LocalTransport::make_pair(reactor);
  virt.southbound().attach(s_side);
  (void)agent.add_controller(a_side);
  for (int i = 0; i < 50; ++i) reactor.run_once(0);

  // Tenant controllers (the §6.1.2 slicing controller, reused unmodified).
  const auto tenant_cfg = [](std::uint32_t ric_id) {
    return server::E2Server::Config{.ric_id = ric_id,
                                    .e2ap_format = kFmt,
                                    .quarantine_after = 3 * kSecond,
                                    .expire_after = 10 * kSecond};
  };
  server::E2Server tenant_a(reactor, tenant_cfg(101));
  server::E2Server tenant_b(reactor, tenant_cfg(102));
  auto slicing_a =
      std::make_shared<ctrl::SlicingIApp>(ctrl::SlicingIApp::Config{kFmt, 100});
  auto slicing_b =
      std::make_shared<ctrl::SlicingIApp>(ctrl::SlicingIApp::Config{kFmt, 100});
  tenant_a.add_iapp(slicing_a);
  tenant_b.add_iapp(slicing_b);
  auto [na, ta] = LocalTransport::make_pair(reactor);
  tenant_a.attach(ta);
  (void)virt.connect_tenant(0, na);
  auto [nb, tb] = LocalTransport::make_pair(reactor);
  tenant_b.attach(tb);
  (void)virt.connect_tenant(1, nb);
  for (int i = 0; i < 50; ++i) reactor.run_once(0);

  // Four UEs, two per operator (identified by PLMN).
  (void)bs.attach_ue({1, kPlmnA, 0, 15, 28});
  (void)bs.attach_ue({2, kPlmnA, 0, 15, 28});
  (void)bs.attach_ue({3, kPlmnB, 0, 15, 28});
  (void)bs.attach_ue({4, kPlmnB, 0, 15, 28});
  for (int i = 0; i < 50; ++i) reactor.run_once(0);

  Nanos now = 0;
  auto run_saturated = [&](int ms, bool op_b_active) {
    for (int t = 0; t < ms; ++t) {
      now += kMilli;
      for (std::uint16_t rnti : {1, 2}) {
        ran::Packet p;
        p.size_bytes = 1400;
        bs.deliver_downlink(rnti, 1, p);
        bs.deliver_downlink(rnti, 1, p);
      }
      if (op_b_active)
        for (std::uint16_t rnti : {3, 4}) {
          ran::Packet p;
          p.size_bytes = 1400;
          bs.deliver_downlink(rnti, 1, p);
          bs.deliver_downlink(rnti, 1, p);
        }
      bs.tick(now);
      functions.on_tti(now);
      reactor.run_once(0);
    }
  };
  auto print_phase = [&](const char* phase, Nanos window) {
    std::printf("%-48s", phase);
    for (std::uint16_t rnti : {1, 2, 3, 4})
      std::printf(" ue%u=%5.1f", rnti,
                  bs.ue_throughput_mbps(rnti, window, true));
    std::printf("  (Mbps)\n");
  };

  std::printf("== Recursive slicing demo (cf. paper Fig. 15b) ==\n");
  std::printf("Shared 50-PRB eNB, operators A and B at 50%% SLA each\n\n");

  run_saturated(2000, true);
  print_phase("phase 1: no sub-slices (equal split)", 2 * kSecond);

  // Operator A creates virtual sub-slices 66 % / 33 % within ITS half and
  // pins its UEs — operator B is untouched.
  auto cfg_a = ctrl::SlicingIApp::ctrl_from_json(*ctrl::Json::parse(
      R"({"algo":"nvs","slices":[{"id":1,"label":"gold","share":0.66},
                                  {"id":2,"label":"silver","share":0.33}]})"));
  (void)slicing_a->configure(tenant_a.ran_db().agents().front(), *cfg_a);
  for (int i = 0; i < 50; ++i) reactor.run_once(0);
  auto assoc_a = ctrl::SlicingIApp::ctrl_from_json(*ctrl::Json::parse(
      R"({"assoc":[{"rnti":1,"slice":1},{"rnti":2,"slice":2}]})"));
  (void)slicing_a->configure(tenant_a.ran_db().agents().front(), *assoc_a);
  for (int i = 0; i < 50; ++i) reactor.run_once(0);

  run_saturated(3000, true);
  print_phase("phase 2: op A sub-slices 66/33 (B unaffected)", 3 * kSecond);

  // Let operator B's bloated RLC buffers drain before measuring phase 3.
  run_saturated(4000, false);
  for (std::uint16_t rnti : {1, 2, 3, 4})
    bs.ue_throughput_mbps(rnti, kSecond, /*reset=*/true);
  run_saturated(3000, false);
  print_phase("phase 3: op B idle (A reuses B's half)", 3 * kSecond);

  // Tenant isolation check: A cannot claim B's UE.
  auto steal = ctrl::SlicingIApp::ctrl_from_json(
      *ctrl::Json::parse(R"({"assoc":[{"rnti":3,"slice":1}]})"));
  bool steal_rejected = false;
  (void)slicing_a->configure(tenant_a.ran_db().agents().front(), *steal,
                       [&](const e2sm::slice::CtrlOutcome& o) {
                         steal_rejected = !o.success;
                       });
  for (int i = 0; i < 100; ++i) reactor.run_once(0);
  std::printf("\nop A association for op B's UE rejected: %s\n",
              steal_rejected ? "yes" : "NO (bug)");

  std::printf("op A subscribers: %zu, op B subscribers: %zu\n",
              virt.tenant_ues(0).size(), virt.tenant_ues(1).size());
  bool ok = steal_rejected && virt.tenant_ues(0).size() == 2 &&
            virt.tenant_ues(1).size() == 2;
  std::printf("\nrecursive_demo: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
