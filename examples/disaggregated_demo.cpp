// Disaggregated base-station demo (paper §4.1.2, Fig. 4).
//
// A CU agent (RRC events + PDCP stats) and a DU agent (MAC/RLC stats +
// slice SM + UE-ASSOC SM) belong to one base station. An infrastructure
// controller is the primary controller of both; a specialized controller
// attaches to the DU only (e.g. for remote scheduling).
//
// The Fig. 4 sequence:
//   (1) a UE arrives — its selected PLMN is decoded at the CU;
//   (2) the CU's RRC SM notifies the infrastructure controller;
//   (3) the infrastructure controller decides the UE belongs to the
//       specialized service;
//   (4) it configures the UE-to-controller association at the DU agent
//       (UE-ASSOC SM control);
//   (5) the DU now exposes the UE in the specialized controller's MAC
//       statistics — which it could not have inferred on its own.
#include <cstdio>

#include "agent/agent.hpp"
#include "e2sm/assoc_sm.hpp"
#include "e2sm/common.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

using namespace flexric;

namespace {
constexpr WireFormat kFmt = WireFormat::flat;
constexpr std::uint32_t kServicePlmn = 20899;  // the specialized service
}  // namespace

int main() {
  Reactor reactor;
  ran::BaseStation bs({ran::Rat::nr, 1, 106, kMilli, 20, false});

  // --- CU and DU agents of the same base station (same plmn/nb_id) --------
  agent::E2Agent cu(reactor, {{1, 55, e2ap::NodeType::cu}, kFmt, {}});
  auto rrc_fn = std::make_shared<ran::RrcFunction>(bs, kFmt);
  auto pdcp_fn = std::make_shared<ran::PdcpStatsFunction>(bs, kFmt);
  (void)cu.register_function(rrc_fn);
  (void)cu.register_function(pdcp_fn);

  agent::E2Agent du(reactor, {{1, 55, e2ap::NodeType::du}, kFmt, {}});
  auto mac_fn = std::make_shared<ran::MacStatsFunction>(bs, kFmt);
  auto rlc_fn = std::make_shared<ran::RlcStatsFunction>(bs, kFmt);
  auto slice_fn = std::make_shared<ran::SliceCtrlFunction>(bs, kFmt);
  auto assoc_fn = std::make_shared<ran::AssocFunction>(kFmt);
  (void)du.register_function(mac_fn);
  (void)du.register_function(rlc_fn);
  (void)du.register_function(slice_fn);
  (void)du.register_function(assoc_fn);

  // --- Infrastructure controller: primary controller of BOTH agents -------
  server::E2Server infra(reactor, {.ric_id = 1,
                                   .e2ap_format = kFmt,
                                   .quarantine_after = 3 * kSecond,
                                   .expire_after = 10 * kSecond});
  struct InfraApp final : server::IApp {
    const char* name() const override { return "infra"; }
    void on_ran_formed(const server::RanEntity& e) override {
      formed = true;
      cu_agent = *e.cu;
      du_agent = *e.du;
      std::printf("[infra] RAN entity (plmn=%u nb=%u) complete: CU=agent%u "
                  "DU=agent%u\n",
                  e.plmn, e.nb_id, *e.cu, *e.du);
    }
    bool formed = false;
    server::AgentId cu_agent = 0, du_agent = 0;
  };
  auto infra_app = std::make_shared<InfraApp>();
  infra.add_iapp(infra_app);

  auto [cu_a, cu_s] = LocalTransport::make_pair(reactor);
  infra.attach(cu_s);
  (void)cu.add_controller(cu_a);  // controller index 0 at the CU
  auto [du_a, du_s] = LocalTransport::make_pair(reactor);
  infra.attach(du_s);
  (void)du.add_controller(du_a);  // controller index 0 at the DU
  for (int i = 0; i < 80; ++i) reactor.run_once(0);
  if (!infra_app->formed) {
    std::printf("RAN entity never formed\n");
    return 1;
  }

  // --- Specialized controller: attached to the DU only (index 1) ----------
  server::E2Server specialized(reactor, {.ric_id = 2,
                                         .e2ap_format = kFmt,
                                         .quarantine_after = 3 * kSecond,
                                         .expire_after = 10 * kSecond});
  auto [sp_a, sp_s] = LocalTransport::make_pair(reactor);
  specialized.attach(sp_s);
  (void)du.add_controller(sp_a);
  for (int i = 0; i < 80; ++i) reactor.run_once(0);

  std::size_t visible_ues = 0;
  server::SubCallbacks mac_cbs;
  mac_cbs.on_indication = [&](const e2ap::Indication& ind) {
    auto msg = e2sm::sm_decode<e2sm::mac::IndicationMsg>(ind.message, kFmt);
    if (msg) visible_ues = msg->ues.size();
  };
  (void)specialized.subscribe(
      specialized.ran_db().agents().front(), e2sm::mac::Sm::kId,
      e2sm::sm_encode(e2sm::EventTrigger{e2sm::TriggerKind::periodic, 1},
                      kFmt),
      {{1, e2ap::ActionType::report, {}}}, mac_cbs);
  for (int i = 0; i < 80; ++i) reactor.run_once(0);

  // --- Steps 2-4: infra watches RRC at the CU, configures the DU ----------
  server::SubCallbacks rrc_cbs;
  rrc_cbs.on_indication = [&](const e2ap::Indication& ind) {
    auto ev = e2sm::sm_decode<e2sm::rrc::IndicationMsg>(ind.message, kFmt);
    if (!ev || ev->kind != e2sm::rrc::EventKind::attach) return;
    std::printf("[infra] (2) RRC attach at CU: rnti=%u plmn=%u\n", ev->rnti,
                ev->plmn);
    if (ev->plmn != kServicePlmn) return;
    std::printf("[infra] (3) UE belongs to the specialized service\n");
    e2sm::assoc::CtrlMsg assoc;
    assoc.kind = e2sm::assoc::CtrlKind::associate;
    assoc.rnti = ev->rnti;
    assoc.controller_index = 1;  // the specialized controller at the DU
    (void)infra.send_control(infra_app->du_agent, e2sm::assoc::Sm::kId, {},
                       e2sm::sm_encode(assoc, kFmt), {},
                       /*ack_requested=*/false);
    std::printf("[infra] (4) UE-to-controller association configured at the "
                "DU agent\n");
  };
  (void)infra.subscribe(infra_app->cu_agent, e2sm::rrc::Sm::kId,
                  e2sm::sm_encode(
                      e2sm::EventTrigger{e2sm::TriggerKind::on_event, 0},
                      kFmt),
                  {{1, e2ap::ActionType::report, {}}}, rrc_cbs);
  for (int i = 0; i < 80; ++i) reactor.run_once(0);

  // --- Step 1: the UE arrives ----------------------------------------------
  auto run_ms = [&](int ms, Nanos& now) {
    for (int t = 0; t < ms; ++t) {
      now += kMilli;
      bs.tick(now);
      mac_fn->on_tti(now);
      rlc_fn->on_tti(now);
      pdcp_fn->on_tti(now);
      slice_fn->on_tti(now);
      reactor.run_once(0);
    }
  };
  Nanos now = 0;
  run_ms(5, now);
  std::size_t before = visible_ues;
  std::printf("[demo]  specialized controller sees %zu UE(s) before attach\n",
              before);
  std::printf("[demo]  (1) UE rnti=100 attaches with PLMN %u\n", kServicePlmn);
  (void)bs.attach_ue({100, kServicePlmn, 0, 15, 20});
  run_ms(20, now);
  std::printf("[demo]  (5) specialized controller now sees %zu UE(s)\n",
              visible_ues);

  bool ok = before == 0 && visible_ues == 1;
  std::printf("\ndisaggregated_demo: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
