// Overload-protection bench (DESIGN.md §11): replay the deterministic
// indication storm from tests/test_overload.cpp at 1x/4x/16x/64x the
// admission rate and report the shed ledger plus control-plane latency.
//
// Everything runs on one reactor driven by a VirtualClock, so every number
// below except CPU share is bit-deterministic — the seeded BENCH_overload.json
// can be diffed numerically across commits. The headline claim: control p99
// stays flat while the DATA plane sheds ~95% of a 64x storm, and every shed
// frame is accounted for (emitted == delivered + shed, exactly).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "bench/bench_util.hpp"
#include "common/clock.hpp"
#include "common/overload.hpp"
#include "server/server.hpp"
#include "transport/faulty.hpp"
#include "transport/resilience.hpp"

namespace flexric::bench {
namespace {

void advance(Reactor& reactor, VirtualClock& clock, Nanos dt) {
  while (dt > 0) {
    Nanos d = dt < kMilli ? dt : kMilli;
    clock.advance(d);
    dt -= d;
    for (int i = 0; i < 8; ++i)
      if (reactor.run_once(0) == 0) break;
  }
}

class StormFn final : public agent::RanFunction {
 public:
  StormFn() {
    desc_.id = 200;
    desc_.revision = 1;
    desc_.name = "STORM-BENCH";
  }
  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }
  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req, agent::ControllerId) override {
    last_sub = req;
    agent::SubscriptionOutcome out;
    for (const auto& a : req.actions) out.admitted.push_back(a.id);
    return out;
  }
  Status on_subscription_delete(const e2ap::SubscriptionDeleteRequest&,
                                agent::ControllerId) override {
    return Status::ok();
  }
  Result<Buffer> on_control(const e2ap::ControlRequest& req,
                            agent::ControllerId) override {
    return req.message;
  }
  void emit(agent::ControllerId origin) {
    e2ap::Indication ind;
    ind.request = last_sub.request;
    ind.ran_function_id = desc_.id;
    ind.action_id = 1;
    ind.sn = emitted++;
    ind.message = {0xAB};
    (void)services_->send_indication(origin, ind);
  }

  std::uint32_t emitted = 0;
  e2ap::SubscriptionRequest last_sub;

 private:
  e2ap::RanFunctionItem desc_;
};

struct StormResult {
  IndicationFlow flow;
  ShardLedger ledger;
  Nanos ctrl_p50 = 0;
  Nanos ctrl_p99 = 0;
  std::uint64_t ctrl_failures = 0;
  double cpu_percent = 0.0;  ///< only non-deterministic field; not in JSON
};

/// One storm: a flooder at `mult` x 1k/ms and a line-rate victim for 300
/// virtual ms, with a control transaction against the victim every 5 ms.
StormResult run_storm(int mult) {
  VirtualClock clock;
  Reactor reactor;
  reactor.set_time_source(&clock);

  server::OverloadConfig ov;
  ov.enabled = true;
  ov.control_queue = 256;
  ov.data_queue = 1024;
  ov.dispatch_batch = 64;
  ov.data_rate = 2000.0;
  ov.data_burst = 100.0;
  ov.flood_threshold = 100000;  // throttle, don't quarantine: measure shedding
  ov.ctrl_deadline = 100 * kMilli;
  server::E2Server ric(reactor, {.ric_id = 21,
                                 .e2ap_format = WireFormat::flat,
                                 .quarantine_after = 3 * kSecond,
                                 .expire_after = 10 * kSecond,
                                 .overload = ov});

  struct Node {
    std::unique_ptr<agent::E2Agent> agent;
    std::shared_ptr<StormFn> fn;
    agent::ControllerId ctrl = 0;
    server::AgentId id = 0;
    std::uint64_t delivered = 0;
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::uint32_t nb = 1; nb <= 2; ++nb) {
    auto n = std::make_unique<Node>();
    n->fn = std::make_shared<StormFn>();
    agent::OverloadConfig aov;
    aov.indication_queue = 256;
    n->agent = std::make_unique<agent::E2Agent>(
        reactor, agent::E2Agent::Config{{1, nb, e2ap::NodeType::gnb},
                                        WireFormat::flat, aov});
    FLEXRIC_ASSERT(n->agent->register_function(n->fn).is_ok(),
                   "bench: register failed");
    auto [a_side, s_side] = LocalTransport::make_pair(reactor);
    ric.attach(s_side);
    auto cid = n->agent->add_controller(a_side);
    FLEXRIC_ASSERT(cid.is_ok(), "bench: add_controller failed");
    n->ctrl = *cid;
    advance(reactor, clock, 20 * kMilli);
    for (server::AgentId id : ric.ran_db().agents()) {
      bool taken = false;
      for (const auto& other : nodes) taken = taken || other->id == id;
      if (!taken) n->id = id;
    }
    server::SubCallbacks cbs;
    cbs.on_response = [](const e2ap::SubscriptionResponse&) {};
    Node* np = n.get();
    cbs.on_indication = [np](const e2ap::Indication&) { np->delivered++; };
    auto h = ric.subscribe(n->id, 200, Buffer{0x01},
                           {{1, e2ap::ActionType::report, {}}},
                           std::move(cbs));
    FLEXRIC_ASSERT(h.is_ok(), "bench: subscribe failed");
    advance(reactor, clock, 10 * kMilli);
    nodes.push_back(std::move(n));
  }
  Node& flooder = *nodes[0];
  Node& victim = *nodes[1];

  StormResult r;
  std::vector<Nanos> latencies;
  const Nanos cpu0 = thread_cpu_now();
  for (int ms = 0; ms < 300; ++ms) {
    for (int k = 0; k < mult; ++k) flooder.fn->emit(flooder.ctrl);
    victim.fn->emit(victim.ctrl);
    if (ms % 5 == 0) {
      const Nanos t0 = reactor.now();
      server::CtrlCallbacks cbs;
      cbs.on_ack = [&latencies, &reactor, t0](const e2ap::ControlAck&) {
        latencies.push_back(reactor.now() - t0);
      };
      cbs.on_failure = [&r](const e2ap::ControlFailure&) {
        r.ctrl_failures++;
      };
      (void)ric.send_control(victim.id, 200, Buffer{0x01}, Buffer{0x02},
                             std::move(cbs));
    }
    advance(reactor, clock, kMilli);
  }
  advance(reactor, clock, 500 * kMilli);  // settle: drain queues
  const Nanos cpu1 = thread_cpu_now();

  r.flow.emitted = flooder.fn->emitted + victim.fn->emitted;
  r.flow.delivered = flooder.delivered + victim.delivered;
  r.flow.agent_shed = flooder.agent->stats().indications_shed +
                      victim.agent->stats().indications_shed;
  r.ledger = ric.ledger();
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    r.ctrl_p50 = latencies[(latencies.size() - 1) / 2];
    r.ctrl_p99 = latencies[(latencies.size() - 1) * 99 / 100];
  }
  r.cpu_percent = cpu_percent(cpu1 - cpu0, 800 * kMilli);
  FLEXRIC_ASSERT(reconcile(r.flow, r.ledger).closes(),
                 "bench: shed ledger does not reconcile");
  return r;
}

}  // namespace
}  // namespace flexric::bench

int main(int argc, char** argv) {
  using namespace flexric;
  using namespace flexric::bench;

  banner("Overload protection under an indication storm",
         "DESIGN.md §11 / EXPERIMENTS.md (storm replay); companion to "
         "tests/test_overload.cpp");
  note("virtual-clock replay: every column except cpu% is deterministic");

  JsonWriter json("overload_storm");
  Table table({"storm (flooder rate vs admitted)", "emitted", "delivered",
               "shed%", "ctrl p50 us", "ctrl p99 us", "cpu%"});
  for (int mult : {1, 4, 16, 64}) {
    StormResult r = run_storm(mult);
    const IndicationFlow& f = r.flow;
    // run_storm asserted the ledger closes: all that was not delivered was
    // shed, server- or agent-side.
    const double shed_pct =
        f.emitted > 0 ? 100.0 * static_cast<double>(f.emitted - f.delivered) /
                            static_cast<double>(f.emitted)
                      : 0.0;
    table.row("mult=" + std::to_string(mult) + "x",
              {std::to_string(f.emitted), std::to_string(f.delivered),
               fmt("%.1f", shed_pct),
               fmt("%.1f", static_cast<double>(r.ctrl_p50) / 1000.0),
               fmt("%.1f", static_cast<double>(r.ctrl_p99) / 1000.0),
               fmt("%.1f", r.cpu_percent)});
    const std::string p = "m" + std::to_string(mult) + ".";
    json.add(p + "emitted", static_cast<double>(f.emitted), "frames");
    json.add(p + "delivered", static_cast<double>(f.delivered), "frames");
    json.add(p + "rate_shed", static_cast<double>(r.ledger.rate_shed),
             "frames");
    json.add(p + "queue_shed", static_cast<double>(r.ledger.queue_shed),
             "frames");
    json.add(p + "agent_shed", static_cast<double>(f.agent_shed), "frames");
    json.add(p + "shed_pct", shed_pct, "%");
    json.add(p + "ctrl_p50", static_cast<double>(r.ctrl_p50) / 1000.0, "us");
    json.add(p + "ctrl_p99", static_cast<double>(r.ctrl_p99) / 1000.0, "us");
    json.add(p + "ctrl_failures", static_cast<double>(r.ctrl_failures), "");
    if (r.ctrl_failures != 0)
      std::printf("  WARNING: mult=%d saw %llu control failures\n", mult,
                  static_cast<unsigned long long>(r.ctrl_failures));
  }
  note("shed% is server-side plus agent-side indication sheds over emitted;");
  note("the ledger reconciles exactly: emitted == delivered + all sheds");

  return json.write(json_path_from_args(argc, argv)) ? 0 : 1;
}
