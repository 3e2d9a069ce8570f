// Integration tests: agent library <-> server library over the E2 protocol
// (setup handshake, RAN DB, subscription management, control, indications,
// multi-controller, disaggregated CU/DU merge).
#include <gtest/gtest.h>

#include "agent/agent.hpp"
#include "e2sm/common.hpp"
#include "e2sm/hw_sm.hpp"
#include "helpers.hpp"
#include "ran/base_station.hpp"
#include "ran/functions.hpp"
#include "server/server.hpp"

namespace flexric {
namespace {

using test::pump;
using test::pump_until;

/// A trivial RAN function for protocol-level tests: admits everything,
/// echoes control payloads as outcome, counts callbacks.
class StubFunction final : public agent::RanFunction {
 public:
  explicit StubFunction(std::uint16_t id) {
    desc_.id = id;
    desc_.revision = 1;
    desc_.name = "STUB-" + std::to_string(id);
  }
  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }
  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req, agent::ControllerId) override {
    subs++;
    last_sub = req;
    agent::SubscriptionOutcome out;
    for (const auto& a : req.actions) out.admitted.push_back(a.id);
    return out;
  }
  Status on_subscription_delete(const e2ap::SubscriptionDeleteRequest&,
                                agent::ControllerId) override {
    deletes++;
    return Status::ok();
  }
  Result<Buffer> on_control(const e2ap::ControlRequest& req,
                            agent::ControllerId) override {
    controls++;
    return req.message;  // echo as outcome
  }
  /// Emit an indication on the recorded subscription.
  void emit(agent::ControllerId origin, Buffer payload) {
    e2ap::Indication ind;
    ind.request = last_sub.request;
    ind.ran_function_id = desc_.id;
    ind.action_id = 1;
    ind.message = std::move(payload);
    (void)services_->send_indication(origin, ind);
  }

  int subs = 0, deletes = 0, controls = 0;
  e2ap::SubscriptionRequest last_sub;

 private:
  e2ap::RanFunctionItem desc_;
};

struct World {
  explicit World(WireFormat f = WireFormat::flat)
      : format(f), server{reactor, {21, f}} {}

  WireFormat format;
  Reactor reactor;
  server::E2Server server;

  std::unique_ptr<agent::E2Agent> make_agent(
      e2ap::GlobalNodeId node, std::shared_ptr<StubFunction> fn) {
    auto ag = std::make_unique<agent::E2Agent>(
        reactor, agent::E2Agent::Config{node, format});
    if (fn) { EXPECT_TRUE(ag->register_function(std::move(fn)).is_ok()); }
    auto [a_side, s_side] = LocalTransport::make_pair(reactor);
    server.attach(s_side);
    EXPECT_TRUE(ag->add_controller(a_side).is_ok());
    return ag;
  }
};

TEST(AgentServer, SetupHandshakeEstablishes) {
  World w;
  auto fn = std::make_shared<StubFunction>(200);
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb}, fn);
  ASSERT_TRUE(pump_until(w.reactor, [&] {
    return agent->state(0) == agent::ConnState::established;
  }));
  EXPECT_EQ(w.server.ran_db().num_agents(), 1u);
  const auto* info = w.server.ran_db().agent(1);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->node.nb_id, 10u);
  ASSERT_EQ(info->functions.size(), 1u);
  EXPECT_EQ(info->functions[0].id, 200);
}

TEST(AgentServer, IAppSeesAgentConnect) {
  struct Watcher : server::IApp {
    const char* name() const override { return "watcher"; }
    void on_agent_connected(const server::AgentInfo& info) override {
      connected.push_back(info.id);
    }
    void on_agent_disconnected(server::AgentId id) override {
      disconnected.push_back(id);
    }
    std::vector<server::AgentId> connected, disconnected;
  };
  World w;
  auto watcher = std::make_shared<Watcher>();
  w.server.add_iapp(watcher);
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb},
                            std::make_shared<StubFunction>(200));
  ASSERT_TRUE(
      pump_until(w.reactor, [&] { return !watcher->connected.empty(); }));
  EXPECT_EQ(watcher->connected.size(), 1u);
}

TEST(AgentServer, LateIAppSeesExistingAgents) {
  struct Watcher : server::IApp {
    const char* name() const override { return "watcher"; }
    void on_agent_connected(const server::AgentInfo&) override { count++; }
    int count = 0;
  };
  World w;
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb},
                            std::make_shared<StubFunction>(200));
  pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 1; });
  auto late = std::make_shared<Watcher>();
  w.server.add_iapp(late);
  EXPECT_EQ(late->count, 1);
}

TEST(AgentServer, SubscriptionRoundTrip) {
  World w;
  auto fn = std::make_shared<StubFunction>(200);
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb}, fn);
  pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 1; });

  bool responded = false;
  server::SubCallbacks cbs;
  cbs.on_response = [&](const e2ap::SubscriptionResponse& resp) {
    responded = true;
    EXPECT_EQ(resp.admitted, (std::vector<std::uint8_t>{1}));
  };
  e2ap::Action action{1, e2ap::ActionType::report, {}};
  auto handle = w.server.subscribe(1, 200, Buffer{1, 2}, {action}, cbs);
  ASSERT_TRUE(handle.is_ok());
  ASSERT_TRUE(pump_until(w.reactor, [&] { return responded; }));
  EXPECT_EQ(fn->subs, 1);
  EXPECT_EQ(Buffer(fn->last_sub.event_trigger), (Buffer{1, 2}));
}

TEST(AgentServer, IndicationsReachSubscribingIApp) {
  World w;
  auto fn = std::make_shared<StubFunction>(200);
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb}, fn);
  pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 1; });

  std::vector<Buffer> got;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication& ind) {
    got.push_back(ind.message);
  };
  auto handle =
      w.server.subscribe(1, 200, {}, {{1, e2ap::ActionType::report, {}}}, cbs);
  ASSERT_TRUE(handle.is_ok());
  pump_until(w.reactor, [&] { return fn->subs == 1; });

  fn->emit(0, Buffer{9, 9});
  fn->emit(0, Buffer{8});
  ASSERT_TRUE(pump_until(w.reactor, [&] { return got.size() == 2; }));
  EXPECT_EQ(got[0], (Buffer{9, 9}));
  EXPECT_EQ(got[1], (Buffer{8}));
  EXPECT_EQ(w.server.stats().indications_rx, 2u);
}

TEST(AgentServer, UnsubscribeStopsDelivery) {
  World w;
  auto fn = std::make_shared<StubFunction>(200);
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb}, fn);
  pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 1; });

  int got = 0;
  server::SubCallbacks cbs;
  cbs.on_indication = [&](const e2ap::Indication&) { got++; };
  auto handle =
      w.server.subscribe(1, 200, {}, {{1, e2ap::ActionType::report, {}}}, cbs);
  pump_until(w.reactor, [&] { return fn->subs == 1; });

  ASSERT_TRUE(w.server.unsubscribe(*handle).is_ok());
  ASSERT_TRUE(pump_until(w.reactor, [&] { return fn->deletes == 1; }));
  fn->emit(0, Buffer{1});
  pump(w.reactor, 20);
  EXPECT_EQ(got, 0);  // dropped: subscription gone at the server
}

// RAN function ids are 12-bit: 4096 is outside the range the procedure
// declares, so the request fails to encode — an error in both wire formats,
// not an abort — and the agent's existing subscription keeps delivering.
TEST(AgentServer, OutOfRangeSubscriptionFailsToEncode) {
  for (WireFormat f : {WireFormat::per, WireFormat::flat}) {
    SCOPED_TRACE(wire_format_name(f));
    World w(f);
    auto fn = std::make_shared<StubFunction>(200);
    auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb}, fn);
    pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 1; });

    int got = 0;
    server::SubCallbacks cbs;
    cbs.on_indication = [&](const e2ap::Indication&) { got++; };
    const std::vector<e2ap::Action> actions{{1, e2ap::ActionType::report, {}}};
    ASSERT_TRUE(w.server.subscribe(1, 200, {}, actions, cbs).is_ok());
    ASSERT_TRUE(pump_until(w.reactor, [&] { return fn->subs == 1; }));

    auto bad = w.server.subscribe(1, 4096, {}, actions, {});
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.error().code, Errc::out_of_range);

    fn->emit(0, Buffer{7});
    ASSERT_TRUE(pump_until(w.reactor, [&] { return got == 1; }));
    EXPECT_EQ(fn->subs, 1);
  }
}

TEST(AgentServer, SubscriptionToUnknownFunctionFails) {
  World w;
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb},
                            std::make_shared<StubFunction>(200));
  pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 1; });

  bool failed = false;
  server::SubCallbacks cbs;
  cbs.on_failure = [&](const e2ap::SubscriptionFailure& fail) {
    failed = true;
    EXPECT_EQ(fail.cause.group, e2ap::Cause::Group::ric);
  };
  auto handle =
      w.server.subscribe(1, 999, {}, {{1, e2ap::ActionType::report, {}}}, cbs);
  ASSERT_TRUE(handle.is_ok());
  ASSERT_TRUE(pump_until(w.reactor, [&] { return failed; }));
}

TEST(AgentServer, ControlAckCarriesOutcome) {
  World w;
  auto fn = std::make_shared<StubFunction>(200);
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb}, fn);
  pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 1; });

  Buffer outcome;
  server::CtrlCallbacks cbs;
  cbs.on_ack = [&](const e2ap::ControlAck& ack) { outcome = ack.outcome; };
  ASSERT_TRUE(
      w.server.send_control(1, 200, Buffer{1}, Buffer{5, 6, 7}, cbs).is_ok());
  ASSERT_TRUE(pump_until(w.reactor, [&] { return !outcome.empty(); }));
  EXPECT_EQ(outcome, (Buffer{5, 6, 7}));  // StubFunction echoes the message
  EXPECT_EQ(fn->controls, 1);
}

TEST(AgentServer, ControlToUnknownFunctionFails) {
  World w;
  auto agent = w.make_agent({1, 10, e2ap::NodeType::gnb},
                            std::make_shared<StubFunction>(200));
  pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 1; });
  bool failed = false;
  server::CtrlCallbacks cbs;
  cbs.on_failure = [&](const e2ap::ControlFailure&) { failed = true; };
  (void)w.server.send_control(1, 999, {}, {}, cbs);
  ASSERT_TRUE(pump_until(w.reactor, [&] { return failed; }));
}

TEST(AgentServer, CuDuAgentsMergeIntoOneRanEntity) {
  struct Watcher : server::IApp {
    const char* name() const override { return "watcher"; }
    void on_ran_formed(const server::RanEntity& e) override {
      formed++;
      last = e;
    }
    int formed = 0;
    server::RanEntity last;
  };
  World w;
  auto watcher = std::make_shared<Watcher>();
  w.server.add_iapp(watcher);

  auto cu = w.make_agent({1, 55, e2ap::NodeType::cu},
                         std::make_shared<StubFunction>(201));
  pump(w.reactor, 20);
  EXPECT_EQ(watcher->formed, 0);  // CU alone is not a complete RAN
  auto du = w.make_agent({1, 55, e2ap::NodeType::du},
                         std::make_shared<StubFunction>(202));
  ASSERT_TRUE(pump_until(w.reactor, [&] { return watcher->formed == 1; }));
  EXPECT_TRUE(watcher->last.complete());
  EXPECT_TRUE(watcher->last.cu.has_value());
  EXPECT_TRUE(watcher->last.du.has_value());
  EXPECT_EQ(watcher->last.agents().size(), 2u);

  const auto* entity = w.server.ran_db().entity(1, 55);
  ASSERT_NE(entity, nullptr);
  EXPECT_TRUE(entity->complete());
}

TEST(AgentServer, MonolithicNodeIsImmediatelyComplete) {
  struct Watcher : server::IApp {
    const char* name() const override { return "watcher"; }
    void on_ran_formed(const server::RanEntity&) override { formed++; }
    int formed = 0;
  };
  World w;
  auto watcher = std::make_shared<Watcher>();
  w.server.add_iapp(watcher);
  auto agent = w.make_agent({1, 77, e2ap::NodeType::enb},
                            std::make_shared<StubFunction>(200));
  ASSERT_TRUE(pump_until(w.reactor, [&] { return watcher->formed == 1; }));
}

// ---------------------------------------------------------------------------
// RanDb churn: agents leaving and re-joining (disaggregated deployments
// restart CU/DU independently; the DB must track completeness both ways)
// ---------------------------------------------------------------------------

server::AgentInfo db_agent(server::AgentId id, std::uint32_t plmn,
                           std::uint32_t nb_id, e2ap::NodeType type) {
  server::AgentInfo info;
  info.id = id;
  info.node.plmn = plmn;
  info.node.nb_id = nb_id;
  info.node.type = type;
  info.connected = true;
  return info;
}

TEST(RanDb, CuDuRemoveAndReaddTransitionsCompleteness) {
  server::RanDb db;
  EXPECT_FALSE(db.add_agent(db_agent(1, 1, 55, e2ap::NodeType::cu)));
  EXPECT_TRUE(db.add_agent(db_agent(2, 1, 55, e2ap::NodeType::du)));

  // DU restart: entity survives but is no longer complete...
  db.remove_agent(2);
  const auto* e = db.entity(1, 55);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->complete());
  EXPECT_FALSE(e->du.has_value());
  EXPECT_EQ(db.num_agents(), 1u);

  // ...and the DU re-joining (new agent id) completes it again.
  EXPECT_TRUE(db.add_agent(db_agent(3, 1, 55, e2ap::NodeType::du)));
  e = db.entity(1, 55);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete());
  EXPECT_EQ(e->du, std::optional<server::AgentId>{3});

  // Removing every part erases the entity entirely.
  db.remove_agent(1);
  db.remove_agent(3);
  EXPECT_EQ(db.entity(1, 55), nullptr);
  EXPECT_EQ(db.num_agents(), 0u);
  EXPECT_TRUE(db.entities().empty());
}

TEST(RanDb, MonolithicRemoveAndReadd) {
  server::RanDb db;
  EXPECT_TRUE(db.add_agent(db_agent(7, 1, 9, e2ap::NodeType::gnb)));
  db.remove_agent(7);
  EXPECT_EQ(db.entity(1, 9), nullptr);
  EXPECT_EQ(db.agent(7), nullptr);
  // Re-add fires the completeness transition again.
  EXPECT_TRUE(db.add_agent(db_agent(7, 1, 9, e2ap::NodeType::gnb)));
  ASSERT_NE(db.entity(1, 9), nullptr);
  EXPECT_TRUE(db.entity(1, 9)->complete());
}

TEST(RanDb, AgentIdReuseAfterDisconnectBindsToNewNode) {
  server::RanDb db;
  ASSERT_FALSE(db.add_agent(db_agent(7, 1, 5, e2ap::NodeType::cu)));
  db.remove_agent(7);
  // The transport layer may hand a later, different agent the same id.
  ASSERT_FALSE(db.add_agent(db_agent(7, 2, 9, e2ap::NodeType::du)));
  EXPECT_EQ(db.entity(1, 5), nullptr);  // old entity fully cleaned up
  const auto* e = db.entity(2, 9);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->du, std::optional<server::AgentId>{7});
  ASSERT_NE(db.agent(7), nullptr);
  EXPECT_EQ(db.agent(7)->node.plmn, 2u);
  EXPECT_EQ(db.agent(7)->node.type, e2ap::NodeType::du);
}

TEST(RanDb, RemoveUnknownAgentIsNoOp) {
  server::RanDb db;
  ASSERT_TRUE(db.add_agent(db_agent(1, 1, 1, e2ap::NodeType::enb)));
  db.remove_agent(99);
  EXPECT_EQ(db.num_agents(), 1u);
  ASSERT_NE(db.entity(1, 1), nullptr);
}

TEST(AgentServer, AgentsWithFunctionQuery) {
  World w;
  auto a1 = w.make_agent({1, 1, e2ap::NodeType::gnb},
                         std::make_shared<StubFunction>(200));
  auto a2 = w.make_agent({1, 2, e2ap::NodeType::gnb},
                         std::make_shared<StubFunction>(201));
  pump_until(w.reactor, [&] { return w.server.ran_db().num_agents() == 2; });
  EXPECT_EQ(w.server.ran_db().agents_with_function(200).size(), 1u);
  EXPECT_EQ(w.server.ran_db().agents_with_function(201).size(), 1u);
  EXPECT_TRUE(w.server.ran_db().agents_with_function(999).empty());
}

// ---------------------------------------------------------------------------
// Multi-controller support at the agent (§4.1.2)
// ---------------------------------------------------------------------------

TEST(MultiController, AgentServesTwoControllers) {
  Reactor reactor;
  server::E2Server ctrl_a(reactor, {1, WireFormat::flat});
  server::E2Server ctrl_b(reactor, {2, WireFormat::flat});
  auto fn = std::make_shared<StubFunction>(200);
  agent::E2Agent agent(reactor, {{1, 10, e2ap::NodeType::gnb},
                                 WireFormat::flat});
  ASSERT_TRUE(agent.register_function(fn).is_ok());

  auto [a1, s1] = LocalTransport::make_pair(reactor);
  ctrl_a.attach(s1);
  ASSERT_TRUE(agent.add_controller(a1).is_ok());
  auto [a2, s2] = LocalTransport::make_pair(reactor);
  ctrl_b.attach(s2);
  ASSERT_TRUE(agent.add_controller(a2).is_ok());

  ASSERT_TRUE(pump_until(reactor, [&] {
    return ctrl_a.ran_db().num_agents() == 1 &&
           ctrl_b.ran_db().num_agents() == 1;
  }));
  EXPECT_EQ(agent.num_controllers(), 2u);
}

TEST(MultiController, UeVisibilityDefaultsToFirstController) {
  Reactor reactor;
  agent::E2Agent agent(reactor, {{1, 10, e2ap::NodeType::gnb},
                                 WireFormat::flat});
  // First controller (id 0) sees every UE; others only associated ones.
  EXPECT_TRUE(agent.ue_visible(100, 0));
  EXPECT_FALSE(agent.ue_visible(100, 1));
  agent.associate_ue(100, 1);
  EXPECT_TRUE(agent.ue_visible(100, 1));
  agent.dissociate_ue(100, 1);
  EXPECT_FALSE(agent.ue_visible(100, 1));
  agent.associate_ue(100, 1);
  agent.remove_ue(100);
  EXPECT_FALSE(agent.ue_visible(100, 1));
  EXPECT_TRUE(agent.ue_visible(100, 0));  // primary always sees
}

TEST(MultiController, ControllerDetachClearsFunctionsState) {
  Reactor reactor;
  server::E2Server ctrl(reactor, {1, WireFormat::flat});
  auto fn = std::make_shared<StubFunction>(200);
  agent::E2Agent agent(reactor, {{1, 10, e2ap::NodeType::gnb},
                                 WireFormat::flat});
  (void)agent.register_function(fn);
  auto [a1, s1] = LocalTransport::make_pair(reactor);
  ctrl.attach(s1);
  auto id = agent.add_controller(a1);
  ASSERT_TRUE(id.is_ok());
  pump_until(reactor, [&] { return ctrl.ran_db().num_agents() == 1; });
  agent.remove_controller(*id);
  EXPECT_EQ(agent.num_controllers(), 0u);
  EXPECT_EQ(agent.state(*id), agent::ConnState::closed);
}

// ---------------------------------------------------------------------------
// Over real TCP, with the PER codec (full O-RAN-style stack)
// ---------------------------------------------------------------------------

TEST(AgentServer, WorksOverTcpWithPerCodec) {
  Reactor reactor;
  server::E2Server server(reactor, {21, WireFormat::per});
  ASSERT_TRUE(server.listen(0).is_ok());

  auto fn = std::make_shared<StubFunction>(200);
  agent::E2Agent agent(reactor, {{1, 10, e2ap::NodeType::gnb},
                                 WireFormat::per});
  (void)agent.register_function(fn);
  auto conn = TcpTransport::connect(reactor, "127.0.0.1", server.port());
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(
      agent.add_controller(std::shared_ptr<MsgTransport>(std::move(*conn)))
          .is_ok());

  ASSERT_TRUE(pump_until(reactor,
                         [&] { return server.ran_db().num_agents() == 1; }));

  Buffer outcome;
  server::CtrlCallbacks cbs;
  cbs.on_ack = [&](const e2ap::ControlAck& ack) { outcome = ack.outcome; };
  server::AgentId aid = server.ran_db().agents().front();
  (void)server.send_control(aid, 200, {}, Buffer{1, 2, 3}, cbs);
  ASSERT_TRUE(pump_until(reactor, [&] { return !outcome.empty(); }));
  EXPECT_EQ(outcome, (Buffer{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Agent churn during in-flight control transactions
// ---------------------------------------------------------------------------

// An agent that vanishes while control requests are in flight must fail
// exactly those transactions — synthetic ControlFailure with a transport
// cause, no callback left dangling — while transactions towards other agents
// proceed untouched.
TEST(AgentServer, AgentChurnFailsOnlyItsInflightControls) {
  World w;

  // Agent 1: wired manually so the test holds its transport end.
  auto fn1 = std::make_shared<StubFunction>(200);
  auto agent1 = std::make_unique<agent::E2Agent>(
      w.reactor,
      agent::E2Agent::Config{{1, 10, e2ap::NodeType::gnb}, WireFormat::flat});
  ASSERT_TRUE(agent1->register_function(fn1).is_ok());
  auto [a_side, s_side] = LocalTransport::make_pair(w.reactor);
  w.server.attach(s_side);
  ASSERT_TRUE(agent1->add_controller(a_side).is_ok());

  // Agent 2: healthy bystander.
  auto fn2 = std::make_shared<StubFunction>(201);
  auto agent2 = w.make_agent({1, 11, e2ap::NodeType::gnb}, fn2);
  ASSERT_TRUE(pump_until(w.reactor,
                         [&] { return w.server.ran_db().num_agents() == 2; }));

  int failed = 0;
  std::vector<e2ap::Cause::Group> groups;
  for (int i = 0; i < 3; ++i) {
    server::CtrlCallbacks cbs;
    cbs.on_ack = [](const e2ap::ControlAck&) {
      FAIL() << "ack for a control that died with the link";
    };
    cbs.on_failure = [&](const e2ap::ControlFailure& f) {
      failed++;
      groups.push_back(f.cause.group);
    };
    ASSERT_TRUE(w.server
                    .send_control(1, 200, Buffer{1},
                                  Buffer{static_cast<std::uint8_t>(i)},
                                  std::move(cbs))
                    .is_ok());
  }
  Buffer outcome2;
  server::CtrlCallbacks cbs2;
  cbs2.on_ack = [&](const e2ap::ControlAck& ack) { outcome2 = ack.outcome; };
  ASSERT_TRUE(
      w.server.send_control(2, 201, Buffer{1}, Buffer{9}, cbs2).is_ok());
  ASSERT_EQ(w.server.num_inflight_controls(), 4u);

  // Cut agent 1's link before any request is delivered.
  a_side->close();
  ASSERT_TRUE(pump_until(w.reactor, [&] { return failed == 3; }));
  EXPECT_EQ(fn1->controls, 0);  // requests died with the link
  for (auto g : groups) EXPECT_EQ(g, e2ap::Cause::Group::transport);

  // The bystander's transaction completes normally.
  ASSERT_TRUE(pump_until(w.reactor, [&] { return !outcome2.empty(); }));
  EXPECT_EQ(outcome2, (Buffer{9}));
  EXPECT_EQ(w.server.num_inflight_controls(), 0u);
  EXPECT_GE(w.server.stats().ctrls_failed_on_loss, 3u);
}

// Churn in the opposite phase: the request reached the agent, the ack is on
// its way back, and the link dies first. The transaction still resolves via
// on_failure — exactly once, never twice.
TEST(AgentServer, LateAckAfterChurnDoesNotDoubleResolve) {
  World w;
  auto fn = std::make_shared<StubFunction>(200);
  auto agent = std::make_unique<agent::E2Agent>(
      w.reactor,
      agent::E2Agent::Config{{1, 10, e2ap::NodeType::gnb}, WireFormat::flat});
  ASSERT_TRUE(agent->register_function(fn).is_ok());
  auto [a_side, s_side] = LocalTransport::make_pair(w.reactor);
  w.server.attach(s_side);
  ASSERT_TRUE(agent->add_controller(a_side).is_ok());
  ASSERT_TRUE(pump_until(w.reactor,
                         [&] { return w.server.ran_db().num_agents() == 1; }));

  int resolved = 0;
  server::CtrlCallbacks cbs;
  cbs.on_ack = [&](const e2ap::ControlAck&) { resolved++; };
  cbs.on_failure = [&](const e2ap::ControlFailure&) { resolved++; };
  ASSERT_TRUE(
      w.server.send_control(1, 200, Buffer{1}, Buffer{5}, std::move(cbs))
          .is_ok());
  // Deliver the request to the agent (it acks immediately)...
  ASSERT_TRUE(pump_until(w.reactor, [&] { return fn->controls == 1; }));
  // ...then cut the link. Depending on timing the ack either made it or
  // died in transit; either way the transaction resolves exactly once.
  a_side->close();
  ASSERT_TRUE(pump_until(w.reactor, [&] { return resolved >= 1; }));
  pump(w.reactor, 30);
  EXPECT_EQ(resolved, 1);
  EXPECT_EQ(w.server.num_inflight_controls(), 0u);
}

}  // namespace
}  // namespace flexric
