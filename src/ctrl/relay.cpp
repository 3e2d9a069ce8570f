#include "ctrl/relay.hpp"

#include "common/log.hpp"

namespace flexric::ctrl {

// A RAN function at a northbound virtual node that mirrors one function of
// one southbound agent: subscriptions and controls are forwarded down, and
// indications come back up with the northbound request id restored.
class RelayController::RelayFunction final : public agent::RanFunction {
 public:
  RelayFunction(RelayController& relay, server::AgentId south_agent,
                e2ap::RanFunctionItem descriptor)
      : relay_(relay), south_agent_(south_agent),
        desc_(std::move(descriptor)) {}

  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }

  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req,
      agent::ControllerId origin) override {
    server::SubCallbacks cbs;
    e2ap::RicRequestId north_req = req.request;
    std::uint16_t fn_id = desc_.id;
    cbs.on_indication = [this, origin, north_req,
                         fn_id](const e2ap::Indication& ind) {
      e2ap::Indication up = ind;
      up.request = north_req;  // restore the upper controller's request id
      up.ran_function_id = fn_id;
      if (services_ != nullptr) (void)services_->send_indication(origin, up);
    };
    auto handle = relay_.server_->subscribe(
        south_agent_, desc_.id, req.event_trigger, req.actions,
        std::move(cbs));
    if (!handle) return handle.error();
    south_subs_[{origin, req.request}] = *handle;
    // Optimistic admission: the southbound outcome arrives asynchronously;
    // a rejected action would surface as missing indications.
    agent::SubscriptionOutcome outcome;
    for (const auto& a : req.actions) outcome.admitted.push_back(a.id);
    return outcome;
  }

  Status on_subscription_delete(const e2ap::SubscriptionDeleteRequest& req,
                                agent::ControllerId origin) override {
    auto it = south_subs_.find({origin, req.request});
    if (it == south_subs_.end())
      return {Errc::not_found, "unknown subscription"};
    (void)relay_.server_->unsubscribe(it->second);
    south_subs_.erase(it);
    return Status::ok();
  }

  Result<Buffer> on_control(const e2ap::ControlRequest& req,
                            agent::ControllerId) override {
    Status st = relay_.server_->send_control(
        south_agent_, desc_.id, req.header, req.message, {},
        /*ack_requested=*/false);
    if (!st.is_ok()) return Error{st.code(), st.error().message};
    return Buffer{};  // forwarded; outcome is asynchronous
  }

  void on_controller_detached(agent::ControllerId origin) override {
    for (auto it = south_subs_.begin(); it != south_subs_.end();) {
      if (it->first.first == origin) {
        (void)relay_.server_->unsubscribe(it->second);
        it = south_subs_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  RelayController& relay_;
  server::AgentId south_agent_;
  e2ap::RanFunctionItem desc_;
  std::map<std::pair<agent::ControllerId, e2ap::RicRequestId>,
           server::SubHandle>
      south_subs_;
};

// Watches southbound connections and mirrors their RAN functions onto the
// owning entity's northbound virtual node. CU and DU of one base station
// land on the SAME node (Fig. 14b: disaggregation abstracted away).
class RelayController::MirrorIApp final : public server::IApp {
 public:
  explicit MirrorIApp(RelayController& relay) : relay_(relay) {}
  [[nodiscard]] const char* name() const override { return "relay-mirror"; }

  void on_agent_connected(const server::AgentInfo& info) override {
    Entity& entity = relay_.entity_for(info.node);
    for (const auto& f : info.functions) {
      auto fn = std::make_shared<RelayFunction>(relay_, info.id, f);
      Status st = entity.north_agent->register_function(fn);
      if (!st.is_ok())
        LOG_WARN("relay", "mirroring fn %u of agent %u failed: %s", f.id,
                 info.id, st.to_string().c_str());
    }
  }

 private:
  RelayController& relay_;
};

RelayController::RelayController(Reactor& reactor, Config cfg)
    : reactor_(reactor), cfg_(cfg) {
  server_ = std::make_unique<server::E2Server>(
      reactor_, server::E2Server::Config{.ric_id = 77,
                                          .e2ap_format = cfg_.e2ap_format,
                                          .quarantine_after = 3 * kSecond,
                                          .expire_after = 10 * kSecond});
  mirror_ = std::make_shared<MirrorIApp>(*this);
  server_->add_iapp(mirror_);
}

RelayController::Entity& RelayController::entity_for(
    const e2ap::GlobalNodeId& node) {
  auto it = entities_.find(key(node.plmn, node.nb_id));
  if (it != entities_.end()) return it->second;
  // New northbound virtual node: the entity's identity, presented as a
  // monolithic base station regardless of the southbound disaggregation.
  agent::E2Agent::Config acfg;
  acfg.node_id.plmn = node.plmn;
  acfg.node_id.nb_id = node.nb_id;
  acfg.node_id.type = node.type == e2ap::NodeType::gnb ||
                              node.type == e2ap::NodeType::cu ||
                              node.type == e2ap::NodeType::du
                          ? e2ap::NodeType::gnb
                          : e2ap::NodeType::enb;
  acfg.e2ap_format = cfg_.e2ap_format;
  Entity entity;
  entity.north_agent = std::make_unique<agent::E2Agent>(reactor_, acfg);
  return entities_.emplace(key(node.plmn, node.nb_id), std::move(entity))
      .first->second;
}

Result<agent::ControllerId> RelayController::connect_northbound(
    std::shared_ptr<MsgTransport> transport) {
  if (entities_.empty())
    return Error{Errc::rejected, "no southbound agent mirrored yet"};
  return entities_.begin()->second.north_agent->add_controller(
      std::move(transport));
}

Result<agent::ControllerId> RelayController::connect_northbound_entity(
    std::uint32_t plmn, std::uint32_t nb_id,
    std::shared_ptr<MsgTransport> transport) {
  auto it = entities_.find(key(plmn, nb_id));
  if (it == entities_.end())
    return Error{Errc::not_found, "no such mirrored entity"};
  return it->second.north_agent->add_controller(std::move(transport));
}

}  // namespace flexric::ctrl
