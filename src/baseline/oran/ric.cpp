#include "baseline/oran/ric.hpp"

#include "baseline/oran/rmr.hpp"
#include "common/log.hpp"
#include "e2sm/serde.hpp"

namespace flexric::baseline::oran {

// ---------------------------------------------------------------------------
// E2Termination
// ---------------------------------------------------------------------------

E2Termination::E2Termination(Reactor& reactor)
    : reactor_(reactor), codec_(e2ap::per_codec()) {}

E2Termination::~E2Termination() {
  for (auto* conns : {&agents_, &xapps_})
    for (auto& [id, t] : *conns) {
      t->set_on_message(nullptr);
      t->set_on_close(nullptr);
    }
}

Status E2Termination::listen_e2(std::uint16_t port) {
  e2_listener_ = std::make_unique<TcpListener>(
      reactor_, [this](std::unique_ptr<TcpTransport> t) {
        attach_agent(std::shared_ptr<MsgTransport>(std::move(t)));
      });
  return e2_listener_->listen(port);
}

Status E2Termination::listen_rmr(std::uint16_t port) {
  rmr_listener_ = std::make_unique<TcpListener>(
      reactor_, [this](std::unique_ptr<TcpTransport> t) {
        attach_xapp(std::shared_ptr<MsgTransport>(std::move(t)));
      });
  return rmr_listener_->listen(port);
}

void E2Termination::attach_agent(std::shared_ptr<MsgTransport> transport) {
  std::uint64_t id = next_conn_++;
  transport->set_on_message(
      [this, id](StreamId, BytesView wire) { on_agent_message(id, wire); });
  transport->set_on_close([this, id]() { agents_.erase(id); });
  agents_[id] = std::move(transport);
}

void E2Termination::attach_xapp(std::shared_ptr<MsgTransport> transport) {
  std::uint64_t id = next_conn_++;
  transport->set_on_message(
      [this, id](StreamId, BytesView wire) { on_xapp_message(id, wire); });
  transport->set_on_close([this, id]() { xapps_.erase(id); });
  xapps_[id] = std::move(transport);
}

std::uint64_t E2Termination::registry_get(const std::string& key) {
  stats_.registry_lookups++;
  auto it = registry_.find(key);
  return it == registry_.end() ? 0 : it->second;
}

void E2Termination::registry_set(const std::string& key,
                                 std::uint64_t value) {
  registry_[key] = value;
}

void E2Termination::on_agent_message(std::uint64_t conn, BytesView wire) {
  stats_.e2_msgs_rx++;
  // First decode: the E2 termination must parse the full E2AP PDU to
  // classify and route it.
  auto msg = codec_.decode(wire);
  stats_.e2_decodes++;
  if (!msg) {
    LOG_WARN("e2term", "undecodable E2AP from agent: %s",
             msg.error().to_string().c_str());
    return;
  }
  switch (e2ap::msg_type(*msg)) {
    case e2ap::MsgType::setup_request: {
      const auto& setup = std::get<e2ap::SetupRequest>(*msg);
      // Register the node and its functions in the SDL-like registry.
      registry_set("e2node:" + std::to_string(setup.node.nb_id), conn);
      for (const auto& f : setup.ran_functions)
        registry_set("ranfunc:" + std::to_string(f.id), conn);
      e2ap::SetupResponse resp;
      resp.trans_id = setup.trans_id;
      resp.ric_id = 42;
      for (const auto& f : setup.ran_functions)
        resp.accepted.push_back(f.id);
      auto out = codec_.encode(e2ap::Msg{std::move(resp)});
      if (out) (void)agents_[conn]->send(*out);
      return;
    }
    case e2ap::MsgType::indication: {
      const auto& ind = std::get<e2ap::Indication>(*msg);
      // Route by subscription id through the registry, then forward the
      // ORIGINAL bytes over the RMR hop (extra copy + second decode at the
      // xApp).
      std::uint64_t xapp = registry_get(
          "sub:" + std::to_string(ind.request.requestor) + ":" +
          std::to_string(ind.request.instance));
      auto it = xapps_.find(xapp);
      if (it == xapps_.end() && !xapps_.empty()) it = xapps_.begin();
      if (it == xapps_.end()) return;
      Buffer rmr = rmr_encode(RmrType::e2ap_pdu,
                              static_cast<std::int32_t>(ind.request.instance),
                              wire);
      stats_.rmr_forwards++;
      (void)it->second->send(rmr);
      return;
    }
    default: {
      // Subscription/control responses etc.: route to the requesting xApp.
      Buffer rmr = rmr_encode(RmrType::e2ap_pdu, -1, wire);
      stats_.rmr_forwards++;
      if (!xapps_.empty()) (void)xapps_.begin()->second->send(rmr);
      return;
    }
  }
}

void E2Termination::on_xapp_message(std::uint64_t conn, BytesView wire) {
  auto rmr = rmr_decode(wire);
  if (!rmr) return;
  // Decode to learn routing data (subscription registration), then
  // re-encode nothing: forward original payload bytes to the agent.
  auto msg = codec_.decode(rmr->payload);
  stats_.e2_decodes++;
  if (!msg) return;
  if (e2ap::msg_type(*msg) == e2ap::MsgType::subscription_request) {
    const auto& sub = std::get<e2ap::SubscriptionRequest>(*msg);
    registry_set("sub:" + std::to_string(sub.request.requestor) + ":" +
                     std::to_string(sub.request.instance),
                 conn);
  }
  std::uint64_t agent = 0;
  std::visit(
      [&](const auto& m) {
        if constexpr (requires {
                        requires std::is_same_v<
                            std::decay_t<decltype(m.ran_function_id)>,
                            std::uint16_t>;
                      })
          agent = registry_get("ranfunc:" +
                               std::to_string(m.ran_function_id));
        (void)m;
      },
      *msg);
  auto it = agents_.find(agent);
  if (it == agents_.end() && !agents_.empty()) it = agents_.begin();
  if (it == agents_.end()) return;
  Buffer copy(rmr->payload.begin(), rmr->payload.end());  // RMR copy-out
  (void)it->second->send(copy);
}

// ---------------------------------------------------------------------------
// OranXapp
// ---------------------------------------------------------------------------

OranXapp::OranXapp(Reactor&, std::shared_ptr<MsgTransport> rmr_conn,
                   WireFormat sm_format)
    : codec_(e2ap::per_codec()), conn_(std::move(rmr_conn)),
      sm_fmt_(sm_format) {
  conn_->set_on_message(
      [this](StreamId, BytesView wire) { on_message(wire); });
}

OranXapp::~OranXapp() {
  conn_->set_on_message(nullptr);
  conn_->set_on_close(nullptr);
}

Status OranXapp::subscribe(std::uint16_t ran_function_id, Buffer event_trigger,
                           std::vector<e2ap::Action> actions) {
  e2ap::SubscriptionRequest req;
  req.request.requestor = 7;  // xApp id
  req.request.instance = next_instance_++;
  req.ran_function_id = ran_function_id;
  req.event_trigger = std::move(event_trigger);
  req.actions = std::move(actions);
  auto wire = codec_.encode(e2ap::Msg{std::move(req)});
  if (!wire) return wire.status();
  return conn_->send(rmr_encode(RmrType::sub_request, -1, *wire));
}

Status OranXapp::send_control(std::uint16_t ran_function_id, Buffer header,
                              Buffer message) {
  e2ap::ControlRequest req;
  req.request.requestor = 7;
  req.request.instance = next_instance_++;
  req.ran_function_id = ran_function_id;
  req.header = std::move(header);
  req.message = std::move(message);
  req.ack_requested = false;
  auto wire = codec_.encode(e2ap::Msg{std::move(req)});
  if (!wire) return wire.status();
  return conn_->send(rmr_encode(RmrType::control_request, -1, *wire));
}

void OranXapp::on_message(BytesView wire) {
  auto rmr = rmr_decode(wire);
  if (!rmr) return;
  // Second decode of the same E2AP PDU (the double-decode overhead).
  auto msg = codec_.decode(rmr->payload);
  stats_.e2_decodes++;
  if (!msg) return;
  if (e2ap::msg_type(*msg) != e2ap::MsgType::indication) return;
  const auto& ind = std::get<e2ap::Indication>(*msg);
  stats_.indications_rx++;
  // Monitoring use case: parse MAC stats into the xApp-local DB.
  auto stats = e2sm::sm_decode<e2sm::mac::IndicationMsg>(ind.message, sm_fmt_);
  if (stats)
    for (const auto& ue : stats->ues) db_[ue.rnti] = ue;
  if (on_ind_) on_ind_(ind);
}

}  // namespace flexric::baseline::oran
