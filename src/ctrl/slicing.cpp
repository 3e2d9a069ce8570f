#include "ctrl/slicing.hpp"

#include <algorithm>

#include "e2sm/common.hpp"

namespace flexric::ctrl {

using e2sm::slice::Algo;
using e2sm::slice::CtrlKind;
using e2sm::slice::CtrlMsg;
using e2sm::slice::NvsKind;
using e2sm::slice::UeSched;

void SlicingIApp::on_agent_connected(const server::AgentInfo& info) {
  bool has_slice_sm = false;
  bool has_rrc_sm = false;
  for (const auto& f : info.functions) {
    has_slice_sm |= f.id == e2sm::slice::Sm::kId;
    has_rrc_sm |= f.id == e2sm::rrc::Sm::kId;
  }
  if (has_slice_sm) {
    slice_agents_.push_back(info.id);
    subscribe_status(info.id);
  }
  if (has_rrc_sm) subscribe_rrc(info.id);
}

void SlicingIApp::on_agent_disconnected(server::AgentId id) {
  status_.erase(id);
  std::erase(slice_agents_, id);
}

std::optional<server::AgentId> SlicingIApp::first_agent() const {
  if (slice_agents_.empty()) return std::nullopt;
  return slice_agents_.front();
}

void SlicingIApp::subscribe_status(server::AgentId agent) {
  e2sm::EventTrigger trigger{e2sm::TriggerKind::periodic,
                             cfg_.status_period_ms};
  e2ap::Action action;
  action.id = 1;
  action.type = e2ap::ActionType::report;
  server::SubCallbacks cbs;
  cbs.on_indication = [this, agent](const e2ap::Indication& ind) {
    auto msg = e2sm::sm_decode<e2sm::slice::IndicationMsg>(ind.message,
                                                           cfg_.sm_format);
    if (msg) status_[agent] = std::move(*msg);
  };
  (void)server_->subscribe(agent, e2sm::slice::Sm::kId,
                     e2sm::sm_encode(trigger, cfg_.sm_format), {action},
                     std::move(cbs));
}

void SlicingIApp::subscribe_rrc(server::AgentId agent) {
  e2sm::EventTrigger trigger{e2sm::TriggerKind::on_event, 0};
  e2ap::Action action;
  action.id = 1;
  action.type = e2ap::ActionType::report;
  server::SubCallbacks cbs;
  cbs.on_indication = [this, agent](const e2ap::Indication& ind) {
    auto ev =
        e2sm::sm_decode<e2sm::rrc::IndicationMsg>(ind.message, cfg_.sm_format);
    if (!ev) return;
    if (ev->kind == e2sm::rrc::EventKind::attach)
      ues_[ev->rnti] = UeInfo{ev->plmn, ev->s_nssai};
    else if (ev->kind == e2sm::rrc::EventKind::detach)
      ues_.erase(ev->rnti);
    if (on_ue_event_) on_ue_event_(*ev, agent);
  };
  (void)server_->subscribe(agent, e2sm::rrc::Sm::kId,
                     e2sm::sm_encode(trigger, cfg_.sm_format), {action},
                     std::move(cbs));
}

Status SlicingIApp::configure(
    server::AgentId agent, const CtrlMsg& msg,
    std::function<void(const e2sm::slice::CtrlOutcome&)> on_done) {
  server::CtrlCallbacks cbs;
  cbs.on_ack = [this, on_done](const e2ap::ControlAck& ack) {
    if (!on_done) return;
    auto outcome = e2sm::sm_decode<e2sm::slice::CtrlOutcome>(ack.outcome,
                                                             cfg_.sm_format);
    on_done(outcome ? *outcome
                    : e2sm::slice::CtrlOutcome{false, "undecodable outcome"});
  };
  cbs.on_failure = [on_done](const e2ap::ControlFailure&) {
    if (on_done) on_done({false, "control failure"});
  };
  return server_->send_control(agent, e2sm::slice::Sm::kId, Buffer{},
                               e2sm::sm_encode(msg, cfg_.sm_format),
                               std::move(cbs));
}

// ---------------------------------------------------------------------------
// JSON translation
// ---------------------------------------------------------------------------

Result<CtrlMsg> SlicingIApp::ctrl_from_json(const Json& j) {
  CtrlMsg msg;
  if (!j["assoc"].is_null()) {
    msg.kind = CtrlKind::assoc_ue;
    for (const auto& a : j["assoc"].as_array()) {
      e2sm::slice::UeSliceAssoc assoc;
      assoc.rnti = static_cast<std::uint16_t>(a["rnti"].as_number());
      assoc.slice_id = static_cast<std::uint32_t>(a["slice"].as_number());
      msg.assoc.push_back(assoc);
    }
    return msg;
  }
  if (!j["delete"].is_null()) {
    msg.kind = CtrlKind::del;
    for (const auto& d : j["delete"].as_array())
      msg.del_ids.push_back(static_cast<std::uint32_t>(d.as_number()));
    return msg;
  }
  msg.kind = CtrlKind::add_mod;
  std::string algo = j["algo"].as_string("nvs");
  if (algo == "nvs") msg.algo = Algo::nvs;
  else if (algo == "static") msg.algo = Algo::static_rb;
  else if (algo == "none") msg.algo = Algo::none;
  else return Error{Errc::malformed, "unknown algo: " + algo};
  for (const auto& s : j["slices"].as_array()) {
    e2sm::slice::SliceConf conf;
    conf.id = static_cast<std::uint32_t>(s["id"].as_number());
    conf.label = s["label"].as_string();
    std::string sched = s["sched"].as_string("pf");
    conf.ue_sched = sched == "rr"   ? UeSched::rr
                    : sched == "mt" ? UeSched::mt
                                    : UeSched::pf;
    if (!s["share"].is_null()) {
      conf.nvs.kind = NvsKind::capacity;
      conf.nvs.capacity_share = s["share"].as_number();
    } else if (!s["rate_mbps"].is_null()) {
      conf.nvs.kind = NvsKind::rate;
      conf.nvs.rate_mbps = s["rate_mbps"].as_number();
      conf.nvs.ref_rate_mbps = s["ref_rate_mbps"].as_number(100.0);
    }
    if (!s["rb_start"].is_null()) {
      conf.static_rb.rb_start =
          static_cast<std::uint32_t>(s["rb_start"].as_number());
      conf.static_rb.rb_count =
          static_cast<std::uint32_t>(s["rb_count"].as_number());
    }
    msg.slices.push_back(std::move(conf));
  }
  if (msg.slices.empty())
    return Error{Errc::malformed, "no slices in add_mod"};
  return msg;
}

Json SlicingIApp::status_to_json(const e2sm::slice::IndicationMsg& msg) {
  JsonObject root;
  root["algo"] = msg.algo == Algo::nvs          ? "nvs"
                 : msg.algo == Algo::static_rb ? "static"
                                               : "none";
  JsonArray slices;
  for (const auto& s : msg.slices) {
    JsonObject o;
    o["id"] = static_cast<double>(s.conf.id);
    o["label"] = s.conf.label;
    o["share"] = s.conf.nvs.capacity_share;
    o["share_used"] = s.prb_share_used;
    o["num_ues"] = static_cast<double>(s.num_ues);
    slices.emplace_back(std::move(o));
  }
  root["slices"] = Json(std::move(slices));
  JsonArray assoc;
  for (const auto& a : msg.assoc) {
    JsonObject o;
    o["rnti"] = static_cast<double>(a.rnti);
    o["slice"] = static_cast<double>(a.slice_id);
    assoc.emplace_back(std::move(o));
  }
  root["assoc"] = Json(std::move(assoc));
  return Json(std::move(root));
}

void SlicingIApp::mount_rest(HttpServer& http) {
  http.route("GET", "/ran", [this](const HttpRequest&, HttpResponse& resp) {
    JsonObject root;
    JsonArray agents;
    for (server::AgentId id : server_->ran_db().agents()) {
      const server::AgentInfo* info = server_->ran_db().agent(id);
      if (info == nullptr) continue;
      JsonObject o;
      o["agent"] = static_cast<double>(id);
      o["plmn"] = static_cast<double>(info->node.plmn);
      o["nb_id"] = static_cast<double>(info->node.nb_id);
      auto st = status_.find(id);
      if (st != status_.end()) o["slicing"] = status_to_json(st->second);
      agents.emplace_back(std::move(o));
    }
    root["agents"] = Json(std::move(agents));
    JsonArray ue_list;
    for (const auto& [rnti, info] : ues_) {
      JsonObject o;
      o["rnti"] = static_cast<double>(rnti);
      o["plmn"] = static_cast<double>(info.plmn);
      o["s_nssai"] = static_cast<double>(info.s_nssai);
      ue_list.emplace_back(std::move(o));
    }
    root["ues"] = Json(std::move(ue_list));
    resp.body = Json(std::move(root)).dump();
  });

  auto post_handler = [this](const HttpRequest& req, HttpResponse& resp) {
    auto j = Json::parse(req.body);
    if (!j) {
      resp.code = 400;
      resp.body = R"({"error":"invalid json"})";
      return;
    }
    auto msg = ctrl_from_json(*j);
    if (!msg) {
      resp.code = 400;
      resp.body = "{\"error\":\"" + msg.error().to_string() + "\"}";
      return;
    }
    server::AgentId agent =
        (*j)["agent"].is_null()
            ? first_agent().value_or(0)
            : static_cast<server::AgentId>((*j)["agent"].as_number());
    Status st = configure(agent, *msg);
    if (!st.is_ok()) {
      resp.code = 500;
      resp.body = "{\"error\":\"" + st.to_string() + "\"}";
      return;
    }
    resp.code = 200;
    resp.body = R"({"status":"submitted"})";
  };
  http.route("POST", "/slice", post_handler);
  http.route("POST", "/slice/assoc", post_handler);
}

}  // namespace flexric::ctrl
