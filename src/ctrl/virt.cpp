#include "ctrl/virt.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "e2sm/common.hpp"

namespace flexric::ctrl {

using e2sm::slice::CtrlKind;
using e2sm::slice::CtrlMsg;
using e2sm::slice::NvsKind;
using e2sm::slice::SliceConf;

// ---------------------------------------------------------------------------
// Appendix B math
// ---------------------------------------------------------------------------

SliceConf VirtController::virtualize_conf(const SliceConf& virt,
                                          const TenantConfig& tenant) {
  SliceConf phys = virt;
  phys.id = tenant.phys_slice_base + virt.id;
  phys.label = tenant.name + "/" + virt.label;
  if (virt.nvs.kind == NvsKind::capacity) {
    // c_phys = c_virt * q
    phys.nvs.capacity_share = virt.nvs.capacity_share * tenant.sla_share;
  } else {
    // Rate slices keep the reserved rate; the reference rate scales up so
    // the physical share r/r_ref_phys = (r/r_ref_virt) * q.
    phys.nvs.rate_mbps = virt.nvs.rate_mbps;
    phys.nvs.ref_rate_mbps =
        tenant.sla_share > 0 ? virt.nvs.ref_rate_mbps / tenant.sla_share
                             : virt.nvs.ref_rate_mbps;
  }
  return phys;
}

double VirtController::virtual_load(const std::vector<SliceConf>& confs) {
  double load = 0.0;
  for (const auto& c : confs) {
    if (c.nvs.kind == NvsKind::capacity)
      load += c.nvs.capacity_share;
    else
      load += c.nvs.ref_rate_mbps > 0
                  ? c.nvs.rate_mbps / c.nvs.ref_rate_mbps
                  : 1.0;
  }
  return load;
}

// ---------------------------------------------------------------------------
// Virtual RAN functions (northbound, one set per tenant)
// ---------------------------------------------------------------------------

/// SC SM virtualization iApp (Table 5): rescales slice parameters, remaps
/// ids, forwards admissible configs to the physical agent.
class VirtController::VirtSliceFunction final : public agent::RanFunction {
 public:
  VirtSliceFunction(VirtController& virt, Tenant& tenant)
      : virt_(virt), tenant_(tenant) {
    desc_ = e2sm::make_ran_function<e2sm::slice::Sm>();
  }

  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }

  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req,
      agent::ControllerId origin) override {
    // Status reports: subscribe southbound once; partition per tenant.
    server::SubCallbacks cbs;
    e2ap::RicRequestId north_req = req.request;
    cbs.on_indication = [this, origin,
                         north_req](const e2ap::Indication& ind) {
      forward_status(ind, origin, north_req);
    };
    auto handle = virt_.server_->subscribe(*virt_.south_agent_,
                                           e2sm::slice::Sm::kId,
                                           req.event_trigger, req.actions,
                                           std::move(cbs));
    if (!handle) return handle.error();
    agent::SubscriptionOutcome outcome;
    for (const auto& a : req.actions) outcome.admitted.push_back(a.id);
    action_id_ = req.actions.empty() ? 1 : req.actions.front().id;
    return outcome;
  }

  Status on_subscription_delete(const e2ap::SubscriptionDeleteRequest&,
                                agent::ControllerId) override {
    return Status::ok();
  }

  Result<Buffer> on_control(const e2ap::ControlRequest& req,
                            agent::ControllerId) override {
    auto msg =
        e2sm::sm_decode<CtrlMsg>(req.message, virt_.cfg_.sm_format);
    if (!msg) return msg.error();
    auto phys = virtualize_ctrl(*msg);
    if (!phys) return phys.error();
    Status st = virt_.server_->send_control(
        *virt_.south_agent_, e2sm::slice::Sm::kId, Buffer{},
        e2sm::sm_encode(*phys, virt_.cfg_.sm_format), {},
        /*ack_requested=*/false);
    e2sm::slice::CtrlOutcome outcome;
    outcome.success = st.is_ok();
    outcome.diagnostic = st.is_ok() ? "" : st.to_string();
    return e2sm::sm_encode(outcome, virt_.cfg_.sm_format);
  }

 private:
  Result<CtrlMsg> virtualize_ctrl(const CtrlMsg& virt_msg) {
    CtrlMsg phys = virt_msg;
    switch (virt_msg.kind) {
      case CtrlKind::add_mod: {
        if (virt_msg.algo != e2sm::slice::Algo::nvs)
          return Error{Errc::unsupported,
                       "virtualization layer supports NVS only"};
        for (const auto& c : virt_msg.slices)
          if (c.id > 9)
            return Error{Errc::rejected, "virtual slice id must be 0-9"};
        // Admission: the tenant may not exceed its own virtual network.
        double load = virtual_load(virt_msg.slices);
        for (const auto& [id, conf] : tenant_virtual_)
          if (std::none_of(virt_msg.slices.begin(), virt_msg.slices.end(),
                           [&](const SliceConf& c) { return c.id == id; }))
            load += virtual_load({conf});
        if (load > 1.0 + 1e-9)
          return Error{Errc::rejected,
                       "virtual admission control: total share > 1"};
        phys.slices.clear();
        for (const auto& c : virt_msg.slices) {
          tenant_virtual_[c.id] = c;
          phys.slices.push_back(virtualize_conf(c, tenant_.cfg));
        }
        return phys;
      }
      case CtrlKind::del: {
        phys.del_ids.clear();
        for (std::uint32_t id : virt_msg.del_ids) {
          if (id > 9)
            return Error{Errc::rejected, "virtual slice id must be 0-9"};
          tenant_virtual_.erase(id);
          phys.del_ids.push_back(tenant_.cfg.phys_slice_base + id);
        }
        return phys;
      }
      case CtrlKind::assoc_ue: {
        phys.assoc.clear();
        for (const auto& a : virt_msg.assoc) {
          if (tenant_.ues.count(a.rnti) == 0)
            return Error{Errc::rejected,
                         "UE does not belong to this tenant"};
          if (a.slice_id > 9)
            return Error{Errc::rejected, "virtual slice id must be 0-9"};
          phys.assoc.push_back(
              {a.rnti, tenant_.cfg.phys_slice_base + a.slice_id});
        }
        return phys;
      }
    }
    return Error{Errc::unsupported, "unknown slice control kind"};
  }

  void forward_status(const e2ap::Indication& ind, agent::ControllerId origin,
                      e2ap::RicRequestId north_req) {
    auto msg = e2sm::sm_decode<e2sm::slice::IndicationMsg>(
        ind.message, virt_.cfg_.sm_format);
    if (!msg) return;
    // Partition: keep only this tenant's physical slices, mapped back to
    // virtual ids; hide other tenants entirely.
    e2sm::slice::IndicationMsg out;
    out.algo = msg->algo;
    std::uint32_t base = tenant_.cfg.phys_slice_base;
    for (auto& s : msg->slices) {
      if (s.conf.id < base || s.conf.id > base + 9) continue;
      e2sm::slice::SliceStatus v = s;
      v.conf.id = s.conf.id - base;
      // De-virtualize the share so the tenant sees its virtual scale.
      if (v.conf.nvs.kind == NvsKind::capacity &&
          tenant_.cfg.sla_share > 0) {
        v.conf.nvs.capacity_share /= tenant_.cfg.sla_share;
        v.prb_share_used /= tenant_.cfg.sla_share;
      }
      out.slices.push_back(std::move(v));
    }
    for (const auto& a : msg->assoc) {
      if (tenant_.ues.count(a.rnti) == 0) continue;
      std::uint32_t vid = a.slice_id >= base && a.slice_id <= base + 9
                              ? a.slice_id - base
                              : 0;
      out.assoc.push_back({a.rnti, vid});
    }
    e2ap::Indication up = ind;
    up.request = north_req;
    up.ran_function_id = desc_.id;
    up.message = e2sm::sm_encode(out, virt_.cfg_.sm_format);
    if (services_ != nullptr) (void)services_->send_indication(origin, up);
  }

  VirtController& virt_;
  Tenant& tenant_;
  e2ap::RanFunctionItem desc_;
  std::map<std::uint32_t, SliceConf> tenant_virtual_;
  std::uint8_t action_id_ = 1;
};

/// MAC stats partitioning iApp (Table 5): only the tenant's UEs are
/// revealed; physical slice ids are mapped back to virtual ones.
class VirtController::VirtMacFunction final : public agent::RanFunction {
 public:
  VirtMacFunction(VirtController& virt, Tenant& tenant)
      : virt_(virt), tenant_(tenant) {
    desc_ = e2sm::make_ran_function<e2sm::mac::Sm>();
  }

  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }

  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req,
      agent::ControllerId origin) override {
    server::SubCallbacks cbs;
    e2ap::RicRequestId north_req = req.request;
    cbs.on_indication = [this, origin,
                         north_req](const e2ap::Indication& ind) {
      auto msg = e2sm::sm_decode<e2sm::mac::IndicationMsg>(
          ind.message, virt_.cfg_.sm_format);
      if (!msg) return;
      std::erase_if(msg->ues, [this](const e2sm::mac::UeStats& s) {
        return tenant_.ues.count(s.rnti) == 0;
      });
      std::uint32_t base = tenant_.cfg.phys_slice_base;
      for (auto& ue : msg->ues)
        ue.slice_id =
            ue.slice_id >= base && ue.slice_id <= base + 9
                ? ue.slice_id - base
                : 0;
      e2ap::Indication up = ind;
      up.request = north_req;
      up.ran_function_id = desc_.id;
      up.message = e2sm::sm_encode(*msg, virt_.cfg_.sm_format);
      if (services_ != nullptr) (void)services_->send_indication(origin, up);
    };
    auto handle = virt_.server_->subscribe(*virt_.south_agent_,
                                           e2sm::mac::Sm::kId,
                                           req.event_trigger, req.actions,
                                           std::move(cbs));
    if (!handle) return handle.error();
    agent::SubscriptionOutcome outcome;
    for (const auto& a : req.actions) outcome.admitted.push_back(a.id);
    return outcome;
  }

  Status on_subscription_delete(const e2ap::SubscriptionDeleteRequest&,
                                agent::ControllerId) override {
    return Status::ok();
  }
  Result<Buffer> on_control(const e2ap::ControlRequest&,
                            agent::ControllerId) override {
    return Error{Errc::unsupported, "MAC stats SM has no control service"};
  }

 private:
  VirtController& virt_;
  Tenant& tenant_;
  e2ap::RanFunctionItem desc_;
};

/// RRC event partitioning: a tenant only sees its own subscribers' events.
class VirtController::VirtRrcFunction final : public agent::RanFunction {
 public:
  VirtRrcFunction(VirtController& virt, Tenant& tenant)
      : virt_(virt), tenant_(tenant) {
    desc_ = e2sm::make_ran_function<e2sm::rrc::Sm>();
  }

  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }

  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req,
      agent::ControllerId origin) override {
    subs_.push_back({origin, req.request,
                     req.actions.empty() ? std::uint8_t{1}
                                         : req.actions.front().id});
    agent::SubscriptionOutcome outcome;
    for (const auto& a : req.actions) outcome.admitted.push_back(a.id);
    if (outcome.admitted.empty()) outcome.admitted.push_back(1);
    return outcome;
  }
  Status on_subscription_delete(const e2ap::SubscriptionDeleteRequest& req,
                                agent::ControllerId origin) override {
    std::erase_if(subs_, [&](const Sub& s) {
      return s.origin == origin && s.request == req.request;
    });
    return Status::ok();
  }
  Result<Buffer> on_control(const e2ap::ControlRequest&,
                            agent::ControllerId) override {
    return Error{Errc::unsupported, "RRC SM has no control service"};
  }

  /// Called by the VirtController when a southbound RRC event matches this
  /// tenant's PLMN.
  void emit(const e2sm::rrc::IndicationMsg& ev) {
    if (services_ == nullptr) return;
    for (auto& sub : subs_) {
      e2ap::Indication ind;
      ind.request = sub.request;
      ind.ran_function_id = desc_.id;
      ind.action_id = sub.action_id;
      ind.sn = sub.sn++;
      ind.type = e2ap::ActionType::report;
      ind.message = e2sm::sm_encode(ev, virt_.cfg_.sm_format);
      (void)services_->send_indication(sub.origin, ind);
    }
  }

 private:
  struct Sub {
    agent::ControllerId origin;
    e2ap::RicRequestId request;
    std::uint8_t action_id;
    std::uint32_t sn = 0;
  };
  VirtController& virt_;
  Tenant& tenant_;
  e2ap::RanFunctionItem desc_;
  std::vector<Sub> subs_;
};

// ---------------------------------------------------------------------------
// Southbound iApp: agent discovery + RRC-based tenant UE attribution
// ---------------------------------------------------------------------------

class VirtController::SouthIApp final : public server::IApp {
 public:
  explicit SouthIApp(VirtController& virt) : virt_(virt) {}
  [[nodiscard]] const char* name() const override { return "virt-south"; }
  void on_agent_connected(const server::AgentInfo& info) override {
    virt_.on_south_agent(info);
  }

 private:
  VirtController& virt_;
};

// ---------------------------------------------------------------------------
// VirtController
// ---------------------------------------------------------------------------

VirtController::VirtController(Reactor& reactor, Config cfg,
                               std::vector<TenantConfig> tenant_cfgs)
    : reactor_(reactor), cfg_(cfg) {
  server_ = std::make_unique<server::E2Server>(
      reactor_, server::E2Server::Config{.ric_id = 88,
                                          .e2ap_format = cfg_.e2ap_format,
                                          .quarantine_after = 3 * kSecond,
                                          .expire_after = 10 * kSecond});
  south_iapp_ = std::make_shared<SouthIApp>(*this);
  server_->add_iapp(south_iapp_);
  std::uint32_t idx = 0;
  for (auto& tc : tenant_cfgs) {
    auto tenant = std::make_unique<Tenant>();
    tenant->cfg = tc;
    agent::E2Agent::Config acfg;
    acfg.node_id.plmn = tc.plmn;
    acfg.node_id.nb_id = cfg_.virt_nb_id_base + idx;
    acfg.node_id.type = e2ap::NodeType::enb;
    acfg.e2ap_format = cfg_.e2ap_format;
    tenant->north_agent = std::make_unique<agent::E2Agent>(reactor_, acfg);
    tenant->slice_fn = std::make_shared<VirtSliceFunction>(*this, *tenant);
    tenant->mac_fn = std::make_shared<VirtMacFunction>(*this, *tenant);
    tenant->rrc_fn = std::make_shared<VirtRrcFunction>(*this, *tenant);
    (void)tenant->north_agent->register_function(tenant->slice_fn);
    (void)tenant->north_agent->register_function(tenant->mac_fn);
    (void)tenant->north_agent->register_function(tenant->rrc_fn);
    tenants_.push_back(std::move(tenant));
    ++idx;
  }
}

void VirtController::on_south_agent(const server::AgentInfo& info) {
  south_agent_ = info.id;
  // Learn UE-to-tenant attribution from RRC events.
  e2sm::EventTrigger trigger{e2sm::TriggerKind::on_event, 0};
  e2ap::Action action;
  action.id = 1;
  action.type = e2ap::ActionType::report;
  server::SubCallbacks cbs;
  cbs.on_indication = [this](const e2ap::Indication& ind) {
    auto ev = e2sm::sm_decode<e2sm::rrc::IndicationMsg>(ind.message,
                                                        cfg_.sm_format);
    if (ev) on_rrc_event(*ev);
  };
  (void)server_->subscribe(info.id, e2sm::rrc::Sm::kId,
                     e2sm::sm_encode(trigger, cfg_.sm_format), {action},
                     std::move(cbs));
}

VirtController::Tenant* VirtController::tenant_of_plmn(std::uint32_t plmn) {
  for (auto& t : tenants_)
    if (t->cfg.plmn == plmn) return t.get();
  return nullptr;
}

void VirtController::on_rrc_event(const e2sm::rrc::IndicationMsg& ev) {
  Tenant* tenant = tenant_of_plmn(ev.plmn);
  if (tenant == nullptr) {
    LOG_WARN("virt", "UE %u with unknown PLMN %u", ev.rnti, ev.plmn);
    return;
  }
  if (ev.kind == e2sm::rrc::EventKind::attach)
    tenant->ues.insert(ev.rnti);
  else if (ev.kind == e2sm::rrc::EventKind::detach)
    tenant->ues.erase(ev.rnti);
  tenant->rrc_fn->emit(ev);
}

Result<agent::ControllerId> VirtController::connect_tenant(
    std::size_t idx, std::shared_ptr<MsgTransport> transport) {
  if (idx >= tenants_.size())
    return Error{Errc::not_found, "no such tenant"};
  if (!south_agent_)
    return Error{Errc::rejected, "southbound agent not connected yet"};
  return tenants_[idx]->north_agent->add_controller(std::move(transport));
}

std::set<std::uint16_t> VirtController::tenant_ues(std::size_t idx) const {
  if (idx >= tenants_.size()) return {};
  return tenants_[idx]->ues;
}

}  // namespace flexric::ctrl
