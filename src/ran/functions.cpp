#include "ran/functions.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "e2sm/common.hpp"

namespace flexric::ran {

using agent::ControllerId;
using agent::SubscriptionOutcome;

// ---------------------------------------------------------------------------
// PeriodicReportBase
// ---------------------------------------------------------------------------

Result<SubscriptionOutcome> PeriodicReportBase::on_subscription(
    const e2ap::SubscriptionRequest& req, ControllerId origin) {
  auto trigger =
      e2sm::sm_decode<e2sm::EventTrigger>(req.event_trigger, fmt_);
  if (!trigger) return trigger.error();
  if (trigger->kind != e2sm::TriggerKind::periodic)
    return Error{Errc::unsupported, "only periodic triggers supported"};
  if (trigger->period_ms == 0)
    return Error{Errc::rejected, "period must be > 0"};

  SubscriptionOutcome outcome;
  SubState st;
  st.origin = origin;
  st.request = req.request;
  st.period_ms = trigger->period_ms;
  for (const auto& action : req.actions) {
    if (action.type != e2ap::ActionType::report) {
      outcome.not_admitted.emplace_back(
          action.id, e2ap::Cause{e2ap::Cause::Group::ric, 1});
      continue;
    }
    outcome.admitted.push_back(action.id);
    st.action_id = action.id;  // one report action per subscription
    st.action_def = action.definition;
  }
  if (outcome.admitted.empty())
    return Error{Errc::rejected, "no admissible action"};
  subs_[{origin, req.request}] = std::move(st);
  return outcome;
}

Status PeriodicReportBase::on_subscription_delete(
    const e2ap::SubscriptionDeleteRequest& req, ControllerId origin) {
  return subs_.erase({origin, req.request}) > 0
             ? Status::ok()
             : Status{Errc::not_found, "unknown subscription"};
}

void PeriodicReportBase::on_controller_detached(ControllerId origin) {
  for (auto it = subs_.begin(); it != subs_.end();)
    it = (it->first.first == origin) ? subs_.erase(it) : std::next(it);
}

void PeriodicReportBase::on_tti(Nanos now) {
  for (auto& [key, sub] : subs_) {
    if (now < sub.next_due) continue;
    sub.next_due = now + static_cast<Nanos>(sub.period_ms) * kMilli;
    auto payload = produce(sub, now);
    if (!payload) continue;
    e2ap::Indication ind;
    ind.request = sub.request;
    ind.ran_function_id = descriptor().id;
    ind.action_id = sub.action_id;
    ind.sn = sub.sn++;
    ind.type = e2ap::ActionType::report;
    ind.header = std::move(payload->first);
    ind.message = std::move(payload->second);
    if (services_ != nullptr)
      (void)services_->send_indication(sub.origin, ind);
  }
}

// ---------------------------------------------------------------------------
// MacStatsFunction
// ---------------------------------------------------------------------------

MacStatsFunction::MacStatsFunction(BaseStation& bs, WireFormat fmt)
    : PeriodicReportBase(fmt), bs_(bs) {
  desc_ = e2sm::make_ran_function<e2sm::mac::Sm>();
}

std::optional<std::pair<Buffer, Buffer>> MacStatsFunction::produce(
    const SubState& sub, Nanos now) {
  e2sm::mac::ActionDef def;
  if (!sub.action_def.empty()) {
    auto d = e2sm::sm_decode<e2sm::mac::ActionDef>(sub.action_def, fmt_);
    if (d) def = std::move(*d);
  }
  auto msg = bs_.mac_stats(def.include_harq, def.rnti_filter);
  // Multi-controller UE visibility (§4.1.2).
  if (services_ != nullptr)
    std::erase_if(msg.ues, [&](const e2sm::mac::UeStats& s) {
      return !services_->ue_visible(s.rnti, sub.origin);
    });
  e2sm::mac::IndicationHdr hdr;
  hdr.tstamp_ns = static_cast<std::uint64_t>(now);
  hdr.cell_id = bs_.config().cell_id;
  return std::make_pair(e2sm::sm_encode(hdr, fmt_),
                        e2sm::sm_encode(msg, fmt_));
}

// ---------------------------------------------------------------------------
// RlcStatsFunction
// ---------------------------------------------------------------------------

RlcStatsFunction::RlcStatsFunction(BaseStation& bs, WireFormat fmt)
    : PeriodicReportBase(fmt), bs_(bs) {
  desc_ = e2sm::make_ran_function<e2sm::rlc::Sm>();
}

std::optional<std::pair<Buffer, Buffer>> RlcStatsFunction::produce(
    const SubState& sub, Nanos now) {
  e2sm::rlc::ActionDef def;
  if (!sub.action_def.empty()) {
    auto d = e2sm::sm_decode<e2sm::rlc::ActionDef>(sub.action_def, fmt_);
    if (d) def = std::move(*d);
  }
  auto msg = bs_.rlc_stats(def.rnti_filter);
  if (services_ != nullptr)
    std::erase_if(msg.bearers, [&](const e2sm::rlc::BearerStats& s) {
      return !services_->ue_visible(s.rnti, sub.origin);
    });
  e2sm::rlc::IndicationHdr hdr;
  hdr.tstamp_ns = static_cast<std::uint64_t>(now);
  hdr.cell_id = bs_.config().cell_id;
  return std::make_pair(e2sm::sm_encode(hdr, fmt_),
                        e2sm::sm_encode(msg, fmt_));
}

// ---------------------------------------------------------------------------
// PdcpStatsFunction
// ---------------------------------------------------------------------------

PdcpStatsFunction::PdcpStatsFunction(BaseStation& bs, WireFormat fmt)
    : PeriodicReportBase(fmt), bs_(bs) {
  desc_ = e2sm::make_ran_function<e2sm::pdcp::Sm>();
}

std::optional<std::pair<Buffer, Buffer>> PdcpStatsFunction::produce(
    const SubState& sub, Nanos now) {
  e2sm::pdcp::ActionDef def;
  if (!sub.action_def.empty()) {
    auto d = e2sm::sm_decode<e2sm::pdcp::ActionDef>(sub.action_def, fmt_);
    if (d) def = std::move(*d);
  }
  auto msg = bs_.pdcp_stats(def.rnti_filter);
  if (services_ != nullptr)
    std::erase_if(msg.bearers, [&](const e2sm::pdcp::BearerStats& s) {
      return !services_->ue_visible(s.rnti, sub.origin);
    });
  e2sm::pdcp::IndicationHdr hdr;
  hdr.tstamp_ns = static_cast<std::uint64_t>(now);
  hdr.cell_id = bs_.config().cell_id;
  return std::make_pair(e2sm::sm_encode(hdr, fmt_),
                        e2sm::sm_encode(msg, fmt_));
}

// ---------------------------------------------------------------------------
// KpmFunction
// ---------------------------------------------------------------------------

KpmFunction::KpmFunction(BaseStation& bs, WireFormat fmt)
    : PeriodicReportBase(fmt), bs_(bs) {
  desc_ = e2sm::make_ran_function<e2sm::kpm::Sm>();
}

std::optional<std::pair<Buffer, Buffer>> KpmFunction::produce(
    const SubState& sub, Nanos now) {
  auto msg = bs_.kpm_stats();
  if (!sub.action_def.empty()) {
    auto d = e2sm::sm_decode<e2sm::kpm::ActionDef>(sub.action_def, fmt_);
    if (d && !d->metric_names.empty()) {
      std::erase_if(msg.metrics, [&](const e2sm::kpm::Metric& m) {
        return std::find(d->metric_names.begin(), d->metric_names.end(),
                         m.name) == d->metric_names.end();
      });
    }
  }
  e2sm::kpm::IndicationHdr hdr;
  hdr.tstamp_ns = static_cast<std::uint64_t>(now);
  hdr.cell_id = bs_.config().cell_id;
  hdr.granularity_ms = sub.period_ms;
  return std::make_pair(e2sm::sm_encode(hdr, fmt_),
                        e2sm::sm_encode(msg, fmt_));
}

// ---------------------------------------------------------------------------
// RrcFunction
// ---------------------------------------------------------------------------

RrcFunction::RrcFunction(BaseStation& bs, WireFormat fmt)
    : bs_(bs), fmt_(fmt) {
  desc_ = e2sm::make_ran_function<e2sm::rrc::Sm>();
  bs_.set_on_rrc_event(
      [this](const e2sm::rrc::IndicationMsg& ev) { emit(ev); });
}

Result<SubscriptionOutcome> RrcFunction::on_subscription(
    const e2ap::SubscriptionRequest& req, ControllerId origin) {
  auto trigger = e2sm::sm_decode<e2sm::EventTrigger>(req.event_trigger, fmt_);
  if (!trigger) return trigger.error();
  if (trigger->kind != e2sm::TriggerKind::on_event)
    return Error{Errc::unsupported, "RRC SM is on-event only"};
  SubscriptionOutcome outcome;
  for (const auto& action : req.actions) {
    if (action.type != e2ap::ActionType::report) {
      outcome.not_admitted.emplace_back(
          action.id, e2ap::Cause{e2ap::Cause::Group::ric, 1});
      continue;
    }
    SubState st;
    st.origin = origin;
    st.request = req.request;
    st.action_id = action.id;
    if (!action.definition.empty()) {
      auto d = e2sm::sm_decode<e2sm::rrc::ActionDef>(action.definition, fmt_);
      if (d) st.def = *d;
    }
    subs_.push_back(st);
    outcome.admitted.push_back(action.id);
  }
  if (outcome.admitted.empty())
    return Error{Errc::rejected, "no admissible action"};
  return outcome;
}

Status RrcFunction::on_subscription_delete(
    const e2ap::SubscriptionDeleteRequest& req, ControllerId origin) {
  auto n = std::erase_if(subs_, [&](const SubState& s) {
    return s.origin == origin && s.request == req.request;
  });
  return n > 0 ? Status::ok() : Status{Errc::not_found, "unknown sub"};
}

void RrcFunction::on_controller_detached(ControllerId origin) {
  std::erase_if(subs_, [&](const SubState& s) { return s.origin == origin; });
}

void RrcFunction::emit(const e2sm::rrc::IndicationMsg& ev) {
  if (services_ == nullptr) return;
  for (auto& sub : subs_) {
    if (ev.kind == e2sm::rrc::EventKind::attach && !sub.def.attach_events)
      continue;
    if (ev.kind == e2sm::rrc::EventKind::detach && !sub.def.detach_events)
      continue;
    e2sm::rrc::IndicationHdr hdr;
    hdr.tstamp_ns = static_cast<std::uint64_t>(bs_.now());
    hdr.cell_id = bs_.config().cell_id;
    e2ap::Indication ind;
    ind.request = sub.request;
    ind.ran_function_id = desc_.id;
    ind.action_id = sub.action_id;
    ind.sn = sub.sn++;
    ind.type = e2ap::ActionType::report;
    ind.header = e2sm::sm_encode(hdr, fmt_);
    ind.message = e2sm::sm_encode(ev, fmt_);
    (void)services_->send_indication(sub.origin, ind);
  }
}

// ---------------------------------------------------------------------------
// SliceCtrlFunction
// ---------------------------------------------------------------------------

SliceCtrlFunction::SliceCtrlFunction(BaseStation& bs, WireFormat fmt)
    : PeriodicReportBase(fmt), bs_(bs) {
  desc_ = e2sm::make_ran_function<e2sm::slice::Sm>();
}

Result<Buffer> SliceCtrlFunction::on_control(const e2ap::ControlRequest& req,
                                             ControllerId origin) {
  auto msg = e2sm::sm_decode<e2sm::slice::CtrlMsg>(req.message, fmt_);
  if (!msg) return msg.error();
  // Per-controller admission: additional controllers may only touch UEs
  // exposed to them (§4.1.2 SLA note).
  if (services_ != nullptr && msg->kind == e2sm::slice::CtrlKind::assoc_ue) {
    for (const auto& a : msg->assoc)
      if (!services_->ue_visible(a.rnti, origin))
        return Error{Errc::rejected, "UE not exposed to this controller"};
  }
  Status st = bs_.mac().apply(*msg);
  e2sm::slice::CtrlOutcome outcome;
  outcome.success = st.is_ok();
  outcome.diagnostic = st.is_ok() ? "" : st.to_string();
  if (!st.is_ok())
    LOG_DEBUG("slice-sm", "control rejected: %s", st.to_string().c_str());
  return e2sm::sm_encode(outcome, fmt_);
}

std::optional<std::pair<Buffer, Buffer>> SliceCtrlFunction::produce(
    const SubState& sub, Nanos now) {
  auto msg = bs_.mac().status_report(/*reset_period=*/true);
  if (services_ != nullptr) {
    std::erase_if(msg.assoc, [&](const e2sm::slice::UeSliceAssoc& a) {
      return !services_->ue_visible(a.rnti, sub.origin);
    });
  }
  e2sm::slice::IndicationHdr hdr;
  hdr.tstamp_ns = static_cast<std::uint64_t>(now);
  hdr.cell_id = bs_.config().cell_id;
  return std::make_pair(e2sm::sm_encode(hdr, fmt_),
                        e2sm::sm_encode(msg, fmt_));
}

// ---------------------------------------------------------------------------
// TcCtrlFunction
// ---------------------------------------------------------------------------

TcCtrlFunction::TcCtrlFunction(BaseStation& bs, WireFormat fmt)
    : PeriodicReportBase(fmt), bs_(bs) {
  desc_ = e2sm::make_ran_function<e2sm::tc::Sm>();
}

Result<Buffer> TcCtrlFunction::on_control(const e2ap::ControlRequest& req,
                                          ControllerId origin) {
  auto msg = e2sm::sm_decode<e2sm::tc::CtrlMsg>(req.message, fmt_);
  if (!msg) return msg.error();
  if (services_ != nullptr && !services_->ue_visible(msg->rnti, origin))
    return Error{Errc::rejected, "UE not exposed to this controller"};
  tc::TcChain* chain = bs_.tc_chain(msg->rnti, msg->drb_id);
  if (chain == nullptr)
    return Error{Errc::not_found, "no such bearer"};
  Status st = Status::ok();
  switch (msg->kind) {
    case e2sm::tc::CtrlKind::add_queue: st = chain->add_queue(msg->queue); break;
    case e2sm::tc::CtrlKind::del_queue: st = chain->del_queue(msg->del_id); break;
    case e2sm::tc::CtrlKind::add_filter: st = chain->add_filter(msg->filter); break;
    case e2sm::tc::CtrlKind::del_filter: st = chain->del_filter(msg->del_id); break;
    case e2sm::tc::CtrlKind::sched_conf: chain->set_sched(msg->sched); break;
    case e2sm::tc::CtrlKind::pacer_conf: chain->set_pacer(msg->pacer); break;
    default: st = {Errc::unsupported, "unknown TC control kind"}; break;
  }
  e2sm::tc::CtrlOutcome outcome;
  outcome.success = st.is_ok();
  outcome.diagnostic = st.is_ok() ? "" : st.to_string();
  return e2sm::sm_encode(outcome, fmt_);
}

Result<SubscriptionOutcome> TcCtrlFunction::on_subscription(
    const e2ap::SubscriptionRequest& req, ControllerId origin) {
  // Split POLICY actions (agent-local automation) from REPORT actions
  // (periodic statistics, handled by the base class).
  e2ap::SubscriptionRequest report_req = req;
  report_req.actions.clear();
  SubscriptionOutcome outcome;
  std::vector<PolicyState> accepted_policies;
  for (const auto& action : req.actions) {
    if (action.type == e2ap::ActionType::policy) {
      auto def = e2sm::sm_decode<e2sm::tc::PolicyDef>(action.definition, fmt_);
      if (!def) {
        outcome.not_admitted.emplace_back(
            action.id, e2ap::Cause{e2ap::Cause::Group::ric, 1});
        continue;
      }
      accepted_policies.push_back({origin, req.request, *def});
      outcome.admitted.push_back(action.id);
    } else {
      report_req.actions.push_back(action);
    }
  }
  if (!report_req.actions.empty()) {
    auto base = PeriodicReportBase::on_subscription(report_req, origin);
    if (base) {
      outcome.admitted.insert(outcome.admitted.end(), base->admitted.begin(),
                              base->admitted.end());
      outcome.not_admitted.insert(outcome.not_admitted.end(),
                                  base->not_admitted.begin(),
                                  base->not_admitted.end());
    } else if (accepted_policies.empty()) {
      return base.error();
    }
  }
  if (outcome.admitted.empty())
    return Error{Errc::rejected, "no admissible action"};
  for (auto& p : accepted_policies) policies_.push_back(std::move(p));
  return outcome;
}

Status TcCtrlFunction::on_subscription_delete(
    const e2ap::SubscriptionDeleteRequest& req, ControllerId origin) {
  auto removed = std::erase_if(policies_, [&](const PolicyState& p) {
    return p.origin == origin && p.request == req.request;
  });
  Status base = PeriodicReportBase::on_subscription_delete(req, origin);
  return (removed > 0 || base.is_ok())
             ? Status::ok()
             : Status{Errc::not_found, "unknown subscription"};
}

void TcCtrlFunction::on_controller_detached(ControllerId origin) {
  std::erase_if(policies_,
                [&](const PolicyState& p) { return p.origin == origin; });
  PeriodicReportBase::on_controller_detached(origin);
}

void TcCtrlFunction::on_tti(Nanos now) {
  PeriodicReportBase::on_tti(now);
  if (!policies_.empty()) enforce_policies(now);
}

void TcCtrlFunction::enforce_policies(Nanos now) {
  (void)now;
  for (const PolicyState& policy : policies_) {
    for (std::uint16_t rnti : bs_.ues()) {
      if (services_ != nullptr && !services_->ue_visible(rnti, policy.origin))
        continue;
      for (std::uint8_t drb = 1; drb <= 4; ++drb) {
        tc::TcChain* chain = bs_.tc_chain(rnti, drb);
        if (chain == nullptr) continue;
        if (chain->pacer().kind == e2sm::tc::PacerKind::bdp)
          continue;  // already enforced
        if (bs_.rlc_head_sojourn_ms(rnti, drb) > policy.def.sojourn_limit_ms) {
          e2sm::tc::PacerConf pacer;
          pacer.kind = e2sm::tc::PacerKind::bdp;
          pacer.target_ms = policy.def.pacer_target_ms;
          chain->set_pacer(pacer);
          LOG_INFO("tc-sm",
                   "policy: sojourn beyond %.1f ms on rnti %u drb %u — "
                   "BDP pacer applied locally",
                   policy.def.sojourn_limit_ms, rnti, drb);
        }
      }
    }
  }
}

std::optional<std::pair<Buffer, Buffer>> TcCtrlFunction::produce(
    const SubState& sub, Nanos now) {
  // Reports the TC state of every visible bearer; the header names the
  // first reported bearer (single-UE experiments have exactly one).
  e2sm::tc::IndicationMsg msg;
  e2sm::tc::IndicationHdr hdr;
  hdr.tstamp_ns = static_cast<std::uint64_t>(now);
  for (std::uint16_t rnti : bs_.ues()) {
    if (services_ != nullptr && !services_->ue_visible(rnti, sub.origin))
      continue;
    for (std::uint8_t drb = 1; drb <= 4; ++drb) {
      tc::TcChain* chain = bs_.tc_chain(rnti, drb);
      if (chain == nullptr) continue;
      if (hdr.rnti == 0) {
        hdr.rnti = rnti;
        hdr.drb_id = drb;
      }
      auto stats = chain->stats_snapshot(/*reset_period=*/true);
      msg.queues.insert(msg.queues.end(), stats.begin(), stats.end());
      msg.pacer_rate_mbps = chain->pacer_rate_mbps();
    }
  }
  return std::make_pair(e2sm::sm_encode(hdr, fmt_),
                        e2sm::sm_encode(msg, fmt_));
}

// ---------------------------------------------------------------------------
// HwFunction
// ---------------------------------------------------------------------------

HwFunction::HwFunction(WireFormat fmt) : fmt_(fmt) {
  desc_ = e2sm::make_ran_function<e2sm::hw::Sm>();
}

Result<SubscriptionOutcome> HwFunction::on_subscription(
    const e2ap::SubscriptionRequest& req, ControllerId origin) {
  SubscriptionOutcome outcome;
  SubState st;
  st.request = req.request;
  for (const auto& action : req.actions) {
    outcome.admitted.push_back(action.id);
    st.action_id = action.id;
  }
  if (outcome.admitted.empty())
    return Error{Errc::rejected, "no action"};
  subs_[origin] = st;
  return outcome;
}

Status HwFunction::on_subscription_delete(
    const e2ap::SubscriptionDeleteRequest& req, ControllerId origin) {
  auto it = subs_.find(origin);
  if (it == subs_.end() || !(it->second.request == req.request))
    return {Errc::not_found, "unknown subscription"};
  subs_.erase(it);
  return Status::ok();
}

void HwFunction::on_controller_detached(ControllerId origin) {
  subs_.erase(origin);
}

Result<Buffer> HwFunction::on_control(const e2ap::ControlRequest& req,
                                      ControllerId origin) {
  auto ping = e2sm::sm_decode<e2sm::hw::Ping>(req.message, fmt_);
  if (!ping) return ping.error();
  auto it = subs_.find(origin);
  if (it == subs_.end())
    return Error{Errc::rejected, "no pong subscription installed"};
  e2sm::hw::Pong pong;
  pong.seq = ping->seq;
  pong.ping_sent_ns = ping->sent_ns;
  pong.payload = std::move(ping->payload);
  e2sm::hw::IndicationHdr hdr;
  hdr.tstamp_ns = static_cast<std::uint64_t>(mono_now());
  e2ap::Indication ind;
  ind.request = it->second.request;
  ind.ran_function_id = desc_.id;
  ind.action_id = it->second.action_id;
  ind.sn = it->second.sn++;
  ind.type = e2ap::ActionType::report;
  ind.header = e2sm::sm_encode(hdr, fmt_);
  ind.message = e2sm::sm_encode(pong, fmt_);
  if (services_ != nullptr) (void)services_->send_indication(origin, ind);
  return Buffer{};  // empty control outcome
}

// ---------------------------------------------------------------------------
// AssocFunction
// ---------------------------------------------------------------------------

AssocFunction::AssocFunction(WireFormat fmt) : fmt_(fmt) {
  desc_ = e2sm::make_ran_function<e2sm::assoc::Sm>();
}

Result<Buffer> AssocFunction::on_control(const e2ap::ControlRequest& req,
                                         ControllerId origin) {
  auto msg = e2sm::sm_decode<e2sm::assoc::CtrlMsg>(req.message, fmt_);
  if (!msg) return msg.error();
  // Only the primary (infrastructure) controller may rewire associations;
  // a specialized controller must not widen its own visibility.
  e2sm::assoc::CtrlOutcome outcome;
  if (origin != 0) {
    outcome.success = false;
    outcome.diagnostic = "only the primary controller manages associations";
    return e2sm::sm_encode(outcome, fmt_);
  }
  if (services_ != nullptr) {
    if (msg->kind == e2sm::assoc::CtrlKind::associate)
      services_->associate_ue(msg->rnti, msg->controller_index);
    else
      services_->dissociate_ue(msg->rnti, msg->controller_index);
  }
  return e2sm::sm_encode(outcome, fmt_);
}

// ---------------------------------------------------------------------------
// BsFunctionBundle
// ---------------------------------------------------------------------------

BsFunctionBundle::BsFunctionBundle(BaseStation& bs, agent::E2Agent& agent,
                                   WireFormat sm_fmt) {
  mac_ = std::make_shared<MacStatsFunction>(bs, sm_fmt);
  rlc_ = std::make_shared<RlcStatsFunction>(bs, sm_fmt);
  pdcp_ = std::make_shared<PdcpStatsFunction>(bs, sm_fmt);
  kpm_ = std::make_shared<KpmFunction>(bs, sm_fmt);
  rrc_ = std::make_shared<RrcFunction>(bs, sm_fmt);
  slice_ = std::make_shared<SliceCtrlFunction>(bs, sm_fmt);
  tc_ = std::make_shared<TcCtrlFunction>(bs, sm_fmt);
  (void)agent.register_function(mac_);
  (void)agent.register_function(rlc_);
  (void)agent.register_function(pdcp_);
  (void)agent.register_function(kpm_);
  (void)agent.register_function(rrc_);
  (void)agent.register_function(slice_);
  (void)agent.register_function(tc_);
}

void BsFunctionBundle::on_tti(Nanos now) {
  mac_->on_tti(now);
  rlc_->on_tti(now);
  pdcp_->on_tti(now);
  kpm_->on_tti(now);
  slice_->on_tti(now);
  tc_->on_tti(now);
}

}  // namespace flexric::ran
