#include "ctrl/monitor.hpp"

#include "e2sm/common.hpp"

namespace flexric::ctrl {

namespace {

constexpr auto bearer_key = [](const auto& b) {
  return std::pair{b.rnti, b.drb_id};
};

}  // namespace

void MonitorIApp::on_agent_connected(const server::AgentInfo& info) {
  db_[info.id];  // create entry
  for (const auto& f : info.functions) {
    bool want = (cfg_.want_mac && f.id == e2sm::mac::Sm::kId) ||
                f.id == e2sm::rlc::Sm::kId ||
                (cfg_.want_pdcp && f.id == e2sm::pdcp::Sm::kId);
    if (want) subscribe_stats(info.id, f.id);
  }
}

void MonitorIApp::on_agent_disconnected(server::AgentId id) {
  if (!cfg_.retain_on_disconnect) db_.erase(id);
}

void MonitorIApp::on_agent_quarantined(server::AgentId) {
  // The server still holds the agent's state: keep ours too. Either
  // on_agent_reconnected or on_agent_disconnected resolves it.
  quarantines_++;
}

void MonitorIApp::on_agent_reconnected(const server::AgentInfo& info) {
  // The server replayed our subscriptions under their original handles, so
  // the indication callbacks keep firing into the same AgentDb — do NOT
  // resubscribe here or every reconnect would double the stats streams.
  reconnects_++;
  db_[info.id];  // re-create if a disconnect pruned it in between
}

void MonitorIApp::subscribe_stats(server::AgentId agent, std::uint16_t fn_id) {
  e2sm::EventTrigger trigger;
  trigger.kind = e2sm::TriggerKind::periodic;
  trigger.period_ms = cfg_.period_ms;
  e2ap::Action action;
  action.id = 1;
  action.type = e2ap::ActionType::report;

  server::SubCallbacks cbs;
  cbs.on_indication = [this, agent, fn_id](const e2ap::Indication& ind) {
    AgentDb& db = db_[agent];
    db.indications++;
    total_indications_++;
    if (!cfg_.decode_payloads) {
      // FlatBuffers mode: saving the raw message IS the in-memory data
      // structure; fields are read in place when queried.
      db.raw[fn_id].assign(ind.message.begin(), ind.message.end());
      if (cfg_.telemetry != nullptr)
        static_cast<void>(cfg_.telemetry->wire(agent, fn_id, ind.header,
                                               ind.message, cfg_.sm_format));
      return;
    }
    // Agent-side collection timestamp for the telemetry store; decoded once
    // per indication, only when a store is attached.
    Nanos tstamp = 0;
    if (cfg_.telemetry != nullptr) {
      auto t = telemetry::Ingest::header_tstamp(ind.header, cfg_.sm_format);
      if (t.is_ok()) tstamp = *t;
    }
    if (fn_id == e2sm::mac::Sm::kId) {
      auto msg = e2sm::sm_decode<e2sm::mac::IndicationMsg>(ind.message,
                                                           cfg_.sm_format);
      if (msg) {
        db.mac.update(msg->ues, [](const auto& ue) { return ue.rnti; });
        if (cfg_.telemetry != nullptr)
          cfg_.telemetry->mac(agent, tstamp, *msg);
      }
      if (cfg_.broker != nullptr)
        cfg_.broker->publish("stats/mac", ind.message);
    } else if (fn_id == e2sm::rlc::Sm::kId) {
      auto msg = e2sm::sm_decode<e2sm::rlc::IndicationMsg>(ind.message,
                                                           cfg_.sm_format);
      if (msg) {
        db.rlc.update(msg->bearers, bearer_key);
        if (cfg_.telemetry != nullptr)
          cfg_.telemetry->rlc(agent, tstamp, *msg);
      }
      if (cfg_.broker != nullptr)
        cfg_.broker->publish("stats/rlc", ind.message);
    } else if (fn_id == e2sm::pdcp::Sm::kId) {
      auto msg = e2sm::sm_decode<e2sm::pdcp::IndicationMsg>(ind.message,
                                                            cfg_.sm_format);
      if (msg) {
        db.pdcp.update(msg->bearers, bearer_key);
        if (cfg_.telemetry != nullptr)
          cfg_.telemetry->pdcp(agent, tstamp, *msg);
      }
      if (cfg_.broker != nullptr)
        cfg_.broker->publish("stats/pdcp", ind.message);
    }
  };
  (void)server_->subscribe(agent, fn_id, e2sm::sm_encode(trigger, cfg_.sm_format),
                     {action}, std::move(cbs));
}

}  // namespace flexric::ctrl
