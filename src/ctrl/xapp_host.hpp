// Controller specialization for hosting xApps (paper §6.3).
//
// "A number of services are required to host xApps: (1) a messaging
// infrastructure ...; (2) subscription management, e.g., merging identical
// subscriptions; (3) xApp management ...; (4) a database for xApps ...".
// This iApp provides (1)-(4) as SM-independent platform services on top of
// the server library, so SM functionality lives entirely in the xApps:
//
//  * xApp management — register/unregister xApps by name.
//  * Subscription merging — an xApp subscription identical to an existing
//    one (same agent, RAN function, trigger and actions) reuses the single
//    E2 subscription toward the agent; indications fan out to every
//    attached xApp. This is the dedup a Near-RT RIC performs so N xApps
//    monitoring the same KPIs cost the RAN one report stream, not N.
//  * Messaging — indications are delivered through per-xApp callbacks (the
//    in-process analogue of the RMR mesh).
//  * Database — the latest indication per (agent, RAN function) is kept for
//    late-joining xApps to read.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "server/server.hpp"

namespace flexric::ctrl {

class XappHostIApp final : public server::IApp {
 public:
  using XappId = std::uint32_t;
  using IndicationHandler = std::function<void(const e2ap::Indication&)>;

  [[nodiscard]] const char* name() const override { return "xapp-host"; }
  void on_agent_disconnected(server::AgentId id) override;

  // -- xApp management --
  /// Register an xApp; returns its id.
  XappId register_xapp(std::string xapp_name);
  /// Unregister: detaches all its subscriptions; E2 subscriptions with no
  /// remaining xApp are deleted toward the agent.
  void unregister_xapp(XappId id);
  [[nodiscard]] std::size_t num_xapps() const noexcept {
    return xapps_.size();
  }

  // -- subscription management with merging --
  /// Subscribe `xapp` to (agent, fn, trigger, actions). If an identical
  /// subscription exists it is shared (no new E2 traffic); otherwise one is
  /// created. Returns a token for unsubscribe_xapp.
  Result<std::uint64_t> subscribe_xapp(XappId xapp, server::AgentId agent,
                                       std::uint16_t ran_function_id,
                                       Buffer event_trigger,
                                       std::vector<e2ap::Action> actions,
                                       IndicationHandler on_indication);
  Status unsubscribe_xapp(std::uint64_t token);

  /// Number of E2 subscriptions currently open toward agents (after
  /// merging) — the quantity the dedup minimizes.
  [[nodiscard]] std::size_t num_e2_subscriptions() const noexcept {
    return e2_subs_.size();
  }

  // -- database --
  /// Latest indication payload per (agent, RAN function), or nullptr.
  [[nodiscard]] const e2ap::Indication* latest(
      server::AgentId agent, std::uint16_t ran_function_id) const;

 private:
  struct MergeKey {
    server::AgentId agent;
    std::uint16_t fn;
    Buffer trigger;
    std::vector<e2ap::Action> actions;
    bool operator<(const MergeKey& o) const {
      return std::tie(agent, fn, trigger, actions) <
             std::tie(o.agent, o.fn, o.trigger, o.actions);
    }
  };
  struct E2Sub {
    server::SubHandle handle;
    std::map<std::uint64_t, std::pair<XappId, IndicationHandler>> attached;
  };

  std::map<XappId, std::string> xapps_;
  XappId next_xapp_ = 1;
  std::map<MergeKey, E2Sub> e2_subs_;
  std::map<std::uint64_t, MergeKey> tokens_;
  std::uint64_t next_token_ = 1;
  std::map<std::pair<server::AgentId, std::uint16_t>, e2ap::Indication> db_;
};

}  // namespace flexric::ctrl
