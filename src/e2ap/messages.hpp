// E2AP intermediate representation (IR).
//
// The paper's E2 abstraction (§4.3) models E2AP procedures "without loss of
// information and independent of any particular encoding/decoding
// algorithms". These structs are that IR: agents, the server library, iApps
// and xApps all exchange them. Each struct declares its wire fields once, in
// IE order, as a `serde(archive, msg)` template next to it; the PER and FLAT
// archives of e2sm/serde.hpp turn that one declaration into both wire
// codecs (codec.cpp). 21 procedures are implemented (the paper implements
// 20/26 in ASN.1 and 12/26 in FlatBuffers; here both codecs cover all 21).
//
// Ranges are part of the declaration: `a.ranged(v, lo, hi)` is a PER
// constrained integer and a range check in FLAT, so an out-of-range IR value
// fails to encode and an out-of-range wire value fails to decode.
//
// SM payloads (event triggers, action definitions, indication header/message,
// control header/message) are opaque byte strings at this layer — E2 double-
// encodes: the E2SM payload is encoded first, then embedded in the E2AP
// message (§5.2 measures the cost of exactly this).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/buffer.hpp"

namespace flexric::e2ap {

/// Discriminator for the IR variant; also the on-wire message type tag.
enum class MsgType : std::uint8_t {
  // -- Global procedures (connection management) --
  setup_request = 0,
  setup_response,
  setup_failure,
  reset_request,
  reset_response,
  error_indication,
  service_update,
  service_update_ack,
  service_update_failure,
  node_config_update,
  node_config_update_ack,
  // -- Functional procedures (RIC <-> RAN function) --
  subscription_request,
  subscription_response,
  subscription_failure,
  subscription_delete_request,
  subscription_delete_response,
  subscription_delete_failure,
  indication,
  control_request,
  control_ack,
  control_failure,
};
constexpr std::size_t kNumMsgTypes = 21;
const char* msg_type_name(MsgType t) noexcept;

/// RAN function ids are 12-bit in every procedure.
constexpr std::uint64_t kMaxRanFunctionId = 4095;

/// List-element codecs: a RAN function id, an (id, cause) pair, any pair.
inline constexpr auto kFnIdElem = [](auto& a, auto& id) {
  a.ranged(id, 0, kMaxRanFunctionId);
};
inline constexpr auto kFnIdCauseElem = [](auto& a, auto& e) {
  kFnIdElem(a, e.first);
  a.field(e.second);
};
inline constexpr auto kPairElem = [](auto& a, auto& e) {
  a.field(e.first);
  a.field(e.second);
};

/// E2 node kind: monolithic eNB/gNB or a disaggregated part (CU/DU). The RAN
/// management in the server merges CU+DU agents of the same base station.
enum class NodeType : std::uint8_t { enb = 0, gnb, cu, du };

/// Globally unique E2 node identity (simplified GlobalE2node-ID).
struct GlobalNodeId {
  std::uint32_t plmn = 0;    ///< packed MCC/MNC
  std::uint32_t nb_id = 0;   ///< base station id; CU/DU of one BS share it
  NodeType type = NodeType::enb;
  bool operator==(const GlobalNodeId&) const = default;
};

template <typename A>
void serde(A& a, GlobalNodeId& id) {
  a.ranged(id.plmn, 0, 0xFFFFFF);
  a.ranged(id.nb_id, 0, 0xFFFFFFF);  // 28-bit gNB id space
  a.ranged(id.type, 0, 3);  // NodeType::enb..du
}

/// A RAN function advertised by an E2 node at setup time.
struct RanFunctionItem {
  std::uint16_t id = 0;
  std::uint16_t revision = 0;
  std::string name;        ///< OID-like SM name, e.g. "ORAN-E2SM-MAC-STATS"
  Buffer definition;       ///< SM-specific capability blob
  bool operator==(const RanFunctionItem&) const = default;
};

template <typename A>
void serde(A& a, RanFunctionItem& f) {
  a.ranged(f.id, 0, kMaxRanFunctionId);
  a.ranged(f.revision, 0, 4095);
  a.str(f.name);
  a.bytes(f.definition);
}

/// Failure cause (simplified E2AP Cause IE).
struct Cause {
  enum class Group : std::uint8_t { ric = 0, transport, protocol, misc };
  Group group = Group::misc;
  std::uint8_t value = 0;
  bool operator==(const Cause&) const = default;
};

template <typename A>
void serde(A& a, Cause& c) {
  a.ranged(c.group, 0, 3);  // Group::ric..misc
  a.u8(c.value);
}

/// Identifies one subscription/control transaction of one requestor (xApp or
/// iApp) — the E2AP RICrequestID.
struct RicRequestId {
  std::uint16_t requestor = 0;
  std::uint16_t instance = 0;
  bool operator==(const RicRequestId&) const = default;
  auto operator<=>(const RicRequestId&) const = default;
};

template <typename A>
void serde(A& a, RicRequestId& id) {
  a.u16(id.requestor);
  a.u16(id.instance);
}

/// Subscription action kind (E2SM services; see Appendix A of the paper).
enum class ActionType : std::uint8_t { report = 0, insert, policy };

struct Action {
  std::uint8_t id = 0;
  ActionType type = ActionType::report;
  Buffer definition;  ///< SM-encoded action definition
  bool operator==(const Action&) const = default;
  auto operator<=>(const Action&) const = default;
};

template <typename A>
void serde(A& a, Action& x) {
  a.u8(x.id);
  a.ranged(x.type, 0, 2);  // ActionType::report..policy
  a.bytes(x.definition);
}

// ---------------------------------------------------------------------------
// Global procedures
// ---------------------------------------------------------------------------

struct SetupRequest {
  static constexpr MsgType kType = MsgType::setup_request;
  std::uint8_t trans_id = 0;
  GlobalNodeId node;
  std::vector<RanFunctionItem> ran_functions;
  bool operator==(const SetupRequest&) const = default;
};

template <typename A>
void serde(A& a, SetupRequest& m) {
  a.u8(m.trans_id);
  a.field(m.node);
  a.vec(m.ran_functions);
}

struct SetupResponse {
  static constexpr MsgType kType = MsgType::setup_response;
  std::uint8_t trans_id = 0;
  std::uint32_t ric_id = 0;
  std::vector<std::uint16_t> accepted;                 ///< RAN function ids
  std::vector<std::pair<std::uint16_t, Cause>> rejected;
  bool operator==(const SetupResponse&) const = default;
};

template <typename A>
void serde(A& a, SetupResponse& m) {
  a.u8(m.trans_id);
  a.ranged(m.ric_id, 0, 0xFFFFF);
  a.vec(m.accepted, kFnIdElem);
  a.vec(m.rejected, kFnIdCauseElem);
}

struct SetupFailure {
  static constexpr MsgType kType = MsgType::setup_failure;
  std::uint8_t trans_id = 0;
  Cause cause;
  bool operator==(const SetupFailure&) const = default;
};

template <typename A>
void serde(A& a, SetupFailure& m) {
  a.u8(m.trans_id);
  a.field(m.cause);
}

struct ResetRequest {
  static constexpr MsgType kType = MsgType::reset_request;
  std::uint8_t trans_id = 0;
  Cause cause;
  bool operator==(const ResetRequest&) const = default;
};

template <typename A>
void serde(A& a, ResetRequest& m) {
  a.u8(m.trans_id);
  a.field(m.cause);
}

struct ResetResponse {
  static constexpr MsgType kType = MsgType::reset_response;
  std::uint8_t trans_id = 0;
  bool operator==(const ResetResponse&) const = default;
};

template <typename A>
void serde(A& a, ResetResponse& m) {
  a.u8(m.trans_id);
}

struct ErrorIndication {
  static constexpr MsgType kType = MsgType::error_indication;
  std::optional<RicRequestId> request;  ///< present for functional errors
  std::optional<std::uint16_t> ran_function_id;
  Cause cause;
  bool operator==(const ErrorIndication&) const = default;
};

template <typename A>
void serde(A& a, ErrorIndication& m) {
  a.present(m.request);
  a.present(m.ran_function_id);
  a.body(m.request);
  a.body(m.ran_function_id, kFnIdElem);
  a.field(m.cause);
}

/// RAN function add/modify/remove after setup (RIC Service Update).
struct ServiceUpdate {
  static constexpr MsgType kType = MsgType::service_update;
  std::uint8_t trans_id = 0;
  std::vector<RanFunctionItem> added;
  std::vector<RanFunctionItem> modified;
  std::vector<std::uint16_t> removed;
  bool operator==(const ServiceUpdate&) const = default;
};

template <typename A>
void serde(A& a, ServiceUpdate& m) {
  a.u8(m.trans_id);
  a.vec(m.added);
  a.vec(m.modified);
  a.vec(m.removed, kFnIdElem);
}

struct ServiceUpdateAck {
  static constexpr MsgType kType = MsgType::service_update_ack;
  std::uint8_t trans_id = 0;
  std::vector<std::uint16_t> accepted;
  std::vector<std::pair<std::uint16_t, Cause>> rejected;
  bool operator==(const ServiceUpdateAck&) const = default;
};

template <typename A>
void serde(A& a, ServiceUpdateAck& m) {
  a.u8(m.trans_id);
  a.vec(m.accepted, kFnIdElem);
  a.vec(m.rejected, kFnIdCauseElem);
}

struct ServiceUpdateFailure {
  static constexpr MsgType kType = MsgType::service_update_failure;
  std::uint8_t trans_id = 0;
  Cause cause;
  bool operator==(const ServiceUpdateFailure&) const = default;
};

template <typename A>
void serde(A& a, ServiceUpdateFailure& m) {
  a.u8(m.trans_id);
  a.field(m.cause);
}

/// E2 node configuration update (simplified: opaque component configs).
struct NodeConfigUpdate {
  static constexpr MsgType kType = MsgType::node_config_update;
  std::uint8_t trans_id = 0;
  std::vector<std::pair<std::string, Buffer>> components;
  bool operator==(const NodeConfigUpdate&) const = default;
};

template <typename A>
void serde(A& a, NodeConfigUpdate& m) {
  a.u8(m.trans_id);
  a.vec(m.components, kPairElem);
}

struct NodeConfigUpdateAck {
  static constexpr MsgType kType = MsgType::node_config_update_ack;
  std::uint8_t trans_id = 0;
  std::vector<std::string> accepted_components;
  bool operator==(const NodeConfigUpdateAck&) const = default;
};

template <typename A>
void serde(A& a, NodeConfigUpdateAck& m) {
  a.u8(m.trans_id);
  a.vec(m.accepted_components);
}

// ---------------------------------------------------------------------------
// Functional procedures
// ---------------------------------------------------------------------------

struct SubscriptionRequest {
  static constexpr MsgType kType = MsgType::subscription_request;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  Buffer event_trigger;  ///< SM-encoded trigger (e.g. periodic timer)
  std::vector<Action> actions;
  bool operator==(const SubscriptionRequest&) const = default;
};

template <typename A>
void serde(A& a, SubscriptionRequest& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
  a.bytes(m.event_trigger);
  a.vec(m.actions);
}

struct SubscriptionResponse {
  static constexpr MsgType kType = MsgType::subscription_response;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  std::vector<std::uint8_t> admitted;  ///< action ids
  std::vector<std::pair<std::uint8_t, Cause>> not_admitted;
  bool operator==(const SubscriptionResponse&) const = default;
};

template <typename A>
void serde(A& a, SubscriptionResponse& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
  a.vec(m.admitted);
  a.vec(m.not_admitted, kPairElem);
}

struct SubscriptionFailure {
  static constexpr MsgType kType = MsgType::subscription_failure;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  Cause cause;
  bool operator==(const SubscriptionFailure&) const = default;
};

template <typename A>
void serde(A& a, SubscriptionFailure& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
  a.field(m.cause);
}

struct SubscriptionDeleteRequest {
  static constexpr MsgType kType = MsgType::subscription_delete_request;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  bool operator==(const SubscriptionDeleteRequest&) const = default;
};

template <typename A>
void serde(A& a, SubscriptionDeleteRequest& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
}

struct SubscriptionDeleteResponse {
  static constexpr MsgType kType = MsgType::subscription_delete_response;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  bool operator==(const SubscriptionDeleteResponse&) const = default;
};

template <typename A>
void serde(A& a, SubscriptionDeleteResponse& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
}

struct SubscriptionDeleteFailure {
  static constexpr MsgType kType = MsgType::subscription_delete_failure;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  Cause cause;
  bool operator==(const SubscriptionDeleteFailure&) const = default;
};

template <typename A>
void serde(A& a, SubscriptionDeleteFailure& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
  a.field(m.cause);
}

/// RIC Indication: RAN function -> RIC. Carries the (already SM-encoded)
/// indication header + message — the "inner" encoding of E2's double
/// encoding.
struct Indication {
  static constexpr MsgType kType = MsgType::indication;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  std::uint8_t action_id = 0;
  std::uint32_t sn = 0;  ///< sequence number
  ActionType type = ActionType::report;  ///< report or insert
  Buffer header;
  Buffer message;
  std::optional<Buffer> call_process_id;
  bool operator==(const Indication&) const = default;
};

template <typename A>
void serde(A& a, Indication& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
  a.u8(m.action_id);
  a.u32(m.sn);
  a.ranged(m.type, 0, 2);  // ActionType::report..policy
  a.present(m.call_process_id);
  a.bytes(m.header);
  a.bytes(m.message);
  a.body(m.call_process_id);
}

/// RIC Control: RIC -> RAN function.
struct ControlRequest {
  static constexpr MsgType kType = MsgType::control_request;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  Buffer header;
  Buffer message;
  bool ack_requested = true;
  std::optional<Buffer> call_process_id;
  bool operator==(const ControlRequest&) const = default;
};

template <typename A>
void serde(A& a, ControlRequest& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
  a.boolean(m.ack_requested);
  a.present(m.call_process_id);
  a.bytes(m.header);
  a.bytes(m.message);
  a.body(m.call_process_id);
}

struct ControlAck {
  static constexpr MsgType kType = MsgType::control_ack;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  Buffer outcome;
  bool operator==(const ControlAck&) const = default;
};

template <typename A>
void serde(A& a, ControlAck& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
  a.bytes(m.outcome);
}

struct ControlFailure {
  static constexpr MsgType kType = MsgType::control_failure;
  RicRequestId request;
  std::uint16_t ran_function_id = 0;
  Cause cause;
  Buffer outcome;
  bool operator==(const ControlFailure&) const = default;
};

template <typename A>
void serde(A& a, ControlFailure& m) {
  a.field(m.request);
  a.ranged(m.ran_function_id, 0, kMaxRanFunctionId);
  a.field(m.cause);
  a.bytes(m.outcome);
}

/// The E2AP IR: exactly one procedure message.
using Msg = std::variant<
    SetupRequest, SetupResponse, SetupFailure, ResetRequest, ResetResponse,
    ErrorIndication, ServiceUpdate, ServiceUpdateAck, ServiceUpdateFailure,
    NodeConfigUpdate, NodeConfigUpdateAck, SubscriptionRequest,
    SubscriptionResponse, SubscriptionFailure, SubscriptionDeleteRequest,
    SubscriptionDeleteResponse, SubscriptionDeleteFailure, Indication,
    ControlRequest, ControlAck, ControlFailure>;

/// Runtime type tag of an IR message.
MsgType msg_type(const Msg& m) noexcept;

/// Default-constructed alternative I of Msg. The variant index equals the
/// MsgType tag, so the decoder picks the alternative by the tag it read.
template <std::size_t I>
inline Msg blank() {
  static_assert(
      static_cast<std::size_t>(std::variant_alternative_t<I, Msg>::kType) == I,
      "Msg alternatives must be in MsgType order");
  return Msg{std::in_place_index<I>};
}

template <std::size_t... I>
inline Msg blank_msg(MsgType t, std::index_sequence<I...>) {
  static constexpr Msg (*kBlank[])() = {&blank<I>...};
  return kBlank[static_cast<std::size_t>(t)]();
}

}  // namespace flexric::e2ap
