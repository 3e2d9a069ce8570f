// ASN.1-PER-style wire codec for the E2AP IR.
//
// Every message is: constrained msg-type tag, then the procedure's fields in
// IE order, using presence bits for optionals and length determinants for
// lists — the shape asn1c emits for the O-RAN E2AP module. Decode fully
// parses into the IR (this is the CPU cost §5.2/§5.3 measure for "ASN").
#include <algorithm>

#include "codec/per.hpp"
#include "e2ap/codec.hpp"

namespace flexric::e2ap {
namespace {

// Wire-taint hardening: every list count read off the wire is checked
// against the bits actually left in the frame before it is used as a loop
// bound. Each constant is the minimum PER bit cost of one list element
// (constrained fields at their bit widths, octet strings at one length
// octet), so a count that cannot possibly be satisfied by the remaining
// payload is rejected up front instead of being discovered element by
// element.
constexpr std::size_t kMinRanFunctionBits = 40;   // 12+12+len(8)+len(8)
constexpr std::size_t kMinU16Bits = 12;           // constrained(0,4095)
constexpr std::size_t kMinU16CauseBits = 22;      // 12+2+8
constexpr std::size_t kMinActionBits = 18;        // 8+2+len(8)
constexpr std::size_t kMinComponentBits = 16;     // len(8)+len(8)
constexpr std::size_t kMinComponentNameBits = 8;  // len(8)
constexpr std::size_t kMinAdmittedBits = 8;       // constrained(0,255)
constexpr std::size_t kMinNotAdmittedBits = 18;   // 8+2+8

// @coldpath error construction only; never runs on a well-formed frame
Error per_count_overflow(const char* what) {
  return Error{Errc::malformed,
               std::string(what) + " list count exceeds payload"};
}

// --------------------------- common IEs -----------------------------------

void enc(PerWriter& w, const GlobalNodeId& id) {
  w.constrained(id.plmn, 0, 0xFFFFFF);
  w.constrained(id.nb_id, 0, 0xFFFFFFF);  // 28-bit gNB id space
  w.enumerated(static_cast<std::uint32_t>(id.type), 4);
}

Result<GlobalNodeId> dec_node_id(PerReader& r) {
  GlobalNodeId id;
  auto plmn = r.constrained(0, 0xFFFFFF);
  if (!plmn) return plmn.error();
  id.plmn = static_cast<std::uint32_t>(*plmn);
  auto nb = r.constrained(0, 0xFFFFFFF);
  if (!nb) return nb.error();
  id.nb_id = static_cast<std::uint32_t>(*nb);
  auto t = r.enumerated(4);
  if (!t) return t.error();
  id.type = static_cast<NodeType>(*t);
  return id;
}

void enc(PerWriter& w, const Cause& c) {
  w.enumerated(static_cast<std::uint32_t>(c.group), 4);
  w.constrained(c.value, 0, 255);
}

Result<Cause> dec_cause(PerReader& r) {
  Cause c;
  auto g = r.enumerated(4);
  if (!g) return g.error();
  c.group = static_cast<Cause::Group>(*g);
  auto v = r.constrained(0, 255);
  if (!v) return v.error();
  c.value = static_cast<std::uint8_t>(*v);
  return c;
}

void enc(PerWriter& w, const RicRequestId& id) {
  w.constrained(id.requestor, 0, 65535);
  w.constrained(id.instance, 0, 65535);
}

Result<RicRequestId> dec_req_id(PerReader& r) {
  RicRequestId id;
  auto a = r.constrained(0, 65535);
  if (!a) return a.error();
  id.requestor = static_cast<std::uint16_t>(*a);
  auto b = r.constrained(0, 65535);
  if (!b) return b.error();
  id.instance = static_cast<std::uint16_t>(*b);
  return id;
}

void enc(PerWriter& w, const RanFunctionItem& f) {
  w.constrained(f.id, 0, 4095);
  w.constrained(f.revision, 0, 4095);
  w.str(f.name);
  w.octets(f.definition);
}

Result<RanFunctionItem> dec_ran_function(PerReader& r) {
  RanFunctionItem f;
  auto id = r.constrained(0, 4095);
  if (!id) return id.error();
  f.id = static_cast<std::uint16_t>(*id);
  auto rev = r.constrained(0, 4095);
  if (!rev) return rev.error();
  f.revision = static_cast<std::uint16_t>(*rev);
  auto name = r.str();
  if (!name) return name.error();
  f.name = std::move(*name);
  auto def = r.octets();
  if (!def) return def.error();
  f.definition = std::move(*def);
  return f;
}

void enc(PerWriter& w, const Action& a) {
  w.constrained(a.id, 0, 255);
  w.enumerated(static_cast<std::uint32_t>(a.type), 3);
  w.octets(a.definition);
}

Result<Action> dec_action(PerReader& r) {
  Action a;
  auto id = r.constrained(0, 255);
  if (!id) return id.error();
  a.id = static_cast<std::uint8_t>(*id);
  auto t = r.enumerated(3);
  if (!t) return t.error();
  a.type = static_cast<ActionType>(*t);
  auto def = r.octets();
  if (!def) return def.error();
  a.definition = std::move(*def);
  return a;
}

void enc_u16_cause_list(PerWriter& w,
                        const std::vector<std::pair<std::uint16_t, Cause>>& v) {
  w.length(v.size());
  for (const auto& [id, cause] : v) {
    w.constrained(id, 0, 4095);
    enc(w, cause);
  }
}

Result<std::vector<std::pair<std::uint16_t, Cause>>> dec_u16_cause_list(
    PerReader& r) {
  auto n = r.length();
  if (!n) return n.error();
  if (*n > r.bits_remaining() / kMinU16CauseBits)
    return per_count_overflow("u16-cause");
  std::vector<std::pair<std::uint16_t, Cause>> out;
  out.reserve(std::min<std::size_t>(*n, 4096));
  for (std::size_t i = 0; i < *n; ++i) {
    auto id = r.constrained(0, 4095);
    if (!id) return id.error();
    auto c = dec_cause(r);
    if (!c) return c.error();
    out.emplace_back(static_cast<std::uint16_t>(*id), *c);
  }
  return out;
}

void enc_u16_list(PerWriter& w, const std::vector<std::uint16_t>& v) {
  w.length(v.size());
  for (auto id : v) w.constrained(id, 0, 4095);
}

Result<std::vector<std::uint16_t>> dec_u16_list(PerReader& r) {
  auto n = r.length();
  if (!n) return n.error();
  if (*n > r.bits_remaining() / kMinU16Bits)
    return per_count_overflow("u16");
  std::vector<std::uint16_t> out;
  out.reserve(std::min<std::size_t>(*n, 4096));
  for (std::size_t i = 0; i < *n; ++i) {
    auto id = r.constrained(0, 4095);
    if (!id) return id.error();
    out.push_back(static_cast<std::uint16_t>(*id));
  }
  return out;
}

// --------------------------- per-procedure --------------------------------

void enc(PerWriter& w, const SetupRequest& m) {
  w.constrained(m.trans_id, 0, 255);
  enc(w, m.node);
  w.length(m.ran_functions.size());
  for (const auto& f : m.ran_functions) enc(w, f);
}

Result<Msg> dec_setup_request(PerReader& r) {
  SetupRequest m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  auto node = dec_node_id(r);
  if (!node) return node.error();
  m.node = *node;
  auto n = r.length();
  if (!n) return n.error();
  if (*n > r.bits_remaining() / kMinRanFunctionBits)
    return per_count_overflow("ran-function");
  m.ran_functions.reserve(std::min<std::size_t>(*n, 4096));
  for (std::size_t i = 0; i < *n; ++i) {
    auto f = dec_ran_function(r);
    if (!f) return f.error();
    m.ran_functions.push_back(std::move(*f));
  }
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const SetupResponse& m) {
  w.constrained(m.trans_id, 0, 255);
  w.constrained(m.ric_id, 0, 0xFFFFF);
  enc_u16_list(w, m.accepted);
  enc_u16_cause_list(w, m.rejected);
}

Result<Msg> dec_setup_response(PerReader& r) {
  SetupResponse m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  auto ric = r.constrained(0, 0xFFFFF);
  if (!ric) return ric.error();
  m.ric_id = static_cast<std::uint32_t>(*ric);
  auto acc = dec_u16_list(r);
  if (!acc) return acc.error();
  m.accepted = std::move(*acc);
  auto rej = dec_u16_cause_list(r);
  if (!rej) return rej.error();
  m.rejected = std::move(*rej);
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const SetupFailure& m) {
  w.constrained(m.trans_id, 0, 255);
  enc(w, m.cause);
}

Result<Msg> dec_setup_failure(PerReader& r) {
  SetupFailure m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  auto c = dec_cause(r);
  if (!c) return c.error();
  m.cause = *c;
  return Msg{m};
}

void enc(PerWriter& w, const ResetRequest& m) {
  w.constrained(m.trans_id, 0, 255);
  enc(w, m.cause);
}

Result<Msg> dec_reset_request(PerReader& r) {
  ResetRequest m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  auto c = dec_cause(r);
  if (!c) return c.error();
  m.cause = *c;
  return Msg{m};
}

void enc(PerWriter& w, const ResetResponse& m) {
  w.constrained(m.trans_id, 0, 255);
}

Result<Msg> dec_reset_response(PerReader& r) {
  ResetResponse m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  return Msg{m};
}

void enc(PerWriter& w, const ErrorIndication& m) {
  w.presence({m.request.has_value(), m.ran_function_id.has_value()});
  if (m.request) enc(w, *m.request);
  if (m.ran_function_id) w.constrained(*m.ran_function_id, 0, 4095);
  enc(w, m.cause);
}

Result<Msg> dec_error_indication(PerReader& r) {
  ErrorIndication m;
  auto pres = r.presence(2);
  if (!pres) return pres.error();
  if (*pres & 1) {
    auto id = dec_req_id(r);
    if (!id) return id.error();
    m.request = *id;
  }
  if (*pres & 2) {
    auto f = r.constrained(0, 4095);
    if (!f) return f.error();
    m.ran_function_id = static_cast<std::uint16_t>(*f);
  }
  auto c = dec_cause(r);
  if (!c) return c.error();
  m.cause = *c;
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const ServiceUpdate& m) {
  w.constrained(m.trans_id, 0, 255);
  w.length(m.added.size());
  for (const auto& f : m.added) enc(w, f);
  w.length(m.modified.size());
  for (const auto& f : m.modified) enc(w, f);
  enc_u16_list(w, m.removed);
}

Result<Msg> dec_service_update(PerReader& r) {
  ServiceUpdate m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  for (auto* list : {&m.added, &m.modified}) {
    auto n = r.length();
    if (!n) return n.error();
    if (*n > r.bits_remaining() / kMinRanFunctionBits)
      return per_count_overflow("service-update ran-function");
    list->reserve(std::min<std::size_t>(*n, 4096));
    for (std::size_t i = 0; i < *n; ++i) {
      auto f = dec_ran_function(r);
      if (!f) return f.error();
      list->push_back(std::move(*f));
    }
  }
  auto rem = dec_u16_list(r);
  if (!rem) return rem.error();
  m.removed = std::move(*rem);
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const ServiceUpdateAck& m) {
  w.constrained(m.trans_id, 0, 255);
  enc_u16_list(w, m.accepted);
  enc_u16_cause_list(w, m.rejected);
}

Result<Msg> dec_service_update_ack(PerReader& r) {
  ServiceUpdateAck m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  auto acc = dec_u16_list(r);
  if (!acc) return acc.error();
  m.accepted = std::move(*acc);
  auto rej = dec_u16_cause_list(r);
  if (!rej) return rej.error();
  m.rejected = std::move(*rej);
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const ServiceUpdateFailure& m) {
  w.constrained(m.trans_id, 0, 255);
  enc(w, m.cause);
}

Result<Msg> dec_service_update_failure(PerReader& r) {
  ServiceUpdateFailure m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  auto c = dec_cause(r);
  if (!c) return c.error();
  m.cause = *c;
  return Msg{m};
}

void enc(PerWriter& w, const NodeConfigUpdate& m) {
  w.constrained(m.trans_id, 0, 255);
  w.length(m.components.size());
  for (const auto& [name, cfg] : m.components) {
    w.str(name);
    w.octets(cfg);
  }
}

Result<Msg> dec_node_config_update(PerReader& r) {
  NodeConfigUpdate m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  auto n = r.length();
  if (!n) return n.error();
  if (*n > r.bits_remaining() / kMinComponentBits)
    return per_count_overflow("node-config component");
  m.components.reserve(std::min<std::size_t>(*n, 4096));
  for (std::size_t i = 0; i < *n; ++i) {
    auto name = r.str();
    if (!name) return name.error();
    auto cfg = r.octets();
    if (!cfg) return cfg.error();
    m.components.emplace_back(std::move(*name), std::move(*cfg));
  }
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const NodeConfigUpdateAck& m) {
  w.constrained(m.trans_id, 0, 255);
  w.length(m.accepted_components.size());
  for (const auto& name : m.accepted_components) w.str(name);
}

Result<Msg> dec_node_config_update_ack(PerReader& r) {
  NodeConfigUpdateAck m;
  auto t = r.constrained(0, 255);
  if (!t) return t.error();
  m.trans_id = static_cast<std::uint8_t>(*t);
  auto n = r.length();
  if (!n) return n.error();
  if (*n > r.bits_remaining() / kMinComponentNameBits)
    return per_count_overflow("accepted-component");
  m.accepted_components.reserve(std::min<std::size_t>(*n, 4096));
  for (std::size_t i = 0; i < *n; ++i) {
    auto name = r.str();
    if (!name) return name.error();
    m.accepted_components.push_back(std::move(*name));
  }
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const SubscriptionRequest& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
  w.octets(m.event_trigger);
  w.length(m.actions.size());
  for (const auto& a : m.actions) enc(w, a);
}

Result<Msg> dec_subscription_request(PerReader& r) {
  SubscriptionRequest m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  auto trig = r.octets();
  if (!trig) return trig.error();
  m.event_trigger = std::move(*trig);
  auto n = r.length();
  if (!n) return n.error();
  if (*n > r.bits_remaining() / kMinActionBits)
    return per_count_overflow("action");
  m.actions.reserve(std::min<std::size_t>(*n, 4096));
  for (std::size_t i = 0; i < *n; ++i) {
    auto a = dec_action(r);
    if (!a) return a.error();
    m.actions.push_back(std::move(*a));
  }
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const SubscriptionResponse& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
  w.length(m.admitted.size());
  for (auto id : m.admitted) w.constrained(id, 0, 255);
  w.length(m.not_admitted.size());
  for (const auto& [id, cause] : m.not_admitted) {
    w.constrained(id, 0, 255);
    enc(w, cause);
  }
}

Result<Msg> dec_subscription_response(PerReader& r) {
  SubscriptionResponse m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  auto n = r.length();
  if (!n) return n.error();
  if (*n > r.bits_remaining() / kMinAdmittedBits)
    return per_count_overflow("admitted-action");
  m.admitted.reserve(std::min<std::size_t>(*n, 4096));
  for (std::size_t i = 0; i < *n; ++i) {
    auto a = r.constrained(0, 255);
    if (!a) return a.error();
    m.admitted.push_back(static_cast<std::uint8_t>(*a));
  }
  auto nn = r.length();
  if (!nn) return nn.error();
  if (*nn > r.bits_remaining() / kMinNotAdmittedBits)
    return per_count_overflow("not-admitted-action");
  m.not_admitted.reserve(std::min<std::size_t>(*nn, 4096));
  for (std::size_t i = 0; i < *nn; ++i) {
    auto a = r.constrained(0, 255);
    if (!a) return a.error();
    auto c = dec_cause(r);
    if (!c) return c.error();
    m.not_admitted.emplace_back(static_cast<std::uint8_t>(*a), *c);
  }
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const SubscriptionFailure& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
  enc(w, m.cause);
}

Result<Msg> dec_subscription_failure(PerReader& r) {
  SubscriptionFailure m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  auto c = dec_cause(r);
  if (!c) return c.error();
  m.cause = *c;
  return Msg{m};
}

template <typename T>
void enc_sub_delete(PerWriter& w, const T& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
}

template <typename T>
Result<Msg> dec_sub_delete(PerReader& r) {
  T m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  return Msg{m};
}

void enc(PerWriter& w, const SubscriptionDeleteRequest& m) {
  enc_sub_delete(w, m);
}
void enc(PerWriter& w, const SubscriptionDeleteResponse& m) {
  enc_sub_delete(w, m);
}

void enc(PerWriter& w, const SubscriptionDeleteFailure& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
  enc(w, m.cause);
}

Result<Msg> dec_sub_delete_failure(PerReader& r) {
  SubscriptionDeleteFailure m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  auto c = dec_cause(r);
  if (!c) return c.error();
  m.cause = *c;
  return Msg{m};
}

void enc(PerWriter& w, const Indication& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
  w.constrained(m.action_id, 0, 255);
  w.constrained(m.sn, 0, 0xFFFFFFFF);
  w.enumerated(static_cast<std::uint32_t>(m.type), 3);
  w.presence({m.call_process_id.has_value()});
  w.octets(m.header);
  w.octets(m.message);
  if (m.call_process_id) w.octets(*m.call_process_id);
}

Result<Msg> dec_indication(PerReader& r) {
  Indication m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  auto a = r.constrained(0, 255);
  if (!a) return a.error();
  m.action_id = static_cast<std::uint8_t>(*a);
  auto sn = r.constrained(0, 0xFFFFFFFF);
  if (!sn) return sn.error();
  m.sn = static_cast<std::uint32_t>(*sn);
  auto t = r.enumerated(3);
  if (!t) return t.error();
  m.type = static_cast<ActionType>(*t);
  auto pres = r.presence(1);
  if (!pres) return pres.error();
  auto hdr = r.octets();
  if (!hdr) return hdr.error();
  m.header = std::move(*hdr);
  auto msg = r.octets();
  if (!msg) return msg.error();
  m.message = std::move(*msg);
  if (*pres & 1) {
    auto cpid = r.octets();
    if (!cpid) return cpid.error();
    m.call_process_id = std::move(*cpid);
  }
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const ControlRequest& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
  w.boolean(m.ack_requested);
  w.presence({m.call_process_id.has_value()});
  w.octets(m.header);
  w.octets(m.message);
  if (m.call_process_id) w.octets(*m.call_process_id);
}

Result<Msg> dec_control_request(PerReader& r) {
  ControlRequest m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  auto ack = r.boolean();
  if (!ack) return ack.error();
  m.ack_requested = *ack;
  auto pres = r.presence(1);
  if (!pres) return pres.error();
  auto hdr = r.octets();
  if (!hdr) return hdr.error();
  m.header = std::move(*hdr);
  auto msg = r.octets();
  if (!msg) return msg.error();
  m.message = std::move(*msg);
  if (*pres & 1) {
    auto cpid = r.octets();
    if (!cpid) return cpid.error();
    m.call_process_id = std::move(*cpid);
  }
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const ControlAck& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
  w.octets(m.outcome);
}

Result<Msg> dec_control_ack(PerReader& r) {
  ControlAck m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  auto out = r.octets();
  if (!out) return out.error();
  m.outcome = std::move(*out);
  return Msg{std::move(m)};
}

void enc(PerWriter& w, const ControlFailure& m) {
  enc(w, m.request);
  w.constrained(m.ran_function_id, 0, 4095);
  enc(w, m.cause);
  w.octets(m.outcome);
}

Result<Msg> dec_control_failure(PerReader& r) {
  ControlFailure m;
  auto id = dec_req_id(r);
  if (!id) return id.error();
  m.request = *id;
  auto f = r.constrained(0, 4095);
  if (!f) return f.error();
  m.ran_function_id = static_cast<std::uint16_t>(*f);
  auto c = dec_cause(r);
  if (!c) return c.error();
  m.cause = *c;
  auto out = r.octets();
  if (!out) return out.error();
  m.outcome = std::move(*out);
  return Msg{std::move(m)};
}

// --------------------------- codec object ---------------------------------

// @hotpath decode runs once per received frame (paper §5.3)
class PerCodec final : public Codec {
 public:
  [[nodiscard]] WireFormat format() const noexcept override {
    return WireFormat::per;
  }

  [[nodiscard]] Result<Buffer> encode(const Msg& m) const override {
    PerWriter w;
    w.constrained(static_cast<std::uint64_t>(msg_type(m)), 0,
                  kNumMsgTypes - 1);
    std::visit([&w](const auto& msg) { enc(w, msg); }, m);
    return w.take();
  }

  [[nodiscard]] Result<Msg> decode(BytesView wire) const override {
    PerReader r(wire);
    auto tag = r.constrained(0, kNumMsgTypes - 1);
    if (!tag) return tag.error();
    switch (static_cast<MsgType>(*tag)) {
      case MsgType::setup_request: return dec_setup_request(r);
      case MsgType::setup_response: return dec_setup_response(r);
      case MsgType::setup_failure: return dec_setup_failure(r);
      case MsgType::reset_request: return dec_reset_request(r);
      case MsgType::reset_response: return dec_reset_response(r);
      case MsgType::error_indication: return dec_error_indication(r);
      case MsgType::service_update: return dec_service_update(r);
      case MsgType::service_update_ack: return dec_service_update_ack(r);
      case MsgType::service_update_failure:
        return dec_service_update_failure(r);
      case MsgType::node_config_update: return dec_node_config_update(r);
      case MsgType::node_config_update_ack:
        return dec_node_config_update_ack(r);
      case MsgType::subscription_request: return dec_subscription_request(r);
      case MsgType::subscription_response: return dec_subscription_response(r);
      case MsgType::subscription_failure: return dec_subscription_failure(r);
      case MsgType::subscription_delete_request:
        return dec_sub_delete<SubscriptionDeleteRequest>(r);
      case MsgType::subscription_delete_response:
        return dec_sub_delete<SubscriptionDeleteResponse>(r);
      case MsgType::subscription_delete_failure:
        return dec_sub_delete_failure(r);
      case MsgType::indication: return dec_indication(r);
      case MsgType::control_request: return dec_control_request(r);
      case MsgType::control_ack: return dec_control_ack(r);
      case MsgType::control_failure: return dec_control_failure(r);
    }
    return Error{Errc::malformed, "unknown E2AP message type"};
  }

  [[nodiscard]] Result<MsgType> peek_type(BytesView wire) const override {
    PerReader r(wire);
    auto tag = r.constrained(0, kNumMsgTypes - 1);
    if (!tag) return tag.error();
    return static_cast<MsgType>(*tag);
  }
};

}  // namespace

const Codec& per_codec() {
  static const PerCodec c;
  return c;
}

}  // namespace flexric::e2ap
