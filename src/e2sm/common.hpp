// Shared E2SM building blocks: event triggers and RAN-function identity.
//
// Every SM in this SDK uses the same trigger grammar (periodic timer or
// on-event), mirroring E2SM-KPM's periodic reports and E2SM-NI's event
// inserts (Appendix A.4 of the paper).
#pragma once

#include <cstdint>
#include <string>

#include "codec/wire.hpp"
#include "common/buffer.hpp"
#include "e2ap/messages.hpp"
#include "e2sm/serde.hpp"

namespace flexric::e2sm {

enum class TriggerKind : std::uint8_t { periodic = 0, on_event };
constexpr TriggerKind enum_last(TriggerKind) { return TriggerKind::on_event; }

/// Event trigger carried in RICsubscriptionRequest (SM-encoded).
struct EventTrigger {
  TriggerKind kind = TriggerKind::periodic;
  std::uint32_t period_ms = 1000;  ///< for periodic triggers
  bool operator==(const EventTrigger&) const = default;
};

template <typename A>
void serde(A& a, EventTrigger& t) {
  a.enum8(t.kind);
  a.u32(t.period_ms);
}

/// Build the E2AP RanFunctionItem advertising an SM. The definition blob
/// carries the SM's supported wire formats so a controller can pick one.
template <typename Sm>
e2ap::RanFunctionItem make_ran_function() {
  e2ap::RanFunctionItem item;
  item.id = Sm::kId;
  item.revision = Sm::kRevision;
  item.name = Sm::kName;
  return item;
}

}  // namespace flexric::e2sm
