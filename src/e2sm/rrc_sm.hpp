// RRC event service model (monitoring, on-event).
//
// Notifies controllers about UE connection events with the selected PLMN and
// slice identifier (S-NSSAI). The slicing xApp (§6.1.2) uses these to
// discover the UE-to-service association; the infrastructure controller in
// the disaggregated scenario (Fig. 4) uses them to configure UE-to-controller
// associations on the DU agent.
#pragma once

#include <cstdint>

#include "e2sm/common.hpp"

namespace flexric::e2sm::rrc {

struct Sm {
  static constexpr std::uint16_t kId = 147;
  static constexpr std::uint16_t kRevision = 1;
  static constexpr const char* kName = "FLEXRIC-E2SM-RRC-CONF";
};

struct ActionDef {
  bool attach_events = true;
  bool detach_events = true;
  bool operator==(const ActionDef&) const = default;
};

template <typename A>
void serde(A& a, ActionDef& d) {
  a.boolean(d.attach_events);
  a.boolean(d.detach_events);
}

enum class EventKind : std::uint8_t { attach = 0, detach, reconfig };
constexpr EventKind enum_last(EventKind) { return EventKind::reconfig; }

struct IndicationHdr {
  std::uint64_t tstamp_ns = 0;
  std::uint32_t cell_id = 0;
  bool operator==(const IndicationHdr&) const = default;
};

template <typename A>
void serde(A& a, IndicationHdr& h) {
  a.u64(h.tstamp_ns);
  a.u32(h.cell_id);
}

/// One UE connection event.
struct IndicationMsg {
  EventKind kind = EventKind::attach;
  std::uint16_t rnti = 0;
  std::uint32_t plmn = 0;     ///< selected PLMN (packed MCC/MNC)
  std::uint32_t s_nssai = 0;  ///< slice identifier from the attach procedure
  bool operator==(const IndicationMsg&) const = default;
};

template <typename A>
void serde(A& a, IndicationMsg& m) {
  a.enum8(m.kind);
  a.u16(m.rnti);
  a.u32(m.plmn);
  a.u32(m.s_nssai);
}

}  // namespace flexric::e2sm::rrc
