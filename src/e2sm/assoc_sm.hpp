// UE-to-controller association service model (paper §4.1.2, Fig. 4).
//
// In disaggregated deployments the agent "cannot infer" which UEs belong to
// which specialized controller (the selected PLMN is decoded in the CU, the
// DU only sees RNTIs). This SM lets an infrastructure controller configure
// the UE-to-controller association at an agent, so a connecting UE becomes
// visible to the right specialized controller.
#pragma once

#include <cstdint>

#include "e2sm/common.hpp"

namespace flexric::e2sm::assoc {

struct Sm {
  static constexpr std::uint16_t kId = 151;
  static constexpr std::uint16_t kRevision = 1;
  static constexpr const char* kName = "FLEXRIC-E2SM-UE-ASSOC";
};

enum class CtrlKind : std::uint8_t { associate = 0, dissociate };
constexpr CtrlKind enum_last(CtrlKind) { return CtrlKind::dissociate; }

/// Control: expose (or hide) `rnti` to the agent-local controller with
/// index `controller_index` (the order in which controllers connected to
/// the agent; 0 = the primary controller, which always sees every UE).
struct CtrlMsg {
  CtrlKind kind = CtrlKind::associate;
  std::uint16_t rnti = 0;
  std::uint32_t controller_index = 0;
  bool operator==(const CtrlMsg&) const = default;
};

template <typename A>
void serde(A& a, CtrlMsg& m) {
  a.enum8(m.kind);
  a.u16(m.rnti);
  a.u32(m.controller_index);
}

struct CtrlOutcome {
  bool success = true;
  std::string diagnostic;
  bool operator==(const CtrlOutcome&) const = default;
};

template <typename A>
void serde(A& a, CtrlOutcome& o) {
  a.boolean(o.success);
  a.str(o.diagnostic);
}

}  // namespace flexric::e2sm::assoc
