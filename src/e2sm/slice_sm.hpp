// Slice control service model (SC SM, §6.1.2).
//
// Abstracts the slice configuration of the MAC scheduler in a RAT-agnostic
// way: a slice *algorithm* (the slice scheduler) plus a list of slices with
// algorithm-specific parameters (each selecting a UE scheduler). The same SM
// drives the 4G and 5G simulator cells, and the virtualization layer (§6.2)
// rewrites its NVS parameters between virtual and physical representations
// (Appendix B).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "e2sm/common.hpp"

namespace flexric::e2sm::slice {

struct Sm {
  static constexpr std::uint16_t kId = 145;
  static constexpr std::uint16_t kRevision = 1;
  static constexpr const char* kName = "FLEXRIC-E2SM-SLICE-CTRL";
};

struct ActionDef {  // subscription = periodic slice status reports
  bool operator==(const ActionDef&) const = default;
  std::uint8_t reserved = 0;
};

template <typename A>
void serde(A& a, ActionDef& d) {
  a.u8(d.reserved);
}

/// Slice-scheduler algorithm. `none` removes slicing (plain UE scheduling).
enum class Algo : std::uint8_t { none = 0, static_rb, nvs };
constexpr Algo enum_last(Algo) { return Algo::nvs; }

/// Per-slice UE scheduler.
enum class UeSched : std::uint8_t { rr = 0, pf, mt };
constexpr UeSched enum_last(UeSched) { return UeSched::mt; }

/// NVS slice parameterization [Kokku et al., ToN 2012]: either a capacity
/// slice (fraction of resources) or a rate slice (reserved rate over a
/// reference rate). Appendix B of the paper shows both are equivalent and
/// how the virtualization layer rescales them.
enum class NvsKind : std::uint8_t { capacity = 0, rate };
constexpr NvsKind enum_last(NvsKind) { return NvsKind::rate; }

struct NvsParams {
  NvsKind kind = NvsKind::capacity;
  double capacity_share = 0.0;  ///< [0,1], capacity slices
  double rate_mbps = 0.0;       ///< reserved rate, rate slices
  double ref_rate_mbps = 0.0;   ///< reference rate, rate slices
  bool operator==(const NvsParams&) const = default;
};

template <typename A>
void serde(A& a, NvsParams& p) {
  a.enum8(p.kind);
  a.f64(p.capacity_share);
  a.f64(p.rate_mbps);
  a.f64(p.ref_rate_mbps);
}

/// Static resource-block partition parameters.
struct StaticParams {
  std::uint32_t rb_start = 0;
  std::uint32_t rb_count = 0;
  bool operator==(const StaticParams&) const = default;
};

template <typename A>
void serde(A& a, StaticParams& p) {
  a.u32(p.rb_start);
  a.u32(p.rb_count);
}

/// One slice: id, label, UE scheduler and the parameters of the active
/// algorithm (the non-selected parameter set is ignored).
struct SliceConf {
  std::uint32_t id = 0;
  std::string label;
  UeSched ue_sched = UeSched::pf;
  NvsParams nvs;
  StaticParams static_rb;
  bool operator==(const SliceConf&) const = default;
};

template <typename A>
void serde(A& a, SliceConf& s) {
  a.u32(s.id);
  a.str(s.label);
  a.enum8(s.ue_sched);
  a.field(s.nvs);
  a.field(s.static_rb);
}

struct UeSliceAssoc {
  std::uint16_t rnti = 0;
  std::uint32_t slice_id = 0;
  bool operator==(const UeSliceAssoc&) const = default;
};

template <typename A>
void serde(A& a, UeSliceAssoc& u) {
  a.u16(u.rnti);
  a.u32(u.slice_id);
}

/// Control message kinds (E2SM CHOICE realized as a tagged struct).
enum class CtrlKind : std::uint8_t { add_mod = 0, del, assoc_ue };
constexpr CtrlKind enum_last(CtrlKind) { return CtrlKind::assoc_ue; }

/// RIC Control payload for the SC SM.
struct CtrlMsg {
  CtrlKind kind = CtrlKind::add_mod;
  Algo algo = Algo::nvs;                 ///< for add_mod
  std::vector<SliceConf> slices;         ///< for add_mod
  std::vector<std::uint32_t> del_ids;    ///< for del
  std::vector<UeSliceAssoc> assoc;       ///< for assoc_ue
  bool operator==(const CtrlMsg&) const = default;
};

template <typename A>
void serde(A& a, CtrlMsg& m) {
  a.enum8(m.kind);
  a.enum8(m.algo);
  a.vec(m.slices);
  a.vec(m.del_ids);
  a.vec(m.assoc);
}

/// Control outcome returned in RICcontrolAcknowledge.
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

/// Periodic slice status report.
struct SliceStatus {
  SliceConf conf;
  double prb_share_used = 0.0;  ///< delivered share over the last period
  std::uint32_t num_ues = 0;
  bool operator==(const SliceStatus&) const = default;
};

template <typename A>
void serde(A& a, SliceStatus& s) {
  a.field(s.conf);
  a.f64(s.prb_share_used);
  a.u32(s.num_ues);
}

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

struct IndicationMsg {
  Algo algo = Algo::none;
  std::vector<SliceStatus> slices;
  std::vector<UeSliceAssoc> assoc;
  bool operator==(const IndicationMsg&) const = default;
};

template <typename A>
void serde(A& a, IndicationMsg& m) {
  a.enum8(m.algo);
  a.vec(m.slices);
  a.vec(m.assoc);
}

}  // namespace flexric::e2sm::slice
