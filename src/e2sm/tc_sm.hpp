// Traffic control service model (TC SM, §6.1.1).
//
// Abstracts flow configuration inside the RAN the way OpenFlow abstracts
// flows in a switch: a classifier segregates packets into queues, a queue
// scheduler serves them, and a pacer limits the rate into the RLC DRB
// buffer. All four elements are runtime-reconfigurable through this SM —
// the bufferbloat experiment (Fig. 11) installs a second FIFO queue, a
// 5-tuple filter and a 5G-BDP pacer on the fly.
#pragma once

#include <cstdint>
#include <vector>

#include "e2sm/common.hpp"

namespace flexric::e2sm::tc {

struct Sm {
  static constexpr std::uint16_t kId = 146;
  static constexpr std::uint16_t kRevision = 1;
  static constexpr const char* kName = "FLEXRIC-E2SM-TC-CTRL";
};

struct ActionDef {  // subscription = periodic queue statistics
  bool operator==(const ActionDef&) const = default;
  std::uint8_t reserved = 0;
};

template <typename A>
void serde(A& a, ActionDef& d) {
  a.u8(d.reserved);
}

/// POLICY action definition (Appendix A.3 of the paper: "policies are
/// predefined operations that the RAN function should execute upon a
/// trigger"). Installed via a subscription with ActionType::policy: when a
/// bearer's RLC sojourn exceeds `sojourn_limit_ms`, the RAN function itself
/// applies the anti-bufferbloat pacer — no controller round-trip, for
/// deployments where even the xApp loop is too slow.
struct PolicyDef {
  double sojourn_limit_ms = 50.0;
  double pacer_target_ms = 5.0;
  bool operator==(const PolicyDef&) const = default;
};

template <typename A>
void serde(A& a, PolicyDef& p) {
  a.f64(p.sojourn_limit_ms);
  a.f64(p.pacer_target_ms);
}

enum class QueueKind : std::uint8_t { fifo = 0, codel };
enum class SchedKind : std::uint8_t { rr = 0, prio, wrr };
enum class PacerKind : std::uint8_t { none = 0, bdp };
constexpr QueueKind enum_last(QueueKind) { return QueueKind::codel; }
constexpr SchedKind enum_last(SchedKind) { return SchedKind::wrr; }
constexpr PacerKind enum_last(PacerKind) { return PacerKind::bdp; }

/// 5-tuple classifier match (exact match; 0 = wildcard).
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;  ///< IPPROTO_UDP/TCP; 0 = any
  bool operator==(const FiveTuple&) const = default;
};

template <typename A>
void serde(A& a, FiveTuple& t) {
  a.u32(t.src_ip);
  a.u32(t.dst_ip);
  a.u16(t.src_port);
  a.u16(t.dst_port);
  a.u8(t.proto);
}

struct QueueConf {
  std::uint32_t qid = 0;
  QueueKind kind = QueueKind::fifo;
  std::uint32_t limit_bytes = 2 * 1024 * 1024;
  bool operator==(const QueueConf&) const = default;
};

template <typename A>
void serde(A& a, QueueConf& q) {
  a.u32(q.qid);
  a.enum8(q.kind);
  a.u32(q.limit_bytes);
}

struct FilterConf {
  std::uint32_t filter_id = 0;
  FiveTuple match;
  std::uint32_t dst_qid = 0;
  std::uint8_t precedence = 0;  ///< lower matches first
  bool operator==(const FilterConf&) const = default;
};

template <typename A>
void serde(A& a, FilterConf& f) {
  a.u32(f.filter_id);
  a.field(f.match);
  a.u32(f.dst_qid);
  a.u8(f.precedence);
}

struct SchedConf {
  SchedKind kind = SchedKind::rr;
  std::vector<std::uint32_t> weights;  ///< per-queue weights for wrr/prio
  bool operator==(const SchedConf&) const = default;
};

template <typename A>
void serde(A& a, SchedConf& s) {
  a.enum8(s.kind);
  a.vec(s.weights);
}

/// Pacer parameters. The 5G-BDP pacer targets `target_ms` of queueing in the
/// downstream RLC buffer: it releases just enough bytes to keep the link
/// busy without bloating the DRB queue (Irazabal et al., IEEE Access 2021).
struct PacerConf {
  PacerKind kind = PacerKind::none;
  double target_ms = 5.0;
  double gain = 1.0;  ///< aggressiveness of rate adaptation
  bool operator==(const PacerConf&) const = default;
};

template <typename A>
void serde(A& a, PacerConf& p) {
  a.enum8(p.kind);
  a.f64(p.target_ms);
  a.f64(p.gain);
}

enum class CtrlKind : std::uint8_t {
  add_queue = 0,
  del_queue,
  add_filter,
  del_filter,
  sched_conf,
  pacer_conf,
};
constexpr CtrlKind enum_last(CtrlKind) { return CtrlKind::pacer_conf; }

/// RIC Control payload for the TC SM (tagged union as tagged struct).
struct CtrlMsg {
  CtrlKind kind = CtrlKind::add_queue;
  std::uint16_t rnti = 0;   ///< target UE
  std::uint8_t drb_id = 1;  ///< target bearer
  QueueConf queue;          ///< add_queue
  std::uint32_t del_id = 0; ///< del_queue / del_filter
  FilterConf filter;        ///< add_filter
  SchedConf sched;          ///< sched_conf
  PacerConf pacer;          ///< pacer_conf
  bool operator==(const CtrlMsg&) const = default;
};

template <typename A>
void serde(A& a, CtrlMsg& m) {
  a.enum8(m.kind);
  a.u16(m.rnti);
  a.u8(m.drb_id);
  a.field(m.queue);
  a.u32(m.del_id);
  a.field(m.filter);
  a.field(m.sched);
  a.field(m.pacer);
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

/// Per-queue statistics for one reporting period.
struct QueueStats {
  std::uint32_t qid = 0;
  std::uint32_t backlog_bytes = 0;
  std::uint32_t backlog_pkts = 0;
  double sojourn_avg_ms = 0.0;
  double sojourn_max_ms = 0.0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_pkts = 0;
  std::uint64_t dropped_pkts = 0;
  bool operator==(const QueueStats&) const = default;
};

template <typename A>
void serde(A& a, QueueStats& s) {
  a.u32(s.qid);
  a.u32(s.backlog_bytes);
  a.u32(s.backlog_pkts);
  a.f64(s.sojourn_avg_ms);
  a.f64(s.sojourn_max_ms);
  a.u64(s.tx_bytes);
  a.u64(s.tx_pkts);
  a.u64(s.dropped_pkts);
}

struct IndicationHdr {
  std::uint64_t tstamp_ns = 0;
  std::uint16_t rnti = 0;
  std::uint8_t drb_id = 0;
  bool operator==(const IndicationHdr&) const = default;
};

template <typename A>
void serde(A& a, IndicationHdr& h) {
  a.u64(h.tstamp_ns);
  a.u16(h.rnti);
  a.u8(h.drb_id);
}

struct IndicationMsg {
  std::vector<QueueStats> queues;
  double pacer_rate_mbps = 0.0;  ///< current pacing rate (0 = unpaced)
  bool operator==(const IndicationMsg&) const = default;
};

template <typename A>
void serde(A& a, IndicationMsg& m) {
  a.vec(m.queues);
  a.f64(m.pacer_rate_mbps);
}

}  // namespace flexric::e2sm::tc
