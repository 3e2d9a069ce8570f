#include "ran/base_station.hpp"

#include <algorithm>

namespace flexric::ran {

BaseStation::BaseStation(CellConfig cfg, std::uint64_t seed)
    : cfg_(cfg), mac_(cfg), rng_(seed) {}

Status BaseStation::attach_ue(const UeConfig& ue_cfg) {
  if (ues_.count(ue_cfg.rnti) > 0)
    return {Errc::already_exists, "rnti in use"};
  UeCtx ctx{ue_cfg, ChannelModel(ue_cfg.initial_cqi, rng_.next()), {}, 0, 0,
            0, 0, 0};
  auto [it, inserted] = ues_.emplace(ue_cfg.rnti, std::move(ctx));
  get_or_create_bearer(it->second, ue_cfg.rnti, 1);  // default DRB 1
  mac_.add_ue(ue_cfg.rnti);
  if (on_rrc_) {
    e2sm::rrc::IndicationMsg ev;
    ev.kind = e2sm::rrc::EventKind::attach;
    ev.rnti = ue_cfg.rnti;
    ev.plmn = ue_cfg.plmn;
    ev.s_nssai = ue_cfg.s_nssai;
    on_rrc_(ev);
  }
  return Status::ok();
}

Status BaseStation::detach_ue(std::uint16_t rnti) {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return {Errc::not_found, "unknown rnti"};
  std::uint32_t plmn = it->second.cfg.plmn;
  std::uint32_t s_nssai = it->second.cfg.s_nssai;
  ues_.erase(it);
  mac_.remove_ue(rnti);
  if (on_rrc_) {
    e2sm::rrc::IndicationMsg ev;
    ev.kind = e2sm::rrc::EventKind::detach;
    ev.rnti = rnti;
    ev.plmn = plmn;
    ev.s_nssai = s_nssai;
    on_rrc_(ev);
  }
  return Status::ok();
}

std::vector<std::uint16_t> BaseStation::ues() const {
  std::vector<std::uint16_t> out;
  out.reserve(ues_.size());
  for (const auto& [rnti, ue] : ues_) out.push_back(rnti);
  return out;
}

BaseStation::Bearer& BaseStation::get_or_create_bearer(UeCtx& ue,
                                                        std::uint16_t rnti,
                                                        std::uint8_t drb) {
  auto bit = ue.bearers.find(drb);
  if (bit == ue.bearers.end()) {
    bit = ue.bearers.try_emplace(drb).first;
    bit->second.tc.set_drop_handler([this, rnti](const Packet& p) {
      if (on_drop_) on_drop_(rnti, p);
    });
  }
  return bit->second;
}

bool BaseStation::deliver_downlink(std::uint16_t rnti, std::uint8_t drb,
                                   Packet p) {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return false;
  Bearer& b = get_or_create_bearer(it->second, rnti, drb);
  Packet pdu = b.pdcp.process_tx(p);
  bool accepted = b.tc.enqueue(pdu, now_);
  if (!accepted) b.pdcp.discard();
  return accepted;
}

tc::TcChain* BaseStation::tc_chain(std::uint16_t rnti, std::uint8_t drb) {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return nullptr;
  auto bit = it->second.bearers.find(drb);
  if (bit == it->second.bearers.end()) return nullptr;
  return &bit->second.tc;
}

double BaseStation::rlc_head_sojourn_ms(std::uint16_t rnti,
                                        std::uint8_t drb) const {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return 0.0;
  auto bit = it->second.bearers.find(drb);
  if (bit == it->second.bearers.end()) return 0.0;
  return bit->second.rlc.head_sojourn_ms(now_);
}

std::uint8_t BaseStation::current_mcs(const UeCtx& ue) const {
  if (ue.cfg.fixed_mcs) return *ue.cfg.fixed_mcs;
  if (cfg_.vary_channel) return cqi_to_mcs(ue.channel.cqi());
  return cfg_.default_mcs;
}

void BaseStation::tick(Nanos now) {
  now_ = now;
  cell_period_ttis_++;

  // 1. Channel evolution.
  if (cfg_.vary_channel)
    for (auto& [rnti, ue] : ues_) ue.channel.step();

  // 2. TC chains release packets towards the RLC buffers (pacing point).
  for (auto& [rnti, ue] : ues_)
    for (auto& [drb, b] : ue.bearers)
      b.tc.drain(b.rlc, now, b.service_rate_mbps);

  // 3. MAC scheduling over RLC occupancy.
  std::vector<UeInput> inputs;
  inputs.reserve(ues_.size());
  for (auto& [rnti, ue] : ues_) {
    std::uint32_t backlog = 0;
    for (auto& [drb, b] : ue.bearers) backlog += b.rlc.buffer_bytes();
    std::uint8_t mcs = current_mcs(ue);
    ue.last_mcs = mcs;
    inputs.push_back({rnti, mcs, backlog});
  }
  std::vector<Alloc> allocs = mac_.schedule(inputs);

  // 4. Serve grants: drain RLC queues, deliver packets over the air.
  double tti_s =
      static_cast<double>(cfg_.tti) / static_cast<double>(kSecond);
  for (const Alloc& a : allocs) {
    UeCtx& ue = ues_.at(a.rnti);
    ue.period_prbs += a.prbs;
    std::uint32_t grant = a.tb_bytes;
    std::uint64_t served_total = 0;
    for (auto& [drb, b] : ue.bearers) {
      if (grant == 0) break;
      std::uint32_t used = 0;
      std::vector<Packet> done = b.rlc.pull(grant, now, &used);
      grant -= used;
      served_total += used;
      b.period_bytes += used;
      for (const Packet& p : done)
        if (on_delivery_) on_delivery_(a.rnti, p, now);
    }
    ue.period_bytes += served_total;
    ue.probe_bytes += served_total;
    cell_period_bytes_ += served_total;
    cell_period_prbs_ += a.prbs;
    // HARQ model: sparse retransmissions proportional to served traffic.
    if (served_total > 0 && rng_.chance(0.02)) ue.period_harq_retx++;
  }

  // 5. Per-bearer service-rate EWMA (feeds the BDP pacer).
  constexpr double kAlpha = 0.05;
  for (auto& [rnti, ue] : ues_) {
    for (auto& [drb, b] : ue.bearers) {
      double mbps =
          static_cast<double>(b.period_bytes) * 8.0 / 1e6 / tti_s;
      b.service_rate_mbps =
          (1.0 - kAlpha) * b.service_rate_mbps + kAlpha * mbps;
      b.period_bytes = 0;
    }
  }
}

e2sm::mac::IndicationMsg BaseStation::mac_stats(
    bool include_harq, const std::vector<std::uint16_t>& filter) {
  e2sm::mac::IndicationMsg msg;
  for (auto& [rnti, ue] : ues_) {
    if (!filter.empty() &&
        std::find(filter.begin(), filter.end(), rnti) == filter.end())
      continue;
    e2sm::mac::UeStats s;
    s.rnti = rnti;
    s.cqi = ue.channel.cqi();
    s.mcs_dl = ue.last_mcs;
    s.mcs_ul = ue.last_mcs;
    s.prbs_dl = ue.period_prbs;
    s.bytes_dl = ue.period_bytes;
    std::uint32_t backlog = 0;
    for (auto& [drb, b] : ue.bearers)
      backlog += b.rlc.buffer_bytes() + b.tc.backlog_bytes();
    s.bsr = backlog;
    s.phr_db = 20;
    s.slice_id = mac_.slice_of(rnti);
    if (include_harq) s.harq_retx = ue.period_harq_retx;
    msg.ues.push_back(s);
    ue.period_prbs = 0;
    ue.period_bytes = 0;
    ue.period_harq_retx = 0;
  }
  return msg;
}

e2sm::rlc::IndicationMsg BaseStation::rlc_stats(
    const std::vector<std::uint16_t>& filter) {
  e2sm::rlc::IndicationMsg msg;
  for (auto& [rnti, ue] : ues_) {
    if (!filter.empty() &&
        std::find(filter.begin(), filter.end(), rnti) == filter.end())
      continue;
    for (auto& [drb, b] : ue.bearers) {
      e2sm::rlc::BearerStats s;
      s.rnti = rnti;
      s.drb_id = drb;
      const auto& st = b.rlc.stats();
      s.tx_bytes = st.tx_bytes;
      s.rx_bytes = st.rx_bytes;
      s.tx_pdus = st.tx_pdus;
      s.rx_sdus = st.rx_sdus;
      s.buffer_bytes = b.rlc.buffer_bytes();
      s.buffer_pkts = b.rlc.buffer_pkts();
      b.rlc.snapshot_period(&s.sojourn_avg_ms, &s.sojourn_max_ms);
      // Head-of-line sojourn dominates when nothing was dequeued.
      s.sojourn_max_ms =
          std::max(s.sojourn_max_ms, b.rlc.head_sojourn_ms(now_));
      s.dropped_sdus = st.dropped_sdus;
      msg.bearers.push_back(s);
    }
  }
  return msg;
}

e2sm::pdcp::IndicationMsg BaseStation::pdcp_stats(
    const std::vector<std::uint16_t>& filter) {
  e2sm::pdcp::IndicationMsg msg;
  for (auto& [rnti, ue] : ues_) {
    if (!filter.empty() &&
        std::find(filter.begin(), filter.end(), rnti) == filter.end())
      continue;
    for (auto& [drb, b] : ue.bearers) {
      e2sm::pdcp::BearerStats s;
      s.rnti = rnti;
      s.drb_id = drb;
      const auto& st = b.pdcp.stats();
      s.tx_sdu_bytes = st.tx_sdu_bytes;
      s.tx_pdu_bytes = st.tx_pdu_bytes;
      s.rx_sdu_bytes = st.rx_sdu_bytes;
      s.rx_pdu_bytes = st.rx_pdu_bytes;
      s.tx_sdus = st.tx_sdus;
      s.tx_pdus = st.tx_pdus;
      s.rx_sdus = st.rx_sdus;
      s.rx_pdus = st.rx_pdus;
      s.discarded_sdus = st.discarded_sdus;
      msg.bearers.push_back(s);
    }
  }
  return msg;
}

e2sm::kpm::IndicationMsg BaseStation::kpm_stats() {
  e2sm::kpm::IndicationMsg msg;
  double window_s = static_cast<double>(cell_period_ttis_) *
                    static_cast<double>(cfg_.tti) /
                    static_cast<double>(kSecond);
  double thp = window_s > 0 ? static_cast<double>(cell_period_bytes_) * 8.0 /
                                  1e6 / window_s
                            : 0.0;
  double prb_util =
      cell_period_ttis_ > 0
          ? static_cast<double>(cell_period_prbs_) /
                (static_cast<double>(cell_period_ttis_) * cfg_.num_prbs)
          : 0.0;
  msg.metrics.push_back({e2sm::kpm::kThroughputDlMbps, thp});
  msg.metrics.push_back({e2sm::kpm::kThroughputUlMbps, 0.0});
  msg.metrics.push_back({e2sm::kpm::kPrbUtilizationDl, prb_util});
  msg.metrics.push_back(
      {e2sm::kpm::kActiveUes, static_cast<double>(ues_.size())});
  cell_period_bytes_ = 0;
  cell_period_prbs_ = 0;
  cell_period_ttis_ = 0;
  return msg;
}

double BaseStation::ue_throughput_mbps(std::uint16_t rnti, Nanos window,
                                       bool reset) {
  auto it = ues_.find(rnti);
  if (it == ues_.end() || window <= 0) return 0.0;
  double mbps = static_cast<double>(it->second.probe_bytes) * 8.0 / 1e6 /
                (static_cast<double>(window) / static_cast<double>(kSecond));
  if (reset) it->second.probe_bytes = 0;
  return mbps;
}

}  // namespace flexric::ran
