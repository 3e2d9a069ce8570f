#include "ran/sched.hpp"

#include <algorithm>
#include <cmath>

namespace flexric::ran {

using e2sm::slice::Algo;
using e2sm::slice::CtrlKind;
using e2sm::slice::NvsKind;
using e2sm::slice::UeSched;

// ---------------------------------------------------------------------------
// UE schedulers
// ---------------------------------------------------------------------------

namespace {

/// Round robin: equal PRBs, remainder rotates with a persistent cursor.
class RrScheduler final : public UeScheduler {
 public:
  void allocate(const std::vector<UeInput>& ues, std::uint32_t prbs,
                std::uint32_t slice_id, std::vector<Alloc>& out) override {
    if (ues.empty() || prbs == 0) return;
    std::uint32_t n = static_cast<std::uint32_t>(ues.size());
    std::uint32_t base = prbs / n;
    std::uint32_t extra = prbs % n;
    for (std::uint32_t i = 0; i < n; ++i) {
      const UeInput& ue = ues[(cursor_ + i) % n];
      std::uint32_t grant = base + (i < extra ? 1 : 0);
      if (grant == 0) continue;
      out.push_back({ue.rnti, grant,
                     transport_block_bits(ue.mcs, grant) / 8, slice_id});
    }
    cursor_ = (cursor_ + 1) % n;
  }

 private:
  std::uint32_t cursor_ = 0;
};

/// Proportional fair: weight = instantaneous rate / average served rate.
/// PRBs are split proportionally to weights; averages update with the
/// delivered amounts (classic PF in its resource-share form, which equally
/// splits resources between UEs at equal average rates — the behaviour the
/// paper's Fig. 13 relies on).
class PfScheduler final : public UeScheduler {
 public:
  void allocate(const std::vector<UeInput>& ues, std::uint32_t prbs,
                std::uint32_t slice_id, std::vector<Alloc>& out) override {
    if (ues.empty() || prbs == 0) return;
    std::vector<double> weight(ues.size());
    double total = 0.0;
    for (std::size_t i = 0; i < ues.size(); ++i) {
      double inst = mcs_efficiency(ues[i].mcs);
      double& avg = avg_rate_[ues[i].rnti];
      if (avg <= 0.0) avg = inst * 0.01;  // bootstrap
      weight[i] = inst / avg;
      total += weight[i];
    }
    std::uint32_t assigned = 0;
    for (std::size_t i = 0; i < ues.size(); ++i) {
      std::uint32_t grant = static_cast<std::uint32_t>(
          std::floor(static_cast<double>(prbs) * weight[i] / total));
      if (i == ues.size() - 1) grant = prbs - assigned;  // no PRB wasted
      grant = std::min(grant, prbs - assigned);
      assigned += grant;
      std::uint32_t tb = transport_block_bits(ues[i].mcs, grant) / 8;
      if (grant > 0)
        out.push_back({ues[i].rnti, grant, tb, slice_id});
      // EWMA update (also for zero grants, so starved UEs gain priority)
      double served = static_cast<double>(grant) * mcs_efficiency(ues[i].mcs);
      double& avg = avg_rate_[ues[i].rnti];
      avg = (1.0 - kAlpha) * avg + kAlpha * served;
    }
  }

 private:
  static constexpr double kAlpha = 0.05;
  std::map<std::uint16_t, double> avg_rate_;
};

/// Max throughput: the UE with the best MCS takes everything.
class MtScheduler final : public UeScheduler {
 public:
  void allocate(const std::vector<UeInput>& ues, std::uint32_t prbs,
                std::uint32_t slice_id, std::vector<Alloc>& out) override {
    if (ues.empty() || prbs == 0) return;
    const UeInput* best = &ues.front();
    for (const auto& ue : ues)
      if (ue.mcs > best->mcs) best = &ue;
    out.push_back({best->rnti, prbs,
                   transport_block_bits(best->mcs, prbs) / 8, slice_id});
  }
};

}  // namespace

std::unique_ptr<UeScheduler> make_ue_scheduler(UeSched kind) {
  switch (kind) {
    case UeSched::rr: return std::make_unique<RrScheduler>();
    case UeSched::pf: return std::make_unique<PfScheduler>();
    case UeSched::mt: return std::make_unique<MtScheduler>();
  }
  return std::make_unique<PfScheduler>();
}

// ---------------------------------------------------------------------------
// MacScheduler
// ---------------------------------------------------------------------------

MacScheduler::MacScheduler(const CellConfig& cfg) : cfg_(cfg) {
  // Slice 0: the default slice holding unassociated UEs. Under `none` it is
  // the whole cell; under NVS it competes with whatever share is left
  // implicit (target share 0 -> only scheduled when others idle).
  SliceRuntime def;
  def.conf.id = 0;
  def.conf.label = "default";
  def.conf.ue_sched = UeSched::pf;
  def.conf.nvs.kind = NvsKind::capacity;
  def.conf.nvs.capacity_share = 1.0;
  def.ue_sched = make_ue_scheduler(UeSched::pf);
  slices_.emplace(0u, std::move(def));
}

MacScheduler::SliceRuntime& MacScheduler::default_slice() {
  return slices_.at(0);
}

double MacScheduler::admission_load(
    const std::vector<e2sm::slice::SliceConf>& upserts,
    const std::vector<std::uint32_t>& removals) const {
  double load = 0.0;
  auto contribution = [](const e2sm::slice::SliceConf& c) {
    if (c.nvs.kind == NvsKind::capacity) return c.nvs.capacity_share;
    if (c.nvs.ref_rate_mbps <= 0.0) return 1.0;  // malformed: max load
    return c.nvs.rate_mbps / c.nvs.ref_rate_mbps;
  };
  for (const auto& [id, s] : slices_) {
    if (id == 0) continue;  // default slice does not count against NVS
    bool removed = std::find(removals.begin(), removals.end(), id) !=
                   removals.end();
    bool replaced = std::any_of(upserts.begin(), upserts.end(),
                                [&](const auto& c) { return c.id == id; });
    if (!removed && !replaced) load += contribution(s.conf);
  }
  for (const auto& c : upserts)
    if (c.id != 0) load += contribution(c);
  return load;
}

Status MacScheduler::apply(const e2sm::slice::CtrlMsg& msg) {
  switch (msg.kind) {
    case CtrlKind::add_mod: {
      // A wire enum is not range-checked on decode; an unknown algorithm
      // would match no case in schedule() and starve the cell.
      if (msg.algo > Algo::nvs)
        return {Errc::unsupported, "unknown slice algorithm"};
      // NVS admission control: Σ c_s + Σ r_rsv/r_ref <= 1.
      if (msg.algo == Algo::nvs &&
          admission_load(msg.slices, {}) > 1.0 + 1e-9)
        return {Errc::rejected, "NVS admission control: total share > 1"};
      if (msg.algo == Algo::static_rb) {
        std::uint64_t total = 0;
        for (const auto& c : msg.slices) total += c.static_rb.rb_count;
        if (total > cfg_.num_prbs)
          return {Errc::rejected, "static partition exceeds cell PRBs"};
      }
      algo_ = msg.algo;
      for (const auto& c : msg.slices) {
        auto it = slices_.find(c.id);
        if (it == slices_.end()) {
          SliceRuntime s;
          s.conf = c;
          s.ue_sched = make_ue_scheduler(c.ue_sched);
          slices_.emplace(c.id, std::move(s));
        } else {
          bool sched_changed = it->second.conf.ue_sched != c.ue_sched;
          it->second.conf = c;
          if (sched_changed)
            it->second.ue_sched = make_ue_scheduler(c.ue_sched);
        }
      }
      return Status::ok();
    }
    case CtrlKind::del: {
      for (std::uint32_t id : msg.del_ids) {
        if (id == 0) return {Errc::rejected, "default slice is permanent"};
        auto it = slices_.find(id);
        if (it == slices_.end()) continue;
        // Orphaned UEs fall back to the default slice.
        for (std::uint16_t rnti : it->second.ues) {
          ue_slice_[rnti] = 0;
          default_slice().ues.insert(rnti);
        }
        slices_.erase(it);
      }
      return Status::ok();
    }
    case CtrlKind::assoc_ue: {
      for (const auto& a : msg.assoc) {
        if (slices_.count(a.slice_id) == 0)
          return {Errc::not_found, "slice does not exist"};
        auto cur = ue_slice_.find(a.rnti);
        if (cur != ue_slice_.end())
          slices_.at(cur->second).ues.erase(a.rnti);
        ue_slice_[a.rnti] = a.slice_id;
        slices_.at(a.slice_id).ues.insert(a.rnti);
      }
      return Status::ok();
    }
  }
  return {Errc::unsupported, "unknown slice control kind"};
}

void MacScheduler::add_ue(std::uint16_t rnti) {
  if (ue_slice_.count(rnti) > 0) return;
  ue_slice_[rnti] = 0;
  default_slice().ues.insert(rnti);
}

void MacScheduler::remove_ue(std::uint16_t rnti) {
  auto it = ue_slice_.find(rnti);
  if (it == ue_slice_.end()) return;
  slices_.at(it->second).ues.erase(rnti);
  ue_slice_.erase(it);
}

std::uint32_t MacScheduler::slice_of(std::uint16_t rnti) const {
  auto it = ue_slice_.find(rnti);
  return it == ue_slice_.end() ? 0 : it->second;
}

double MacScheduler::nvs_weight(const SliceRuntime& s) {
  // NVS weight: target resource share over attained resource share; the
  // slice with the largest ratio wins the subframe. Rate slices map to the
  // effective share r_rsv/r_ref — NVS shows both slice types are equivalent
  // under this normalization (the property Appendix B's virtualization
  // relies on).
  constexpr double kEps = 1e-6;
  double target = s.conf.nvs.kind == NvsKind::capacity
                      ? s.conf.nvs.capacity_share
                      : (s.conf.nvs.ref_rate_mbps > 0
                             ? s.conf.nvs.rate_mbps / s.conf.nvs.ref_rate_mbps
                             : 1.0);
  return target / std::max(s.attained, kEps);
}

void MacScheduler::schedule_slice(SliceRuntime& s,
                                  const std::vector<UeInput>& ues,
                                  std::uint32_t prbs,
                                  std::vector<Alloc>& out) {
  std::vector<UeInput> mine;
  for (const auto& ue : ues)
    if (ue.backlog_bytes > 0 && s.ues.count(ue.rnti) > 0) mine.push_back(ue);
  if (mine.empty()) return;
  std::size_t before = out.size();
  s.ue_sched->allocate(mine, prbs, s.conf.id, out);
  for (std::size_t i = before; i < out.size(); ++i)
    s.period_prbs += out[i].prbs;
}

std::vector<Alloc> MacScheduler::schedule(const std::vector<UeInput>& ues) {
  std::vector<Alloc> out;
  period_total_prbs_ += cfg_.num_prbs;

  auto has_backlog = [&](const SliceRuntime& s) {
    return std::any_of(ues.begin(), ues.end(), [&](const UeInput& ue) {
      return ue.backlog_bytes > 0 && s.ues.count(ue.rnti) > 0;
    });
  };

  switch (algo_) {
    case Algo::none: {
      // No slicing: every UE competes in the default scheduler. UEs
      // associated with (inactive) slices still need service, so pool them.
      std::vector<UeInput> active;
      for (const auto& ue : ues)
        if (ue.backlog_bytes > 0) active.push_back(ue);
      if (!active.empty()) {
        SliceRuntime& def = default_slice();
        std::size_t before = out.size();
        def.ue_sched->allocate(active, cfg_.num_prbs, 0, out);
        for (std::size_t i = before; i < out.size(); ++i)
          def.period_prbs += out[i].prbs;
      }
      break;
    }
    case Algo::static_rb: {
      for (auto& [id, s] : slices_) {
        if (id == 0) continue;
        schedule_slice(s, ues, s.conf.static_rb.rb_count, out);
      }
      break;
    }
    case Algo::nvs: {
      // One slice wins the whole subframe (NVS operates at subframe
      // granularity); EWMA attainment updates for every slice. The default
      // slice (unassociated UEs) competes with the residual share
      // 1 - Σ configured, so configuring slices never starves the rest of
      // the cell — the property Fig. 15's "operator B unaffected" relies on.
      default_slice().conf.nvs.kind = NvsKind::capacity;
      default_slice().conf.nvs.capacity_share =
          std::max(0.01, 1.0 - admission_load({}, {}));
      SliceRuntime* winner = nullptr;
      double best = -1.0;
      for (auto& [id, s] : slices_) {
        if (!has_backlog(s)) continue;
        double w = nvs_weight(s);
        if (w > best) {
          best = w;
          winner = &s;
        }
      }
      if (winner != nullptr) {
        schedule_slice(*winner, ues, cfg_.num_prbs, out);
        winner->period_ttis_scheduled++;
      }
      double tti_s = static_cast<double>(cfg_.tti) /
                     static_cast<double>(kSecond);
      for (auto& [id, s] : slices_) {
        double got = (&s == winner) ? 1.0 : 0.0;
        s.attained = (1.0 - kEwma) * s.attained + kEwma * got;
        double mbps = 0.0;
        if (&s == winner) {
          std::uint64_t bytes = 0;
          for (const auto& a : out)
            if (a.slice_id == id) bytes += a.tb_bytes;
          mbps = static_cast<double>(bytes) * 8.0 / 1e6 / tti_s;
        }
        s.attained_rate = (1.0 - kEwma) * s.attained_rate + kEwma * mbps;
      }
      break;
    }
  }
  return out;
}

e2sm::slice::IndicationMsg MacScheduler::status_report(bool reset_period) {
  e2sm::slice::IndicationMsg msg;
  msg.algo = algo_;
  for (auto& [id, s] : slices_) {
    e2sm::slice::SliceStatus st;
    st.conf = s.conf;
    st.prb_share_used =
        period_total_prbs_ > 0
            ? static_cast<double>(s.period_prbs) /
                  static_cast<double>(period_total_prbs_)
            : 0.0;
    st.num_ues = static_cast<std::uint32_t>(s.ues.size());
    msg.slices.push_back(std::move(st));
    for (std::uint16_t rnti : s.ues) msg.assoc.push_back({rnti, id});
  }
  if (reset_period) {
    for (auto& [id, s] : slices_) s.period_prbs = 0;
    period_total_prbs_ = 0;
  }
  return msg;
}

}  // namespace flexric::ran
