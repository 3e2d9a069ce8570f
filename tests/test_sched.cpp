// MAC scheduler tests: UE schedulers, NVS slice scheduler properties
// (isolation, work conservation, capacity/rate equivalence, admission
// control), static partitioning, UE association.
#include <gtest/gtest.h>

#include <numeric>

#include "ran/sched.hpp"

namespace flexric::ran {
namespace {

using e2sm::slice::Algo;
using e2sm::slice::CtrlKind;
using e2sm::slice::CtrlMsg;
using e2sm::slice::NvsKind;
using e2sm::slice::SliceConf;
using e2sm::slice::UeSched;

CellConfig lte25() {
  CellConfig cfg;
  cfg.rat = Rat::lte;
  cfg.num_prbs = 25;
  cfg.default_mcs = 28;
  return cfg;
}

CellConfig nr106() {
  CellConfig cfg;
  cfg.rat = Rat::nr;
  cfg.num_prbs = 106;
  cfg.default_mcs = 20;
  return cfg;
}

SliceConf capacity_slice(std::uint32_t id, double share,
                         UeSched sched = UeSched::pf) {
  SliceConf c;
  c.id = id;
  c.label = "s" + std::to_string(id);
  c.ue_sched = sched;
  c.nvs.kind = NvsKind::capacity;
  c.nvs.capacity_share = share;
  return c;
}

SliceConf rate_slice(std::uint32_t id, double mbps, double ref_mbps) {
  SliceConf c;
  c.id = id;
  c.nvs.kind = NvsKind::rate;
  c.nvs.rate_mbps = mbps;
  c.nvs.ref_rate_mbps = ref_mbps;
  return c;
}

CtrlMsg add_slices(std::vector<SliceConf> slices) {
  CtrlMsg msg;
  msg.kind = CtrlKind::add_mod;
  msg.algo = Algo::nvs;
  msg.slices = std::move(slices);
  return msg;
}

CtrlMsg assoc(std::uint16_t rnti, std::uint32_t slice) {
  CtrlMsg msg;
  msg.kind = CtrlKind::assoc_ue;
  msg.assoc = {{rnti, slice}};
  return msg;
}

/// Run `ttis` scheduling rounds with all UEs backlogged; returns PRB share
/// per slice id.
std::map<std::uint32_t, double> run_saturated(
    MacScheduler& mac, const std::vector<UeInput>& ues, int ttis,
    std::uint32_t total_prbs) {
  std::map<std::uint32_t, std::uint64_t> prbs;
  for (int t = 0; t < ttis; ++t)
    for (const Alloc& a : mac.schedule(ues)) prbs[a.slice_id] += a.prbs;
  std::map<std::uint32_t, double> share;
  for (auto& [id, p] : prbs)
    share[id] = static_cast<double>(p) /
                (static_cast<double>(ttis) * total_prbs);
  return share;
}

// ---------------------------------------------------------------------------
// TBS / link tables
// ---------------------------------------------------------------------------

TEST(LinkTables, TbsMonotoneInMcsAndPrbs) {
  // 3GPP efficiency tables dip slightly at modulation-order switches
  // (e.g. 16QAM->64QAM); allow a 1 % tolerance there.
  for (std::uint8_t mcs = 1; mcs <= 28; ++mcs)
    EXPECT_GE(
        transport_block_bits(mcs, 25) * 100,
        transport_block_bits(static_cast<std::uint8_t>(mcs - 1), 25) * 99);
  for (std::uint32_t prbs = 2; prbs <= 106; ++prbs)
    EXPECT_GT(transport_block_bits(20, prbs),
              transport_block_bits(20, prbs - 1));
}

TEST(LinkTables, CellCapacityMatchesPaperScale) {
  // 25 PRBs @ MCS 28 ≈ 17-19 Mbps (Fig. 15 dashed line ~17 Mbps/eNB);
  // 106 PRBs @ MCS 20 ≈ 55-60+ Mbps (Fig. 13 cumulative ~60 Mbps).
  double lte = cell_capacity_mbps(lte25());
  EXPECT_GT(lte, 15.0);
  EXPECT_LT(lte, 21.0);
  double nr = cell_capacity_mbps(nr106());
  EXPECT_GT(nr, 50.0);
  EXPECT_LT(nr, 65.0);
}

TEST(LinkTables, CqiToMcsMonotone) {
  for (std::uint8_t cqi = 2; cqi <= 15; ++cqi)
    EXPECT_GE(cqi_to_mcs(cqi), cqi_to_mcs(static_cast<std::uint8_t>(cqi - 1)));
  EXPECT_EQ(cqi_to_mcs(15), 28);
}

// ---------------------------------------------------------------------------
// UE schedulers
// ---------------------------------------------------------------------------

TEST(UeSchedulers, RrSplitsEvenly) {
  auto sched = make_ue_scheduler(UeSched::rr);
  std::vector<UeInput> ues = {{1, 28, 10000}, {2, 28, 10000}, {3, 28, 10000}};
  std::map<std::uint16_t, std::uint64_t> prbs;
  for (int t = 0; t < 300; ++t) {
    std::vector<Alloc> out;
    sched->allocate(ues, 25, 0, out);
    std::uint32_t total = 0;
    for (const auto& a : out) {
      prbs[a.rnti] += a.prbs;
      total += a.prbs;
    }
    EXPECT_EQ(total, 25u);  // work conserving
  }
  // 25/3: each UE within 1% of 1/3 over many TTIs (remainder rotates).
  for (auto& [rnti, p] : prbs)
    EXPECT_NEAR(static_cast<double>(p) / (300.0 * 25.0), 1.0 / 3, 0.01);
}

TEST(UeSchedulers, PfEqualRatesGetEqualResources) {
  auto sched = make_ue_scheduler(UeSched::pf);
  std::vector<UeInput> ues = {{1, 20, 10000}, {2, 20, 10000}};
  std::map<std::uint16_t, std::uint64_t> prbs;
  for (int t = 0; t < 500; ++t) {
    std::vector<Alloc> out;
    sched->allocate(ues, 106, 0, out);
    for (const auto& a : out) prbs[a.rnti] += a.prbs;
  }
  double share1 = static_cast<double>(prbs[1]) / (500.0 * 106.0);
  EXPECT_NEAR(share1, 0.5, 0.05);
}

TEST(UeSchedulers, PfNoPrbWasted) {
  auto sched = make_ue_scheduler(UeSched::pf);
  std::vector<UeInput> ues = {{1, 28, 1}, {2, 10, 1}, {3, 5, 1}};
  std::vector<Alloc> out;
  sched->allocate(ues, 25, 0, out);
  std::uint32_t total = 0;
  for (const auto& a : out) total += a.prbs;
  EXPECT_EQ(total, 25u);
}

TEST(UeSchedulers, MtPicksBestMcs) {
  auto sched = make_ue_scheduler(UeSched::mt);
  std::vector<UeInput> ues = {{1, 10, 100}, {2, 28, 100}, {3, 15, 100}};
  std::vector<Alloc> out;
  sched->allocate(ues, 25, 0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rnti, 2);
  EXPECT_EQ(out[0].prbs, 25u);
}

TEST(UeSchedulers, EmptyInputsYieldNothing) {
  for (auto kind : {UeSched::rr, UeSched::pf, UeSched::mt}) {
    auto sched = make_ue_scheduler(kind);
    std::vector<Alloc> out;
    sched->allocate({}, 25, 0, out);
    EXPECT_TRUE(out.empty());
    std::vector<UeInput> ues = {{1, 28, 100}};
    sched->allocate(ues, 0, 0, out);
    EXPECT_TRUE(out.empty());
  }
}

// ---------------------------------------------------------------------------
// NVS slice scheduler
// ---------------------------------------------------------------------------

TEST(Nvs, CapacitySlicesAttainConfiguredShares) {
  MacScheduler mac(nr106());
  mac.add_ue(1);
  mac.add_ue(2);
  ASSERT_TRUE(
      mac.apply(add_slices({capacity_slice(1, 0.66), capacity_slice(2, 0.34)}))
          .is_ok());
  ASSERT_TRUE(mac.apply(assoc(1, 1)).is_ok());
  ASSERT_TRUE(mac.apply(assoc(2, 2)).is_ok());
  std::vector<UeInput> ues = {{1, 20, 1 << 20}, {2, 20, 1 << 20}};
  auto share = run_saturated(mac, ues, 5000, 106);
  EXPECT_NEAR(share[1], 0.66, 0.03);
  EXPECT_NEAR(share[2], 0.34, 0.03);
}

TEST(Nvs, IsolationNewUeCannotStealFromSlicedUe) {
  // Fig. 13a: the white UE keeps 50 % despite a third UE arriving.
  MacScheduler mac(nr106());
  for (std::uint16_t rnti : {1, 2, 3}) mac.add_ue(rnti);
  (void)mac.apply(add_slices({capacity_slice(1, 0.5), capacity_slice(2, 0.5)}));
  (void)mac.apply(assoc(1, 1));
  (void)mac.apply(assoc(2, 2));
  (void)mac.apply(assoc(3, 2));  // the arriving UE joins slice 2
  std::vector<UeInput> ues = {{1, 20, 1 << 20}, {2, 20, 1 << 20},
                              {3, 20, 1 << 20}};
  auto share = run_saturated(mac, ues, 5000, 106);
  EXPECT_NEAR(share[1], 0.5, 0.03);  // slice 1 unaffected
  EXPECT_NEAR(share[2], 0.5, 0.03);
}

TEST(Nvs, WorkConservationIdleSliceYieldsResources) {
  // Fig. 13b: when the 34 % slice is inactive, the 66 % slice takes all.
  MacScheduler mac(nr106());
  mac.add_ue(1);
  mac.add_ue(2);
  (void)mac.apply(add_slices({capacity_slice(1, 0.66), capacity_slice(2, 0.34)}));
  (void)mac.apply(assoc(1, 1));
  (void)mac.apply(assoc(2, 2));
  std::vector<UeInput> ues = {{1, 20, 1 << 20}, {2, 20, 0}};  // slice 2 idle
  auto share = run_saturated(mac, ues, 2000, 106);
  EXPECT_NEAR(share[1], 1.0, 0.02);
  EXPECT_EQ(share.count(2), 0u);
}

TEST(Nvs, RateSliceEquivalentToCapacitySlice) {
  // NVS: a rate slice r/r_ref is equivalent to a capacity slice r/r_ref.
  MacScheduler mac(nr106());
  mac.add_ue(1);
  mac.add_ue(2);
  // 30 Mbps over 60 Mbps reference = 50 % share; capacity slice 50 %.
  (void)mac.apply(add_slices(
      {rate_slice(1, 30.0, 60.0), capacity_slice(2, 0.5)}));
  (void)mac.apply(assoc(1, 1));
  (void)mac.apply(assoc(2, 2));
  std::vector<UeInput> ues = {{1, 20, 1 << 20}, {2, 20, 1 << 20}};
  auto share = run_saturated(mac, ues, 8000, 106);
  EXPECT_NEAR(share[1], 0.5, 0.08);
  EXPECT_NEAR(share[2], 0.5, 0.08);
}

TEST(Nvs, AdmissionControlRejectsOverload) {
  MacScheduler mac(nr106());
  auto st = mac.apply(
      add_slices({capacity_slice(1, 0.7), capacity_slice(2, 0.4)}));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::rejected);
  EXPECT_EQ(mac.num_slices(), 1u);  // only the default slice
}

TEST(Nvs, AdmissionCountsRateSlices) {
  MacScheduler mac(nr106());
  // 0.6 capacity + 30/60 rate = 1.1 > 1 → reject.
  auto st = mac.apply(
      add_slices({capacity_slice(1, 0.6), rate_slice(2, 30.0, 60.0)}));
  EXPECT_FALSE(st.is_ok());
  // 0.5 + 0.5 exactly fits.
  EXPECT_TRUE(mac.apply(add_slices({capacity_slice(1, 0.5),
                                    rate_slice(2, 30.0, 60.0)}))
                  .is_ok());
}

TEST(Nvs, ModifyingSliceReplacesItsShareInAdmission) {
  MacScheduler mac(nr106());
  ASSERT_TRUE(mac.apply(add_slices({capacity_slice(1, 0.9)})).is_ok());
  // Re-configuring slice 1 down to 0.5 and adding 0.5 must be admissible.
  EXPECT_TRUE(
      mac.apply(add_slices({capacity_slice(1, 0.5), capacity_slice(2, 0.5)}))
          .is_ok());
  // But slice 1 at 0.9 plus new 0.2 is not.
  EXPECT_FALSE(
      mac.apply(add_slices({capacity_slice(1, 0.9), capacity_slice(3, 0.2)}))
          .is_ok());
}

TEST(Nvs, DeleteSliceReassociatesUesToDefault) {
  MacScheduler mac(nr106());
  mac.add_ue(1);
  (void)mac.apply(add_slices({capacity_slice(1, 0.5)}));
  (void)mac.apply(assoc(1, 1));
  EXPECT_EQ(mac.slice_of(1), 1u);
  CtrlMsg del;
  del.kind = CtrlKind::del;
  del.del_ids = {1};
  ASSERT_TRUE(mac.apply(del).is_ok());
  EXPECT_EQ(mac.slice_of(1), 0u);
}

TEST(Nvs, DefaultSliceCannotBeDeleted) {
  MacScheduler mac(nr106());
  CtrlMsg del;
  del.kind = CtrlKind::del;
  del.del_ids = {0};
  EXPECT_FALSE(mac.apply(del).is_ok());
}

TEST(Nvs, UnknownAlgorithmIsRejectedAndCellKeepsScheduling) {
  // E2SM enums are not range-checked on decode, so a peer can send any
  // algorithm byte; storing it would leave schedule() matching no case.
  MacScheduler mac(nr106());
  mac.add_ue(1);
  CtrlMsg bad = add_slices({capacity_slice(1, 0.5)});
  bad.algo = static_cast<Algo>(7);
  auto st = mac.apply(bad);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::unsupported);
  std::vector<UeInput> ues = {{1, 20, 1 << 20}};
  std::uint32_t prbs = 0;
  for (const Alloc& a : mac.schedule(ues)) prbs += a.prbs;
  EXPECT_GT(prbs, 0u);
}

TEST(Nvs, AssocToUnknownSliceFails) {
  MacScheduler mac(nr106());
  mac.add_ue(1);
  EXPECT_FALSE(mac.apply(assoc(1, 42)).is_ok());
}

TEST(Nvs, UnassociatedUesServedWhenSlicesIdle) {
  MacScheduler mac(nr106());
  mac.add_ue(1);  // stays in default slice
  mac.add_ue(2);
  (void)mac.apply(add_slices({capacity_slice(1, 0.5)}));
  (void)mac.apply(assoc(2, 1));
  // Slice 1 idle: default-slice UE 1 gets the cell.
  std::vector<UeInput> ues = {{1, 20, 1 << 20}, {2, 20, 0}};
  auto share = run_saturated(mac, ues, 500, 106);
  EXPECT_NEAR(share[0], 1.0, 0.01);
}

// ---------------------------------------------------------------------------
// Other algorithms
// ---------------------------------------------------------------------------

TEST(AlgoNone, AllUesShareCellEqually) {
  MacScheduler mac(nr106());
  for (std::uint16_t rnti : {1, 2, 3}) mac.add_ue(rnti);
  std::vector<UeInput> ues = {{1, 20, 1 << 20}, {2, 20, 1 << 20},
                              {3, 20, 1 << 20}};
  std::map<std::uint16_t, std::uint64_t> prbs;
  for (int t = 0; t < 1000; ++t)
    for (const Alloc& a : mac.schedule(ues)) prbs[a.rnti] += a.prbs;
  for (auto& [rnti, p] : prbs)
    EXPECT_NEAR(static_cast<double>(p) / (1000.0 * 106.0), 1.0 / 3, 0.05);
}

TEST(StaticRb, PartitionIsRespectedAndNotShared) {
  MacScheduler mac(lte25());
  mac.add_ue(1);
  mac.add_ue(2);
  CtrlMsg msg;
  msg.kind = CtrlKind::add_mod;
  msg.algo = Algo::static_rb;
  SliceConf s1 = capacity_slice(1, 0);
  s1.static_rb = {0, 15};
  SliceConf s2 = capacity_slice(2, 0);
  s2.static_rb = {15, 10};
  msg.slices = {s1, s2};
  ASSERT_TRUE(mac.apply(msg).is_ok());
  (void)mac.apply(assoc(1, 1));
  (void)mac.apply(assoc(2, 2));
  // Slice 2 idle: static partitioning wastes its PRBs (no sharing).
  std::vector<UeInput> ues = {{1, 28, 1 << 20}, {2, 28, 0}};
  auto share = run_saturated(mac, ues, 200, 25);
  EXPECT_NEAR(share[1], 15.0 / 25.0, 0.01);
  EXPECT_EQ(share.count(2), 0u);
}

TEST(StaticRb, OversizedPartitionRejected) {
  MacScheduler mac(lte25());
  CtrlMsg msg;
  msg.kind = CtrlKind::add_mod;
  msg.algo = Algo::static_rb;
  SliceConf s1;
  s1.id = 1;
  s1.static_rb = {0, 20};
  SliceConf s2;
  s2.id = 2;
  s2.static_rb = {20, 10};  // 30 > 25 PRBs
  msg.slices = {s1, s2};
  EXPECT_FALSE(mac.apply(msg).is_ok());
}

// ---------------------------------------------------------------------------
// Status report
// ---------------------------------------------------------------------------

TEST(SliceStatus, ReportsSharesAndAssociations) {
  MacScheduler mac(nr106());
  mac.add_ue(1);
  mac.add_ue(2);
  (void)mac.apply(add_slices({capacity_slice(1, 0.75), capacity_slice(2, 0.25)}));
  (void)mac.apply(assoc(1, 1));
  (void)mac.apply(assoc(2, 2));
  std::vector<UeInput> ues = {{1, 20, 1 << 20}, {2, 20, 1 << 20}};
  for (int t = 0; t < 2000; ++t) mac.schedule(ues);

  auto report = mac.status_report(/*reset_period=*/true);
  EXPECT_EQ(report.algo, Algo::nvs);
  ASSERT_EQ(report.slices.size(), 3u);  // default + 2
  double used1 = 0, used2 = 0;
  for (const auto& s : report.slices) {
    if (s.conf.id == 1) used1 = s.prb_share_used;
    if (s.conf.id == 2) used2 = s.prb_share_used;
  }
  EXPECT_NEAR(used1, 0.75, 0.05);
  EXPECT_NEAR(used2, 0.25, 0.05);
  EXPECT_EQ(report.assoc.size(), 2u);

  // After reset, a fresh report shows zero usage.
  auto fresh = mac.status_report(false);
  for (const auto& s : fresh.slices) EXPECT_EQ(s.prb_share_used, 0.0);
}

}  // namespace
}  // namespace flexric::ran
