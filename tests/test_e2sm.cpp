// Service-model payload tests: every SM message round-trips through all
// three wire formats derived from its single serde() declaration.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "e2sm/common.hpp"
#include "e2sm/hw_sm.hpp"
#include "e2sm/kpm_sm.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "e2sm/rrc_sm.hpp"
#include "e2sm/slice_sm.hpp"
#include "e2sm/tc_sm.hpp"

namespace flexric::e2sm {
namespace {

const WireFormat kAllFormats[] = {WireFormat::per, WireFormat::flat,
                                  WireFormat::proto};

template <typename T>
void expect_roundtrip(const T& msg) {
  for (WireFormat f : kAllFormats) {
    Buffer wire = sm_encode(msg, f);
    auto decoded = sm_decode<T>(wire, f);
    ASSERT_TRUE(decoded.is_ok())
        << "format " << wire_format_name(f) << ": "
        << decoded.error().to_string();
    EXPECT_EQ(*decoded, msg) << "format " << wire_format_name(f);
  }
}

class SmFormats : public ::testing::TestWithParam<WireFormat> {};
INSTANTIATE_TEST_SUITE_P(Formats, SmFormats,
                         ::testing::ValuesIn(kAllFormats),
                         [](const auto& param_info) {
                           return std::string(
                               wire_format_name(param_info.param));
                         });

// ---------------------------------------------------------------------------
// Common
// ---------------------------------------------------------------------------

TEST(SmCommon, EventTriggerRoundTrip) {
  expect_roundtrip(EventTrigger{TriggerKind::periodic, 1});
  expect_roundtrip(EventTrigger{TriggerKind::on_event, 0});
}

TEST(SmCommon, RanFunctionDescriptors) {
  auto item = make_ran_function<mac::Sm>();
  EXPECT_EQ(item.id, 142);
  EXPECT_EQ(item.name, "FLEXRIC-E2SM-MAC-STATS");
  EXPECT_EQ(make_ran_function<slice::Sm>().id, 145);
  EXPECT_EQ(make_ran_function<tc::Sm>().id, 146);
  EXPECT_EQ(make_ran_function<hw::Sm>().id, 150);
}

TEST(SmCommon, SmIdsAreUnique) {
  std::set<std::uint16_t> ids{mac::Sm::kId,  rlc::Sm::kId, pdcp::Sm::kId,
                              slice::Sm::kId, tc::Sm::kId,  rrc::Sm::kId,
                              kpm::Sm::kId,  hw::Sm::kId};
  EXPECT_EQ(ids.size(), 8u);
}

// ---------------------------------------------------------------------------
// MAC / RLC / PDCP / KPM monitoring SMs
// ---------------------------------------------------------------------------

mac::IndicationMsg sample_mac(int n_ues) {
  mac::IndicationMsg msg;
  for (int i = 0; i < n_ues; ++i) {
    mac::UeStats s;
    s.rnti = static_cast<std::uint16_t>(100 + i);
    s.cqi = 15;
    s.mcs_dl = 28;
    s.prbs_dl = 25;
    s.bytes_dl = 1'000'000 + static_cast<std::uint64_t>(i);
    s.bsr = 4096;
    s.phr_db = -3;
    s.slice_id = static_cast<std::uint32_t>(i % 3);
    s.harq_retx = 2;
    msg.ues.push_back(s);
  }
  return msg;
}

TEST(MacSm, IndicationRoundTrip) { expect_roundtrip(sample_mac(4)); }
TEST(MacSm, EmptyIndication) { expect_roundtrip(mac::IndicationMsg{}); }
TEST(MacSm, Header) {
  expect_roundtrip(mac::IndicationHdr{123456789, 7});
}
TEST(MacSm, ActionDefWithFilter) {
  mac::ActionDef def;
  def.include_harq = true;
  def.rnti_filter = {100, 101, 102};
  expect_roundtrip(def);
}

TEST(RlcSm, IndicationRoundTrip) {
  rlc::IndicationMsg msg;
  rlc::BearerStats b;
  b.rnti = 55;
  b.drb_id = 1;
  b.tx_bytes = 1ULL << 33;
  b.buffer_bytes = 2'000'000;
  b.sojourn_avg_ms = 153.7;
  b.sojourn_max_ms = 412.9;
  b.dropped_sdus = 12;
  msg.bearers.push_back(b);
  expect_roundtrip(msg);
}

TEST(PdcpSm, IndicationRoundTrip) {
  pdcp::IndicationMsg msg;
  pdcp::BearerStats b;
  b.rnti = 55;
  b.drb_id = 2;
  b.tx_sdu_bytes = 123456;
  b.tx_pdu_bytes = 123456 + 3 * 100;
  b.tx_sdus = 100;
  b.discarded_sdus = 1;
  msg.bearers.push_back(b);
  expect_roundtrip(msg);
}

TEST(KpmSm, MetricsRoundTrip) {
  kpm::IndicationMsg msg;
  msg.metrics.push_back({kpm::kThroughputDlMbps, 57.3});
  msg.metrics.push_back({kpm::kPrbUtilizationDl, 0.98});
  msg.metrics.push_back({kpm::kActiveUes, 3});
  expect_roundtrip(msg);
  expect_roundtrip(kpm::IndicationHdr{1, 2, 100});
  kpm::ActionDef def;
  def.metric_names = {kpm::kThroughputDlMbps};
  expect_roundtrip(def);
}

// ---------------------------------------------------------------------------
// RRC / HW
// ---------------------------------------------------------------------------

TEST(RrcSm, EventRoundTrip) {
  rrc::IndicationMsg ev;
  ev.kind = rrc::EventKind::attach;
  ev.rnti = 70;
  ev.plmn = 20899;
  ev.s_nssai = 0x010203;
  expect_roundtrip(ev);
  ev.kind = rrc::EventKind::detach;
  expect_roundtrip(ev);
  expect_roundtrip(rrc::ActionDef{true, false});
}

TEST(HwSm, PingPongRoundTrip) {
  hw::Ping ping;
  ping.seq = 42;
  ping.sent_ns = 1'000'000'007;
  ping.payload = Buffer(1500, 0x7E);
  expect_roundtrip(ping);
  hw::Pong pong;
  pong.seq = 42;
  pong.ping_sent_ns = ping.sent_ns;
  pong.payload = ping.payload;
  expect_roundtrip(pong);
}

TEST(HwSm, PayloadSizesOfThePaper) {
  // 100 B and 1500 B payloads (§5.2).
  for (std::size_t size : {100u, 1500u}) {
    hw::Ping ping;
    ping.payload = Buffer(size, 0x11);
    expect_roundtrip(ping);
  }
}

// ---------------------------------------------------------------------------
// Slice SM
// ---------------------------------------------------------------------------

slice::CtrlMsg sample_slice_ctrl() {
  slice::CtrlMsg msg;
  msg.kind = slice::CtrlKind::add_mod;
  msg.algo = slice::Algo::nvs;
  slice::SliceConf s1;
  s1.id = 1;
  s1.label = "embb";
  s1.ue_sched = slice::UeSched::pf;
  s1.nvs = {slice::NvsKind::capacity, 0.66, 0, 0};
  slice::SliceConf s2;
  s2.id = 2;
  s2.label = "urllc";
  s2.ue_sched = slice::UeSched::rr;
  s2.nvs = {slice::NvsKind::rate, 0, 5.0, 50.0};
  msg.slices = {s1, s2};
  return msg;
}

TEST(SliceSm, CtrlAddModRoundTrip) { expect_roundtrip(sample_slice_ctrl()); }

TEST(SliceSm, CtrlDeleteAndAssocRoundTrip) {
  slice::CtrlMsg del;
  del.kind = slice::CtrlKind::del;
  del.del_ids = {1, 2, 3};
  expect_roundtrip(del);
  slice::CtrlMsg assoc;
  assoc.kind = slice::CtrlKind::assoc_ue;
  assoc.assoc = {{100, 1}, {101, 2}};
  expect_roundtrip(assoc);
}

TEST(SliceSm, OutcomeAndStatusRoundTrip) {
  expect_roundtrip(slice::CtrlOutcome{false, "admission rejected"});
  slice::IndicationMsg status;
  status.algo = slice::Algo::nvs;
  slice::SliceStatus st;
  st.conf = sample_slice_ctrl().slices[0];
  st.prb_share_used = 0.45;
  st.num_ues = 2;
  status.slices.push_back(st);
  status.assoc = {{100, 1}};
  expect_roundtrip(status);
}

TEST(SliceSm, StaticParamsRoundTrip) {
  slice::SliceConf conf;
  conf.id = 3;
  conf.static_rb = {10, 15};
  expect_roundtrip(conf);
}

// ---------------------------------------------------------------------------
// TC SM
// ---------------------------------------------------------------------------

TEST(TcSm, AllCtrlKindsRoundTrip) {
  tc::CtrlMsg msg;
  msg.rnti = 100;
  msg.drb_id = 1;

  msg.kind = tc::CtrlKind::add_queue;
  msg.queue = {1, tc::QueueKind::codel, 1 << 20};
  expect_roundtrip(msg);

  msg.kind = tc::CtrlKind::add_filter;
  msg.filter.filter_id = 9;
  msg.filter.match = {0x0A000001, 0x0A000002, 5000, 6000, 17};
  msg.filter.dst_qid = 1;
  msg.filter.precedence = 2;
  expect_roundtrip(msg);

  msg.kind = tc::CtrlKind::sched_conf;
  msg.sched = {tc::SchedKind::wrr, {3, 1}};
  expect_roundtrip(msg);

  msg.kind = tc::CtrlKind::pacer_conf;
  msg.pacer = {tc::PacerKind::bdp, 5.0, 1.2};
  expect_roundtrip(msg);

  msg.kind = tc::CtrlKind::del_queue;
  msg.del_id = 1;
  expect_roundtrip(msg);
}

TEST(TcSm, StatsRoundTrip) {
  tc::IndicationMsg msg;
  tc::QueueStats q;
  q.qid = 1;
  q.backlog_bytes = 1'000'000;
  q.sojourn_avg_ms = 230.5;
  q.sojourn_max_ms = 480.0;
  q.tx_pkts = 424242;
  q.dropped_pkts = 17;
  msg.queues.push_back(q);
  msg.pacer_rate_mbps = 17.5;
  expect_roundtrip(msg);
  expect_roundtrip(tc::IndicationHdr{99, 100, 1});
}

// ---------------------------------------------------------------------------
// Robustness: corrupt SM payloads are rejected, never crash
// ---------------------------------------------------------------------------

TEST_P(SmFormats, CorruptPayloadsRejectedCleanly) {
  Rng rng(31337);
  Buffer wire = sm_encode(sample_mac(8), GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    Buffer corrupted = wire;
    std::size_t pos = rng.bounded(corrupted.size());
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    (void)sm_decode<mac::IndicationMsg>(corrupted, GetParam());
  }
  for (std::size_t cut = 0; cut < wire.size(); cut += 3) {
    Buffer truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    (void)sm_decode<mac::IndicationMsg>(truncated, GetParam());
  }
  SUCCEED();
}

TEST_P(SmFormats, EnumPastItsLastEnumeratorIsMalformed) {
  // Encoders write any byte; decoders take only declared enumerators.
  const Buffer wire =
      sm_encode(EventTrigger{static_cast<TriggerKind>(2), 100}, GetParam());
  auto d = sm_decode<EventTrigger>(wire, GetParam());
  ASSERT_FALSE(d.is_ok()) << "TriggerKind 2 decoded";
  EXPECT_EQ(d.error().code, Errc::malformed);
  EXPECT_EQ(d.error().message, kBadEnum);
}

TEST(SmCommon, ProtoVarintWiderThanItsFieldIsMalformed) {
  // Kind 256 would truncate to periodic.
  ProtoWriter w;
  w.field_u64(1, 0x100);
  w.field_u64(2, 100);
  const Buffer wire = w.take();
  auto d = sm_decode<EventTrigger>(wire, WireFormat::proto);
  ASSERT_FALSE(d.is_ok()) << "kind 256 decoded";
  EXPECT_EQ(d.error().code, Errc::malformed);
}

TEST_P(SmFormats, LargeIndicationsRoundTrip) {
  // 32 UEs as in the scalability experiments (§5.3).
  expect_roundtrip(sample_mac(32));
}

TEST(SmSizes, FormatOrderingForStatsPayloads) {
  // PER most compact; FLAT largest; PROTO in between — the size relation
  // behind Fig. 7b.
  auto msg = sample_mac(8);
  std::size_t per_size = sm_encode(msg, WireFormat::per).size();
  std::size_t proto_size = sm_encode(msg, WireFormat::proto).size();
  std::size_t flat_size = sm_encode(msg, WireFormat::flat).size();
  EXPECT_LT(per_size, proto_size);
  EXPECT_LT(proto_size, flat_size);
}

}  // namespace
}  // namespace flexric::e2sm
