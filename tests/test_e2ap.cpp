// E2AP IR <-> wire codec tests: round-trips for all 21 procedures in both
// encodings, wire-size ordering, and robustness against corrupt input.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "e2ap/codec.hpp"

namespace flexric::e2ap {
namespace {

/// Representative instance of every E2AP procedure, with optionals and lists
/// populated.
std::vector<Msg> sample_messages() {
  std::vector<Msg> out;

  SetupRequest setup;
  setup.trans_id = 3;
  setup.node = {0x20899, 77, NodeType::gnb};
  setup.ran_functions.push_back(
      {142, 1, "FLEXRIC-E2SM-MAC-STATS", Buffer{1, 2, 3}});
  setup.ran_functions.push_back({145, 2, "FLEXRIC-E2SM-SLICE-CTRL", {}});
  out.emplace_back(setup);

  SetupResponse sresp;
  sresp.trans_id = 3;
  sresp.ric_id = 0xABCDE;
  sresp.accepted = {142, 145};
  sresp.rejected = {{99, {Cause::Group::ric, 4}}};
  out.emplace_back(sresp);

  out.emplace_back(SetupFailure{5, {Cause::Group::transport, 1}});
  out.emplace_back(ResetRequest{9, {Cause::Group::misc, 2}});
  out.emplace_back(ResetResponse{9});

  ErrorIndication err;
  err.request = RicRequestId{100, 7};
  err.ran_function_id = 142;
  err.cause = {Cause::Group::protocol, 3};
  out.emplace_back(err);
  out.emplace_back(ErrorIndication{std::nullopt, std::nullopt,
                                   {Cause::Group::misc, 0}});

  ServiceUpdate update;
  update.trans_id = 11;
  update.added.push_back({150, 1, "ORAN-E2SM-HELLOWORLD", Buffer{9}});
  update.modified.push_back({142, 2, "FLEXRIC-E2SM-MAC-STATS", {}});
  update.removed = {144};
  out.emplace_back(update);

  ServiceUpdateAck ack;
  ack.trans_id = 11;
  ack.accepted = {150, 142};
  ack.rejected = {{1, {Cause::Group::ric, 9}}};
  out.emplace_back(ack);
  out.emplace_back(ServiceUpdateFailure{11, {Cause::Group::ric, 1}});

  NodeConfigUpdate ncu;
  ncu.trans_id = 1;
  ncu.components = {{"cu-cp", Buffer{1}}, {"du", Buffer{2, 3}}};
  out.emplace_back(ncu);

  NodeConfigUpdateAck ncua;
  ncua.trans_id = 1;
  ncua.accepted_components = {"cu-cp", "du"};
  out.emplace_back(ncua);

  SubscriptionRequest sub;
  sub.request = {21, 1};
  sub.ran_function_id = 142;
  sub.event_trigger = Buffer{0, 1, 0, 0};
  sub.actions.push_back({1, ActionType::report, Buffer{0}});
  sub.actions.push_back({2, ActionType::policy, Buffer{1, 1}});
  out.emplace_back(sub);

  SubscriptionResponse subr;
  subr.request = {21, 1};
  subr.ran_function_id = 142;
  subr.admitted = {1};
  subr.not_admitted = {{2, {Cause::Group::ric, 1}}};
  out.emplace_back(subr);

  out.emplace_back(
      SubscriptionFailure{{21, 1}, 142, {Cause::Group::ric, 0}});
  out.emplace_back(SubscriptionDeleteRequest{{21, 1}, 142});
  out.emplace_back(SubscriptionDeleteResponse{{21, 1}, 142});
  out.emplace_back(
      SubscriptionDeleteFailure{{21, 1}, 142, {Cause::Group::ric, 2}});

  Indication ind;
  ind.request = {21, 1};
  ind.ran_function_id = 142;
  ind.action_id = 1;
  ind.sn = 123456;
  ind.type = ActionType::report;
  ind.header = Buffer{7, 7};
  ind.message = Buffer(64, 0x42);
  ind.call_process_id = Buffer{1, 2};
  out.emplace_back(ind);

  Indication ind2 = ind;
  ind2.call_process_id.reset();
  ind2.type = ActionType::insert;
  out.emplace_back(ind2);

  ControlRequest ctrl;
  ctrl.request = {21, 2};
  ctrl.ran_function_id = 145;
  ctrl.header = Buffer{1};
  ctrl.message = Buffer(32, 0x55);
  ctrl.ack_requested = true;
  ctrl.call_process_id = Buffer{3};
  out.emplace_back(ctrl);

  ControlAck cack;
  cack.request = {21, 2};
  cack.ran_function_id = 145;
  cack.outcome = Buffer{0, 1};
  out.emplace_back(cack);

  ControlFailure cfail;
  cfail.request = {21, 2};
  cfail.ran_function_id = 145;
  cfail.cause = {Cause::Group::ric, 3};
  cfail.outcome = Buffer{9};
  out.emplace_back(cfail);

  return out;
}

class E2apRoundTrip : public ::testing::TestWithParam<WireFormat> {};

TEST_P(E2apRoundTrip, AllProceduresRoundTrip) {
  const Codec& codec = codec_for(GetParam());
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok()) << msg_type_name(msg_type(msg));
    auto decoded = codec.decode(*wire);
    ASSERT_TRUE(decoded.is_ok())
        << msg_type_name(msg_type(msg)) << ": "
        << decoded.error().to_string();
    EXPECT_EQ(*decoded, msg) << msg_type_name(msg_type(msg));
  }
}

TEST_P(E2apRoundTrip, EveryMsgTypeIsCovered) {
  // The sample set must exercise all 21 procedures.
  std::set<MsgType> seen;
  for (const Msg& msg : sample_messages()) seen.insert(msg_type(msg));
  EXPECT_EQ(seen.size(), kNumMsgTypes);
}

TEST_P(E2apRoundTrip, TruncationAtEveryByteFailsCleanly) {
  const Codec& codec = codec_for(GetParam());
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok());
    for (std::size_t cut = 0; cut < wire->size(); ++cut) {
      Buffer truncated(wire->begin(),
                       wire->begin() + static_cast<long>(cut));
      auto decoded = codec.decode(truncated);
      // Must not crash; for most cut points this must fail. (A few cut
      // points may still decode if trailing bytes were padding.)
      if (decoded.is_ok()) continue;
      EXPECT_NE(decoded.error().code, Errc::ok);
    }
  }
}

TEST_P(E2apRoundTrip, RandomByteFlipsNeverCrash) {
  const Codec& codec = codec_for(GetParam());
  Rng rng(2024);
  for (const Msg& msg : sample_messages()) {
    auto wire = codec.encode(msg);
    ASSERT_TRUE(wire.is_ok());
    for (int trial = 0; trial < 50; ++trial) {
      Buffer corrupted = *wire;
      std::size_t pos = rng.bounded(corrupted.size());
      corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
      (void)codec.decode(corrupted);  // must not crash or hang
    }
  }
  SUCCEED();
}

TEST_P(E2apRoundTrip, GarbageInputRejected) {
  const Codec& codec = codec_for(GetParam());
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer garbage(rng.bounded(64), 0);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    (void)codec.decode(garbage);  // must not crash
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Formats, E2apRoundTrip,
                         ::testing::Values(WireFormat::per, WireFormat::flat),
                         [](const auto& param_info) {
                           return std::string(
                               wire_format_name(param_info.param));
                         });

TEST(E2apSizes, PerIsMoreCompactThanFlat) {
  // ASN.1 PER's selling point (§5.2): better compression. Verify it holds
  // for every sampled procedure.
  for (const Msg& msg : sample_messages()) {
    auto per_wire = per_codec().encode(msg);
    auto flat_wire = flat_codec().encode(msg);
    ASSERT_TRUE(per_wire.is_ok() && flat_wire.is_ok());
    EXPECT_LE(per_wire->size(), flat_wire->size())
        << msg_type_name(msg_type(msg));
  }
}

TEST(E2apSizes, FlatOverheadMatchesPaperRange) {
  // §5.2: "for each FB message, we observe 30-40 B overhead". Compare the
  // two encodings of an indication with a fixed payload.
  Indication ind;
  ind.request = {1, 1};
  ind.ran_function_id = 150;
  ind.message = Buffer(100, 0xAB);
  auto per_wire = per_codec().encode(Msg{ind});
  auto flat_wire = flat_codec().encode(Msg{ind});
  std::size_t overhead = flat_wire->size() - per_wire->size();
  EXPECT_GE(overhead, 20u);
  EXPECT_LE(overhead, 60u);
}

TEST(E2apCodec, FormatAccessor) {
  EXPECT_EQ(per_codec().format(), WireFormat::per);
  EXPECT_EQ(flat_codec().format(), WireFormat::flat);
  EXPECT_EQ(&codec_for(WireFormat::per), &per_codec());
  EXPECT_EQ(&codec_for(WireFormat::flat), &flat_codec());
}

TEST(E2apCodec, MsgTypeNamesAreOranTerms) {
  EXPECT_STREQ(msg_type_name(MsgType::indication), "RICindication");
  EXPECT_STREQ(msg_type_name(MsgType::subscription_request),
               "RICsubscriptionRequest");
  EXPECT_STREQ(msg_type_name(MsgType::setup_request), "E2SetupRequest");
}

}  // namespace
}  // namespace flexric::e2ap
