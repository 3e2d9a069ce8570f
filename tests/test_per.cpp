// Wire-format tests: the golden corpora and decoder allocation bounds.
//
// tests/golden/per_corpus.txt holds one `name hex` line per PER case below
// (every E2AP procedure case and every E2SM message). It was captured from
// the byte-at-a-time PER engine that predates the word-at-a-time bit I/O.
// tests/golden/flat_corpus.txt holds the FLAT encodings of the same E2AP
// procedure cases. Together they pin both wire formats: every case must
// encode byte-identically, its fixture bytes must decode back to an equal
// value, and every strict prefix of it must fail to decode.
//
// Adding a case: append it to add_e2ap() or add_sm(), run this binary with
// FLEXRIC_GOLDEN_OUT=<dir> to write the encodings of the current codecs to
// <dir>/per_corpus.txt and <dir>/flat_corpus.txt, and copy only the new
// lines into the fixtures. Existing lines never change; a diff there is a
// wire-format break.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "codec/flat.hpp"
#include "codec/proto.hpp"
#include "codec/wire.hpp"
#include "common/alloc_counter.hpp"
#include "common/buffer.hpp"
#include "e2ap/codec.hpp"
#include "e2sm/assoc_sm.hpp"
#include "e2sm/common.hpp"
#include "e2sm/hw_sm.hpp"
#include "e2sm/kpm_sm.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "e2sm/rrc_sm.hpp"
#include "e2sm/slice_sm.hpp"
#include "e2sm/tc_sm.hpp"

namespace flexric {
namespace {

using e2ap::Msg;

/// One corpus entry: the encoding under test and a check that a wire image
/// decodes back to the value that produced it.
struct Case {
  std::string name;
  Buffer wire;
  std::function<bool(BytesView)> decodes_back;
};

Buffer pattern(std::size_t n, std::uint8_t seed) {
  Buffer b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(seed + i * 37 + (i >> 8));
  return b;
}

std::string text(std::size_t n, char first) {
  std::string s(n, first);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = static_cast<char>(first + static_cast<char>(i % 26));
  return s;
}

// A test-only message that touches every PerEnc/PerDec operation, including
// `opt`, which no shipped SM uses yet.
struct AllFields {
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  std::int64_t e = 0;
  double f = 0.0;
  bool g = false;
  e2sm::slice::Algo h = e2sm::slice::Algo::none;
  std::string i;
  Buffer j;
  std::vector<std::uint32_t> k;
  std::optional<std::uint16_t> l;
  std::optional<e2sm::EventTrigger> m;
  bool operator==(const AllFields&) const = default;
};

template <typename A>
void serde(A& a, AllFields& x) {
  a.u8(x.a);
  a.u16(x.b);
  a.u32(x.c);
  a.u64(x.d);
  a.i64(x.e);
  a.f64(x.f);
  a.boolean(x.g);
  a.enum8(x.h);
  a.str(x.i);
  a.bytes(x.j);
  a.vec(x.k);
  a.opt(x.l);
  a.opt(x.m);
}

class Corpus {
 public:
  explicit Corpus(const e2ap::Codec& codec) : codec_(codec) {}

  template <typename T>
  void sm(std::string name, T msg) {
    Buffer wire = e2sm::sm_encode(msg, WireFormat::per);
    cases_.push_back({std::move(name), std::move(wire),
                      [msg](BytesView b) {
                        auto d = e2sm::sm_decode<T>(b, WireFormat::per);
                        return d.is_ok() && *d == msg;
                      }});
  }

  void proc(std::string name, Msg msg) {
    auto wire = codec_.encode(msg);
    ASSERT_TRUE(wire.is_ok()) << name;
    const e2ap::Codec* codec = &codec_;
    cases_.push_back({std::move(name), std::move(*wire),
                      [codec, msg](BytesView b) {
                        auto d = codec->decode(b);
                        return d.is_ok() && *d == msg;
                      }});
  }

  std::vector<Case> take() { return std::move(cases_); }

 private:
  const e2ap::Codec& codec_;
  std::vector<Case> cases_;
};

void add_e2ap(Corpus& c) {
  using namespace e2ap;
  constexpr std::uint16_t kFnMax = 4095;
  const Cause cause_lo{Cause::Group::ric, 0};
  const Cause cause_hi{Cause::Group::misc, 255};
  const RicRequestId req_lo{0, 0};
  const RicRequestId req_hi{65535, 65535};

  RanFunctionItem fn_empty{0, 0, "", {}};
  RanFunctionItem fn{142, 4095, "FLEXRIC-E2SM-MAC-STATS", pattern(9, 1)};
  c.proc("setup_request.empty", SetupRequest{0, {0, 0, NodeType::enb}, {}});
  c.proc("setup_request.two_functions",
         SetupRequest{255, {0xFFFFFF, 0xFFFFFFF, NodeType::du},
                      {fn_empty, fn}});
  c.proc("setup_request.cu", SetupRequest{7, {0x1234, 77, NodeType::cu}, {fn}});
  c.proc("setup_response.empty", SetupResponse{0, 0, {}, {}});
  c.proc("setup_response.lists",
         SetupResponse{9, 0xFFFFF, {0, 142, kFnMax}, {{kFnMax, cause_hi}}});
  c.proc("setup_response.ric_id_mid", SetupResponse{1, 0x10000, {1}, {}});
  c.proc("setup_failure", SetupFailure{3, {Cause::Group::transport, 17}});
  c.proc("reset_request", ResetRequest{255, cause_hi});
  c.proc("reset_response", ResetResponse{128});
  c.proc("error_indication.none", ErrorIndication{{}, {}, cause_lo});
  c.proc("error_indication.both", ErrorIndication{req_hi, kFnMax, cause_hi});
  c.proc("error_indication.request_only",
         ErrorIndication{RicRequestId{1, 2}, {}, {Cause::Group::protocol, 4}});
  c.proc("error_indication.function_only",
         ErrorIndication{{}, std::uint16_t{0}, cause_lo});
  c.proc("service_update.empty", ServiceUpdate{0, {}, {}, {}});
  c.proc("service_update.full",
         ServiceUpdate{44, {fn}, {fn_empty, fn}, {3, kFnMax}});
  c.proc("service_update_ack",
         ServiceUpdateAck{5, {1, 2, 3}, {{4, cause_lo}, {kFnMax, cause_hi}}});
  c.proc("service_update_failure", ServiceUpdateFailure{6, cause_hi});
  c.proc("node_config_update.empty", NodeConfigUpdate{0, {}});
  c.proc("node_config_update.components",
         NodeConfigUpdate{8, {{"", {}}, {"du.cfg", pattern(40, 2)}}});
  c.proc("node_config_update_ack.empty", NodeConfigUpdateAck{0, {}});
  c.proc("node_config_update_ack.names",
         NodeConfigUpdateAck{9, {"", "du.cfg", text(127, 'a')}});
  c.proc("subscription_request.no_actions",
         SubscriptionRequest{req_lo, 0, {}, {}});
  c.proc("subscription_request.actions",
         SubscriptionRequest{req_hi, kFnMax, pattern(5, 3),
                             {{0, ActionType::report, {}},
                              {255, ActionType::policy, pattern(33, 4)},
                              {17, ActionType::insert, pattern(1, 5)}}});
  c.proc("subscription_response.empty",
         SubscriptionResponse{req_lo, 0, {}, {}});
  c.proc("subscription_response.lists",
         SubscriptionResponse{req_hi, kFnMax, {0, 1, 255}, {{7, cause_hi}}});
  c.proc("subscription_failure",
         SubscriptionFailure{RicRequestId{12, 34}, 142, cause_hi});
  c.proc("subscription_delete_request",
         SubscriptionDeleteRequest{req_hi, kFnMax});
  c.proc("subscription_delete_response",
         SubscriptionDeleteResponse{req_lo, 0});
  c.proc("subscription_delete_failure",
         SubscriptionDeleteFailure{RicRequestId{1, 65535}, 7, cause_lo});

  Indication ind;
  ind.request = RicRequestId{1000, 1};
  ind.ran_function_id = 142;
  ind.action_id = 1;
  ind.sn = 0xFFFFFFFF;
  ind.type = ActionType::report;
  c.proc("indication.empty_payload", ind);
  ind.header = pattern(14, 6);
  ind.message = pattern(127, 7);  // longest short-form length determinant
  c.proc("indication.len127", ind);
  ind.message = pattern(128, 8);  // shortest long-form length determinant
  ind.call_process_id = pattern(3, 9);
  ind.type = ActionType::insert;
  c.proc("indication.len128_cpid", ind);
  ind.header = pattern(16383, 10);  // longest length determinant
  ind.message = {};
  ind.call_process_id = Buffer{};
  ind.sn = 0;
  c.proc("indication.len16383_empty_cpid", ind);

  ControlRequest ctrl;
  ctrl.request = req_hi;
  ctrl.ran_function_id = kFnMax;
  ctrl.header = pattern(2, 11);
  ctrl.message = pattern(200, 12);
  ctrl.ack_requested = false;
  c.proc("control_request.no_ack", ctrl);
  ctrl.ack_requested = true;
  ctrl.call_process_id = pattern(8, 13);
  c.proc("control_request.ack_cpid", ctrl);
  c.proc("control_ack.empty", ControlAck{req_lo, 0, {}});
  c.proc("control_ack.outcome", ControlAck{req_hi, kFnMax, pattern(60, 14)});
  c.proc("control_failure",
         ControlFailure{RicRequestId{5, 6}, 143, cause_hi, pattern(4, 15)});
}

void add_sm(Corpus& c) {
  using namespace e2sm;
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr auto kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr auto kI64Max = std::numeric_limits<std::int64_t>::max();

  c.sm("common.trigger.periodic", EventTrigger{TriggerKind::periodic, 1});
  c.sm("common.trigger.on_event",
       EventTrigger{TriggerKind::on_event, 0xFFFFFFFF});

  // MAC stats.
  c.sm("mac.action_def.empty", mac::ActionDef{});
  c.sm("mac.action_def.filter", mac::ActionDef{true, {1, 0xFFFF, 70}});
  {
    mac::ActionDef max;
    for (std::size_t i = 0; i < 16383; ++i)
      max.rnti_filter.push_back(static_cast<std::uint16_t>(i * 7));
    c.sm("mac.action_def.filter16383", max);
  }
  c.sm("mac.hdr", mac::IndicationHdr{1'700'000'000'123'456'789ull, 0xFFFFFFFF});
  c.sm("mac.msg.empty", mac::IndicationMsg{});
  {
    mac::IndicationMsg msg;
    msg.ues.push_back({});  // every field zero
    msg.ues.push_back({0xFFFF, 255, 255, 255, 0xFFFFFFFF, 0xFFFFFFFF, kU64Max,
                       kU64Max, 0xFFFFFFFF, kI64Max, 0xFFFFFFFF, 0xFFFFFFFF});
    msg.ues.push_back({0x4601, 15, 28, 20, 106, 50, 0x100, 0xFFFFFFFFFFull,
                       1500, kI64Min, 2, 1});
    msg.ues.push_back({77, 9, 10, 11, 256, 65536, 255, 65535, 0x1000000, -1,
                       0x10000, 0});
    c.sm("mac.msg.boundaries", msg);
  }
  {
    mac::IndicationMsg msg;
    for (std::uint16_t i = 0; i < 32; ++i)
      msg.ues.push_back({static_cast<std::uint16_t>(0x4601 + i),
                         static_cast<std::uint8_t>(i % 16), 20, 12,
                         100u + i, 30u + i, 1'000'000ull * i, 4'000ull * i,
                         1500u * i, 20 - i,
                         static_cast<std::uint32_t>(i % 3), i});
    c.sm("mac.msg.ues32", msg);
  }

  // RLC stats.
  c.sm("rlc.action_def.empty", rlc::ActionDef{});
  c.sm("rlc.action_def.filter", rlc::ActionDef{{10, 20}});
  c.sm("rlc.hdr", rlc::IndicationHdr{0, 0});
  c.sm("rlc.msg.empty", rlc::IndicationMsg{});
  c.sm("rlc.msg.bearers",
       rlc::IndicationMsg{{{}, {0xFFFF, 255, kU64Max, 1, 0xFFFFFFFF, 2, 3, 4,
                                1.5, -0.0, 0xFFFFFFFF, 6},
                           {0x4601, 1, 123456, 654321, 10, 20, 3000, 2, 0.125,
                            1e300, 0, 0}}});

  // PDCP stats.
  c.sm("pdcp.action_def.empty", pdcp::ActionDef{});
  c.sm("pdcp.action_def.filter", pdcp::ActionDef{{0xFFFF}});
  c.sm("pdcp.hdr", pdcp::IndicationHdr{kU64Max, 1});
  c.sm("pdcp.msg.empty", pdcp::IndicationMsg{});
  c.sm("pdcp.msg.bearers",
       pdcp::IndicationMsg{{{}, {0xFFFF, 255, kU64Max, kU64Max, kU64Max,
                                 kU64Max, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF,
                                 0xFFFFFFFF, 0xFFFFFFFF},
                           {0x4602, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9}}});

  // Slice control.
  c.sm("slice.action_def", slice::ActionDef{255});
  slice::SliceConf s_cap{1, "embb", slice::UeSched::pf,
                         {slice::NvsKind::capacity, 0.6, 0.0, 0.0},
                         {0, 0}};
  slice::SliceConf s_rate{0xFFFFFFFF, "", slice::UeSched::mt,
                          {slice::NvsKind::rate, 0.0, 12.5, 25.0},
                          {0xFFFFFFFF, 0}};
  slice::SliceConf s_static{2, text(128, 'A'), slice::UeSched::rr,
                            {}, {10, 40}};
  c.sm("slice.ctrl.add_mod", slice::CtrlMsg{slice::CtrlKind::add_mod,
                                            slice::Algo::nvs,
                                            {s_cap, s_rate, s_static}, {}, {}});
  c.sm("slice.ctrl.del",
       slice::CtrlMsg{slice::CtrlKind::del, slice::Algo::none, {},
                      {0, 1, 0xFFFFFFFF}, {}});
  c.sm("slice.ctrl.assoc", slice::CtrlMsg{slice::CtrlKind::assoc_ue,
                                          slice::Algo::static_rb, {}, {},
                                          {{0x4601, 1}, {0xFFFF, 0xFFFFFFFF}}});
  c.sm("slice.ctrl.empty", slice::CtrlMsg{});
  c.sm("slice.outcome.ok", slice::CtrlOutcome{true, ""});
  c.sm("slice.outcome.error", slice::CtrlOutcome{false, "unknown slice id 7"});
  c.sm("slice.hdr", slice::IndicationHdr{123, 456});
  c.sm("slice.msg.empty", slice::IndicationMsg{});
  c.sm("slice.msg.status",
       slice::IndicationMsg{slice::Algo::nvs,
                            {{s_cap, 0.58, 12}, {s_rate, 1.0, 0xFFFFFFFF}},
                            {{0x4601, 1}}});

  // Traffic control.
  c.sm("tc.action_def", tc::ActionDef{0});
  c.sm("tc.policy_def", tc::PolicyDef{50.0, 5.0});
  {
    tc::CtrlMsg m;
    c.sm("tc.ctrl.default", m);
    m.kind = tc::CtrlKind::add_filter;
    m.rnti = 0xFFFF;
    m.drb_id = 255;
    m.queue = {0xFFFFFFFF, tc::QueueKind::codel, 0};
    m.del_id = 9;
    m.filter = {3, {0x0A000001, 0xFFFFFFFF, 5001, 0xFFFF, 17}, 1, 255};
    m.sched = {tc::SchedKind::wrr, {1, 0, 0xFFFFFFFF}};
    m.pacer = {tc::PacerKind::bdp, 5.0, 0.75};
    c.sm("tc.ctrl.full", m);
  }
  c.sm("tc.outcome", tc::CtrlOutcome{false, "queue 4 does not exist"});
  c.sm("tc.hdr", tc::IndicationHdr{99, 0xFFFF, 255});
  c.sm("tc.msg.empty", tc::IndicationMsg{});
  c.sm("tc.msg.queues",
       tc::IndicationMsg{{{0, 100, 2, 1.25, 7.5, 1000, 10, 0},
                          {0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0.0, 0.0,
                           kU64Max, kU64Max, kU64Max}},
                         48.0});

  // Hello World ping/pong.
  c.sm("hw.action_def", hw::ActionDef{0});
  c.sm("hw.ping.empty", hw::Ping{0, 0, {}});
  c.sm("hw.ping.payload", hw::Ping{0xFFFFFFFF, kU64Max, pattern(100, 16)});
  c.sm("hw.pong.len16383", hw::Pong{7, 123456789, pattern(16383, 17)});
  c.sm("hw.hdr", hw::IndicationHdr{42});

  // KPM, RRC and UE association.
  c.sm("kpm.action_def.empty", kpm::ActionDef{});
  c.sm("kpm.action_def.names",
       kpm::ActionDef{{kpm::kThroughputDlMbps, "", kpm::kActiveUes}});
  c.sm("kpm.hdr", kpm::IndicationHdr{5, 6, 1000});
  c.sm("kpm.msg",
       kpm::IndicationMsg{{{kpm::kPrbUtilizationDl, 0.5}, {"x", -3.25e-9}}});
  c.sm("rrc.action_def", rrc::ActionDef{false, true});
  c.sm("rrc.hdr", rrc::IndicationHdr{8, 9});
  c.sm("rrc.msg", rrc::IndicationMsg{rrc::EventKind::reconfig, 0x4601,
                                     0x00F110, 0xFFFFFFFF});
  c.sm("assoc.ctrl", assoc::CtrlMsg{assoc::CtrlKind::dissociate, 0xFFFF, 3});
  c.sm("assoc.outcome", assoc::CtrlOutcome{true, "ok"});

  // Every archive operation, at both ends of each range.
  c.sm("archive.all_fields.zero", AllFields{});
  c.sm("archive.all_fields.max",
       AllFields{255, 0xFFFF, 0xFFFFFFFF, kU64Max, kI64Max, -1.0e-300, true,
                 slice::Algo::nvs, text(127, 'k'), pattern(128, 18),
                 {0, 0xFF, 0x100, 0xFFFF, 0x10000, 0xFFFFFF, 0x1000000,
                  0xFFFFFFFF},
                 std::uint16_t{0xFFFF},
                 EventTrigger{TriggerKind::on_event, 250}});
  c.sm("archive.all_fields.mixed",
       AllFields{1, 256, 65536, 0x100, kI64Min, 3.5, false,
                 slice::Algo::static_rb, "", {}, {}, std::uint16_t{0},
                 std::nullopt});
}

/// A pinned wire format: its fixture file and the cases it must match.
struct Golden {
  const char* label;
  const char* file;
  std::vector<Case> (*cases)();
};

std::vector<Case> per_corpus() {
  Corpus c(e2ap::per_codec());
  add_e2ap(c);
  add_sm(c);
  return c.take();
}

std::vector<Case> flat_corpus() {
  Corpus c(e2ap::flat_codec());
  add_e2ap(c);
  return c.take();
}

const Golden kPer{"PER", "per_corpus.txt", per_corpus};
const Golden kFlat{"FLAT", "flat_corpus.txt", flat_corpus};

std::string to_hex(BytesView b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    s += kDigits[byte >> 4];
    s += kDigits[byte & 0xF];
  }
  return s;
}

Buffer from_hex(const std::string& s) {
  Buffer b;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2)
    b.push_back(
        static_cast<std::uint8_t>(std::stoi(s.substr(i, 2), nullptr, 16)));
  return b;
}

std::map<std::string, Buffer> load_fixture(const Golden& g) {
  std::map<std::string, Buffer> out;
  std::ifstream in(std::string(FLEXRIC_GOLDEN_DIR "/") + g.file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, hex;
    ls >> name >> hex;
    out[name] = from_hex(hex);
  }
  return out;
}

void corpus_matches_fixture(const Golden& g) {
  auto cases = g.cases();
  if (const char* dir = std::getenv("FLEXRIC_GOLDEN_OUT")) {
    std::ofstream out(std::string(dir) + "/" + g.file);
    out << "# " << g.label << " golden corpus: `name hex`, one encoding per line "
           "(tests/test_per.cpp).\n";
    for (const auto& c : cases) out << c.name << ' ' << to_hex(c.wire) << '\n';
  }
  auto fixture = load_fixture(g);
  ASSERT_FALSE(fixture.empty()) << "missing tests/golden/" << g.file;
  EXPECT_EQ(fixture.size(), cases.size()) << "fixture and corpus disagree";
  for (const auto& c : cases) {
    auto it = fixture.find(c.name);
    if (it == fixture.end()) {
      ADD_FAILURE() << c.name << ": not in the fixture";
      continue;
    }
    EXPECT_EQ(to_hex(c.wire), to_hex(it->second)) << c.name;
  }
}

void fixture_decodes_to_equal_value(const Golden& g) {
  auto fixture = load_fixture(g);
  ASSERT_FALSE(fixture.empty());
  for (const auto& c : g.cases()) {
    auto it = fixture.find(c.name);
    if (it == fixture.end()) continue;  // reported by CorpusMatchesFixture
    EXPECT_TRUE(c.decodes_back(it->second)) << c.name;
  }
}

void strict_prefixes_fail_to_decode(const Golden& g) {
  // PER pads only the final byte, so that byte always carries data; FLAT
  // accounts for every byte in its fixed region or a var span. Either way a
  // strict prefix lacks bytes the decoder needs. Long cases check their
  // tails, where PER reads fall back from the 64-bit window to the slow path.
  for (const auto& c : g.cases()) {
    const std::size_t n = c.wire.size();
    for (std::size_t len = 0; len < n; ++len) {
      if (n > 2048 && len > 64 && len + 64 < n) continue;
      BytesView prefix(c.wire.data(), len);
      EXPECT_FALSE(c.decodes_back(prefix)) << c.name << " prefix " << len;
    }
  }
}

TEST(PerGolden, CorpusMatchesFixture) { corpus_matches_fixture(kPer); }
TEST(PerGolden, FixtureDecodesToEqualValue) {
  fixture_decodes_to_equal_value(kPer);
}
TEST(PerGolden, StrictPrefixesFailToDecode) {
  strict_prefixes_fail_to_decode(kPer);
}

TEST(FlatGolden, CorpusMatchesFixture) { corpus_matches_fixture(kFlat); }
TEST(FlatGolden, FixtureDecodesToEqualValue) {
  fixture_decodes_to_equal_value(kFlat);
}
TEST(FlatGolden, StrictPrefixesFailToDecode) {
  strict_prefixes_fail_to_decode(kFlat);
}

// ---------------------------------------------------------------------------
// Allocation bounds: a hostile list count must not allocate ahead of the
// payload that is actually present.
// ---------------------------------------------------------------------------

/// Bytes allocated while `decode` runs; it must reject its forged input.
template <typename F>
std::size_t bytes_allocated_by(F decode) {
  alloc_counter::arm();
  const bool decoded = decode();
  const std::size_t bytes = alloc_counter::disarm();
  EXPECT_FALSE(decoded);
  return bytes;
}

template <typename T>
std::size_t bytes_allocated_decoding(const Buffer& wire,
                                     WireFormat f = WireFormat::per) {
  return bytes_allocated_by(
      [&] { return e2sm::sm_decode<T>(wire, f).is_ok(); });
}

constexpr std::size_t alloc_budget(std::size_t input) {
  return 16 * input + 4096;
}

TEST(PerAlloc, InflatedSliceCountIsBounded) {
  // kind, algo, then a 16,383-entry slice list with three bytes behind it.
  const Buffer wire{0x00, 0x02, 0xBF, 0xFF, 0x00, 0x00, 0x00};
  EXPECT_LE(bytes_allocated_decoding<e2sm::slice::CtrlMsg>(wire),
            alloc_budget(wire.size()));
}

/// A forged list: `count` elements claimed over `filler` bytes of 0x11.
struct Forged {
  std::uint32_t count;
  std::size_t filler;
};

// Each list below is tried twice: with a count the guard rejects, and with
// as many elements as it lets through (one per smallest element encoding
// left) over a large filler. The second bounds what vec() reserves before
// decoding elements, which take far more bytes in memory than on the wire.
constexpr std::size_t kLargeFiller = 64 * 1024;

TEST(PerAlloc, InflatedUeCountIsBounded) {
  // A two-byte PER length, 128 <= count < 16,384; PER's floor is an octet.
  for (const Forged f : {Forged{16383, 34}, Forged{8000, 8000}}) {
    Buffer wire{static_cast<std::uint8_t>(0x80 | f.count >> 8),
                static_cast<std::uint8_t>(f.count & 0xFF)};
    wire.resize(2 + f.filler, 0x11);
    EXPECT_LE(bytes_allocated_decoding<e2sm::mac::IndicationMsg>(wire),
              alloc_budget(wire.size()))
        << f.count;
  }
}

// A count the guard lets through, whose list would fit the budget, over a
// short payload that fails at the first element: vec() reserves what the
// payload left can back (or a 4 KiB floor), not the count's whole share of
// the budget. Reserving the count up front allocated 17,070 B here.
TEST(PerAlloc, ForgedCountReservesOnlyWhatThePayloadBacks) {
  constexpr std::size_t kFiller = 1000;
  constexpr std::uint32_t kCount = 300;
  Buffer wire{static_cast<std::uint8_t>(0x80 | kCount >> 8),
              static_cast<std::uint8_t>(kCount & 0xFF)};
  // 0xFF fails the first UE at its first u32 (a bad octet count).
  wire.resize(2 + kFiller, 0xFF);
  ASSERT_LE(kCount, kFiller) << "the count guard must let the count through";
  ASSERT_LE(kCount * sizeof(e2sm::mac::UeStats),
            e2sm::PerDec::decode_budget(wire.size()))
      << "the list must fit the budget, or the budget alone refuses it";
  // Slack: the 4 KiB reservation floor and the error Status.
  constexpr std::size_t kSlack = 4096 + 1024;
  EXPECT_LE(bytes_allocated_decoding<e2sm::mac::IndicationMsg>(wire),
            wire.size() + kSlack);
}

TEST(FlatAlloc, InflatedUeCountIsBounded) {
  // One var field holding a RAW list; every 49 bytes of filler decode as
  // one UE.
  for (const Forged f : {Forged{4096, 32}, Forged{kLargeFiller, kLargeFiller}}) {
    BufWriter list;
    list.uvarint(f.count);
    list.bytes(Buffer(f.filler, 0x11));
    FlatWriter w;
    w.var_bytes(list.view());
    const Buffer wire = w.finish();
    EXPECT_LE(bytes_allocated_decoding<e2sm::mac::IndicationMsg>(
                  wire, WireFormat::flat),
              alloc_budget(wire.size()))
        << f.count;
  }
}

TEST(FlatAlloc, InflatedE2apListCountIsBounded) {
  // SetupRequest: tag, transaction, node id, then the RAN function list.
  for (const Forged f : {Forged{4096, 32}, Forged{kLargeFiller, kLargeFiller}}) {
    BufWriter list;
    list.u32(f.count);
    list.bytes(Buffer(f.filler, 0x11));
    FlatWriter w;
    w.u8(static_cast<std::uint8_t>(e2ap::MsgType::setup_request));
    w.u8(1);
    w.u32(0x00F110);
    w.u32(77);
    w.u8(static_cast<std::uint8_t>(e2ap::NodeType::gnb));
    w.var_bytes(list.view());
    const Buffer wire = w.finish();
    EXPECT_LE(bytes_allocated_by(
                  [&] { return e2ap::flat_codec().decode(wire).is_ok(); }),
              alloc_budget(wire.size()))
        << f.count;
  }
}

TEST(ProtoAlloc, InflatedUeCountIsBounded) {
  // Field 1 carries the repeated list's count, then one field of filler;
  // PROTO's floor is two bytes per element.
  for (const Forged f :
       {Forged{4096, 30}, Forged{kLargeFiller / 2, kLargeFiller}}) {
    BufWriter count;
    count.uvarint(f.count);
    ProtoWriter w;
    w.field_bytes(1, count.view());
    w.field_bytes(1, Buffer(f.filler, 0x11));
    const Buffer wire = w.take();
    EXPECT_LE(bytes_allocated_decoding<e2sm::mac::IndicationMsg>(
                  wire, WireFormat::proto),
              alloc_budget(wire.size()))
        << f.count;
  }
}

// A well-formed list of the smallest elements: an empty name is one byte on
// the wire in PER and FLAT but a 32 B std::string in memory. Each decode
// must stay within the budget, by decoding the list or by refusing it as
// malformed; before the list was charged by its size in memory, 16,000
// names took 1,008,000 B from a 16,002 B PER frame.
constexpr std::size_t kEmptyNames = 16000;

/// Bytes allocated while `decode` runs; a refusal must be malformed.
template <typename R>
std::size_t bytes_allocated_within_budget(const std::function<R()>& decode,
                                          std::size_t input) {
  alloc_counter::arm();
  const R r = decode();
  const std::size_t bytes = alloc_counter::disarm();
  if (!r) {
    EXPECT_EQ(r.error().code, Errc::malformed);
  }
  EXPECT_LE(bytes, alloc_budget(input));
  return bytes;
}

TEST(ListAlloc, EmptyMetricNamesStayWithinBudget) {
  e2sm::kpm::ActionDef def;
  def.metric_names.resize(kEmptyNames);
  for (WireFormat f : {WireFormat::per, WireFormat::flat, WireFormat::proto}) {
    SCOPED_TRACE(wire_format_name(f));
    const Buffer wire = e2sm::sm_encode(def, f);
    bytes_allocated_within_budget<Result<e2sm::kpm::ActionDef>>(
        [&] { return e2sm::sm_decode<e2sm::kpm::ActionDef>(wire, f); },
        wire.size());
  }
}

TEST(ListAlloc, E2apEmptyComponentNamesStayWithinBudget) {
  e2ap::NodeConfigUpdateAck ack;
  ack.trans_id = 3;
  ack.accepted_components.resize(kEmptyNames);
  for (const e2ap::Codec* codec : {&e2ap::per_codec(), &e2ap::flat_codec()}) {
    SCOPED_TRACE(wire_format_name(codec->format()));
    auto wire = codec->encode(Msg{ack});
    ASSERT_TRUE(wire.is_ok());
    bytes_allocated_within_budget<Result<Msg>>(
        [&] { return codec->decode(*wire); }, wire->size());
  }
}

}  // namespace
}  // namespace flexric
