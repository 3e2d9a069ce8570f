// Unit + property tests for the three wire codecs (PER, FLAT, PROTO).
#include <gtest/gtest.h>

#include "codec/flat.hpp"
#include "codec/per.hpp"
#include "codec/proto.hpp"
#include "common/rng.hpp"
#include "e2ap/codec.hpp"

namespace flexric {
namespace {

// ---------------------------------------------------------------------------
// PER primitives
// ---------------------------------------------------------------------------

TEST(Per, ConstrainedSingleValueEncodesNothing) {
  PerWriter w;
  w.constrained(7, 7, 7);
  Buffer buf = w.take();
  EXPECT_TRUE(buf.empty());
  PerReader r(buf);
  EXPECT_EQ(*r.constrained(7, 7), 7u);
}

TEST(Per, ConstrainedSmallRangeUsesMinimalBits) {
  PerWriter w;
  w.constrained(5, 0, 7);  // 3 bits
  w.constrained(1, 0, 1);  // 1 bit
  EXPECT_EQ(w.bit_size(), 4u);
  Buffer buf = w.take();
  PerReader r(buf);
  EXPECT_EQ(*r.constrained(0, 7), 5u);
  EXPECT_EQ(*r.constrained(0, 1), 1u);
}

TEST(Per, ConstrainedTwoOctetRangeAligns) {
  PerWriter w;
  w.boolean(true);  // force misalignment
  w.constrained(0x1234, 0, 65535);
  Buffer buf = w.take();
  PerReader r(buf);
  EXPECT_TRUE(*r.boolean());
  EXPECT_EQ(*r.constrained(0, 65535), 0x1234u);
}

TEST(Per, ConstrainedLargeRange) {
  for (std::uint64_t v : {0ULL, 255ULL, 256ULL, 0xFFFFFFULL, 0xFFFFFFFFULL}) {
    PerWriter w;
    w.constrained(v, 0, 0xFFFFFFFF);
    Buffer buf = w.take();
    PerReader r(buf);
    EXPECT_EQ(*r.constrained(0, 0xFFFFFFFF), v) << v;
  }
}

TEST(Per, ConstrainedWithNonZeroLowerBound) {
  PerWriter w;
  w.constrained(150, 100, 200);
  Buffer buf = w.take();
  PerReader r(buf);
  EXPECT_EQ(*r.constrained(100, 200), 150u);
}

TEST(Per, DecodedValueOutOfRangeIsRejected) {
  PerWriter w;
  w.constrained(250, 0, 255);  // 8 bits: value 250
  Buffer buf = w.take();
  PerReader r(buf);
  // Decode with range [0,200]: same 8-bit width, but 250 exceeds the range.
  auto res = r.constrained(0, 200);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.error().code, Errc::out_of_range);
}

TEST(Per, SemiConstrainedRoundTrip) {
  for (std::uint64_t v : {10ULL, 255ULL, 256ULL, 1ULL << 40}) {
    PerWriter w;
    w.semi_constrained(v, 10);
    Buffer buf = w.take();
    PerReader r(buf);
    EXPECT_EQ(*r.semi_constrained(10), v) << v;
  }
}

TEST(Per, SignedIntegerRoundTrip) {
  for (std::int64_t v : std::initializer_list<std::int64_t>{
           0, 1, -1, 127, 128, -128, -129, INT64_MAX, INT64_MIN}) {
    PerWriter w;
    w.integer(v);
    Buffer buf = w.take();
    PerReader r(buf);
    EXPECT_EQ(*r.integer(), v) << v;
  }
}

TEST(Per, LengthDeterminantForms) {
  for (std::size_t n : {0u, 1u, 127u, 128u, 500u, 16383u}) {
    PerWriter w;
    w.length(n);
    Buffer buf = w.take();
    PerReader r(buf);
    EXPECT_EQ(*r.length(), n) << n;
  }
}

TEST(Per, ShortLengthIsOneByte) {
  PerWriter w;
  w.length(127);
  EXPECT_EQ(w.take().size(), 1u);
  PerWriter w2;
  w2.length(128);
  EXPECT_EQ(w2.take().size(), 2u);
}

TEST(Per, OctetStringRoundTrip) {
  Buffer payload(300, 0x5A);
  PerWriter w;
  w.octets(payload);
  Buffer buf = w.take();
  PerReader r(buf);
  auto got = r.octet_view();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(Buffer(got->begin(), got->end()), payload);
}

TEST(Per, StringAndRealAndPresence) {
  PerWriter w;
  w.str("flexric");
  w.real(2.71828);
  w.presence({true, false, true});
  Buffer buf = w.take();
  PerReader r(buf);
  auto s = r.octet_view();
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(std::string(s->begin(), s->end()), "flexric");
  EXPECT_DOUBLE_EQ(*r.real(), 2.71828);
  auto pres = r.presence(3);
  ASSERT_TRUE(pres.is_ok());
  EXPECT_EQ(*pres, 0b101u);  // bit i is the i-th flag
}

TEST(Per, TruncatedInputFailsCleanly) {
  PerWriter w;
  w.octets(Buffer(100, 1));
  Buffer buf = w.take();
  buf.resize(buf.size() / 2);
  PerReader r(buf);
  EXPECT_FALSE(r.octet_view().is_ok());
}

class PerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PerFuzz, MixedFieldsRoundTrip) {
  Rng rng(GetParam());
  // Generate a random schedule of typed fields, encode, decode, compare.
  struct Field {
    int kind;
    std::uint64_t u;
    std::int64_t i;
    std::uint64_t lo, hi;
  };
  std::vector<Field> fields;
  PerWriter w;
  for (int n = 0; n < 60; ++n) {
    Field f{};
    f.kind = static_cast<int>(rng.bounded(4));
    switch (f.kind) {
      case 0: {
        f.lo = rng.bounded(1000);
        f.hi = f.lo + 1 + rng.bounded(1'000'000);
        f.u = f.lo + rng.bounded(f.hi - f.lo + 1);
        w.constrained(f.u, f.lo, f.hi);
        break;
      }
      case 1:
        f.u = rng.next() >> static_cast<int>(rng.bounded(40));
        w.semi_constrained(f.u, 0);
        break;
      case 2:
        f.i = static_cast<std::int64_t>(rng.next());
        w.integer(f.i);
        break;
      case 3:
        f.u = rng.bounded(2);
        w.boolean(f.u != 0);
        break;
    }
    fields.push_back(f);
  }
  Buffer buf = w.take();
  PerReader r(buf);
  for (const Field& f : fields) {
    switch (f.kind) {
      case 0: EXPECT_EQ(*r.constrained(f.lo, f.hi), f.u); break;
      case 1: EXPECT_EQ(*r.semi_constrained(0), f.u); break;
      case 2: EXPECT_EQ(*r.integer(), f.i); break;
      case 3: EXPECT_EQ(*r.boolean(), f.u != 0); break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// FLAT primitives
// ---------------------------------------------------------------------------

TEST(Flat, ScalarAndVarRoundTrip) {
  FlatWriter w;
  w.u8(7);
  w.u32(0xCAFE);
  Buffer blob{1, 2, 3, 4};
  w.var_bytes(blob);
  w.f64(1.5);
  w.var_string("zero-copy");
  Buffer wire = w.finish();

  auto view = FlatView::parse(wire);
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(*view->u8(), 7);
  EXPECT_EQ(*view->u32(), 0xCAFEu);
  auto b = view->var_bytes();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(Buffer(b->begin(), b->end()), blob);
  EXPECT_DOUBLE_EQ(*view->f64(), 1.5);
  auto s = view->var_bytes();
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(std::string(s->begin(), s->end()), "zero-copy");
}

TEST(Flat, VarBytesAreViewsIntoWire) {
  FlatWriter w;
  Buffer blob{9, 9, 9};
  w.var_bytes(blob);
  Buffer wire = w.finish();
  auto view = FlatView::parse(wire);
  auto b = view->var_bytes();
  ASSERT_TRUE(b.is_ok());
  // Zero-copy: the returned span points into the wire buffer.
  EXPECT_GE(b->data(), wire.data());
  EXPECT_LT(b->data(), wire.data() + wire.size());
}

TEST(Flat, EmptyVarField) {
  FlatWriter w;
  w.var_bytes({});
  Buffer wire = w.finish();
  auto view = FlatView::parse(wire);
  auto b = view->var_bytes();
  ASSERT_TRUE(b.is_ok());
  EXPECT_TRUE(b->empty());
}

TEST(Flat, TruncatedHeaderRejected) {
  Buffer wire{1, 2};
  EXPECT_FALSE(FlatView::parse(wire).is_ok());
}

TEST(Flat, CorruptFixedSizeRejected) {
  FlatWriter w;
  w.u32(1);
  Buffer wire = w.finish();
  wire[0] = 0xFF;  // fixed_size now exceeds the table
  wire[1] = 0xFF;
  EXPECT_FALSE(FlatView::parse(wire).is_ok());
}

TEST(Flat, CorruptVarOffsetRejected) {
  FlatWriter w;
  w.var_bytes(Buffer{1, 2, 3});
  Buffer wire = w.finish();
  // Slot layout: [4B size prefix][4B offset][4B len]... corrupt the offset.
  wire[4] = 0xFF;
  wire[5] = 0xFF;
  auto view = FlatView::parse(wire);
  ASSERT_TRUE(view.is_ok());
  EXPECT_FALSE(view->var_bytes().is_ok());
}

TEST(Flat, ScalarPastFixedRegionRejected) {
  FlatWriter w;
  w.u8(1);
  Buffer wire = w.finish();
  auto view = FlatView::parse(wire);
  EXPECT_TRUE(view->u8().is_ok());
  EXPECT_FALSE(view->u8().is_ok());
}

TEST(Flat, OverheadIsSmallAndFixed) {
  // The paper observes 30-40 B FlatBuffers overhead per message; our table
  // costs 4 (size prefix) + 8 per var field.
  FlatWriter w;
  Buffer payload(100, 0xAA);
  w.u32(1);
  w.var_bytes(payload);
  Buffer wire = w.finish();
  EXPECT_EQ(wire.size(), 4u + 4u + 8u + 100u);
}

// ---------------------------------------------------------------------------
// PROTO primitives
// ---------------------------------------------------------------------------

TEST(Proto, FieldRoundTrip) {
  ProtoWriter w;
  w.field_u64(1, 300);
  w.field_i64(2, -5);
  w.field_string(3, "proto");
  w.field_f64(4, 9.75);
  w.field_bool(5, true);
  Buffer wire = w.take();

  ProtoReader r(wire);
  auto f1 = r.next();
  ASSERT_TRUE(f1.is_ok());
  EXPECT_EQ(f1->number, 1u);
  EXPECT_EQ(f1->varint, 300u);
  auto f2 = r.next();
  EXPECT_EQ(ProtoReader::as_i64(*f2), -5);
  auto f3 = r.next();
  EXPECT_EQ(std::string(f3->bytes.begin(), f3->bytes.end()), "proto");
  auto f4 = r.next();
  EXPECT_DOUBLE_EQ(*ProtoReader::as_f64(*f4), 9.75);
  auto f5 = r.next();
  EXPECT_EQ(f5->varint, 1u);
  EXPECT_TRUE(r.at_end());
}

TEST(Proto, CleanEndReportsNotFound) {
  ProtoWriter w;
  w.field_u64(1, 1);
  Buffer wire = w.take();
  ProtoReader r(wire);
  EXPECT_TRUE(r.next().is_ok());
  auto end = r.next();
  ASSERT_FALSE(end.is_ok());
  EXPECT_EQ(end.error().code, Errc::not_found);
}

TEST(Proto, UnknownWireTypeRejected) {
  Buffer wire{(1 << 3) | 5};  // wire type 5 unused
  ProtoReader r(wire);
  auto f = r.next();
  ASSERT_FALSE(f.is_ok());
  EXPECT_EQ(f.error().code, Errc::unsupported);
}

TEST(Proto, NestedMessages) {
  ProtoWriter child;
  child.field_u64(1, 99);
  Buffer child_wire = child.take();
  ProtoWriter parent;
  parent.field_message(7, child_wire);
  Buffer wire = parent.take();

  ProtoReader r(wire);
  auto f = r.next();
  ASSERT_TRUE(f.is_ok());
  EXPECT_EQ(f->number, 7u);
  ProtoReader inner(f->bytes);
  auto g = inner.next();
  EXPECT_EQ(g->varint, 99u);
}

// ---------------------------------------------------------------------------
// Cross-codec size ordering (the premise of Fig. 7)
// ---------------------------------------------------------------------------

TEST(CodecComparison, PerIsSmallerThanFlatForStructuredData) {
  // Encode the same 8 small fields in both codecs.
  PerWriter per;
  FlatWriter flat;
  for (std::uint32_t i = 0; i < 8; ++i) {
    per.constrained(i, 0, 255);
    flat.u8(static_cast<std::uint8_t>(i));
  }
  Buffer per_wire = per.take();
  Buffer flat_wire = flat.finish();
  EXPECT_LT(per_wire.size(), flat_wire.size());
}

// ---------------------------------------------------------------------------
// Adversarial E2AP frame corpus
//
// Table-driven corruption of real Setup / Subscription / Indication frames.
// Each mutation targets a structural byte chosen so that decode MUST return
// an error Result in the targeted codec — never a crash, never a bogus
// success. The SM payload buffers are sized to exactly 100 bytes so the
// PER length determinant of the frame's trailing octet string sits at a
// known offset (size - 101) regardless of what precedes it.
// ---------------------------------------------------------------------------

e2ap::Msg sample_setup_request() {
  e2ap::SetupRequest m;
  m.trans_id = 7;
  m.node = {0x00F110, 0x1A2B, e2ap::NodeType::gnb};
  e2ap::RanFunctionItem fn;
  fn.id = 142;
  fn.revision = 3;
  fn.name = "ORAN-E2SM-MAC-STATS";
  fn.definition = Buffer(100, 0xD0);  // tail octet string
  m.ran_functions.push_back(std::move(fn));
  return m;
}

e2ap::Msg sample_subscription_request() {
  e2ap::SubscriptionRequest m;
  m.request = {21, 4};
  m.ran_function_id = 142;
  m.event_trigger = Buffer{5, 0, 0, 10};
  e2ap::Action a;
  a.id = 1;
  a.type = e2ap::ActionType::report;
  a.definition = Buffer(100, 0x5C);  // tail octet string
  m.actions.push_back(std::move(a));
  return m;
}

e2ap::Msg sample_indication() {
  e2ap::Indication m;
  m.request = {21, 4};
  m.ran_function_id = 142;
  m.action_id = 1;
  m.sn = 4242;
  m.type = e2ap::ActionType::report;
  m.header = Buffer{1, 2, 3, 4};
  m.message = Buffer(100, 0xEE);  // tail octet string (call_process_id absent)
  m.call_process_id = std::nullopt;
  return m;
}

// Mutations. Offsets they rely on:
//   PER:  tag = top 5 bits of byte 0 (constrained 0..20); the trailing
//         100-byte octet string's 1-byte length determinant is at size-101.
//         0xFF there reads as a fragmented determinant (unsupported); 0xBF
//         reads as a ~16 KiB long-form length (truncated).
//   FLAT: [4B LE size prefix = fixed-region size][fixed region, tag first]
//         [var data]. 0xFF in prefix byte 3 inflates the region past the
//         wire; prefix-1 shrinks it so the last fixed-region read runs out.
void drop_half(Buffer& b) { b.resize(b.size() / 2); }
void drop_last(Buffer& b) { b.pop_back(); }
void drop_all(Buffer& b) { b.clear(); }
void per_tag_out_of_range(Buffer& b) { b[0] |= 0xF8; }
void per_length_fragmented(Buffer& b) { b[b.size() - 101] = 0xFF; }
void per_length_overruns(Buffer& b) { b[b.size() - 101] = 0xBF; }
void flat_tag_out_of_range(Buffer& b) { b[4] = 0xFF; }
void flat_prefix_inflated(Buffer& b) { b[3] = 0xFF; }
void flat_prefix_shrunk(Buffer& b) { b[0] -= 1; }

// List-count inflation (wire-taint regression frames). A forged element
// count must be rejected by the codec's count-vs-remaining-payload guard,
// not chew through the loop until the reader runs dry. Offsets:
//   PER subscription: tag 5 bits, req-id 2x2 aligned octets (bytes 1-4),
//     ran-function-id 2 aligned octets (5-6), event-trigger len det (7) +
//     4 bytes (8-11) => action-count length determinant at byte 12. 0x7F
//     claims 127 actions in a ~100-byte tail.
//   FLAT subscription: the actions var blob is the frame tail:
//     u32 count + [u8 id, u8 type, lp definition(1+100)] = 107 bytes, so
//     the count's high LE byte sits at size-104.
//   FLAT setup: ran-functions var blob is the tail: u32 count +
//     [u16 id, u16 rev, lp name(1+19), lp definition(1+100)] = 129 bytes,
//     so the count's high LE byte sits at size-126.
void per_action_count_inflated(Buffer& b) { b[12] = 0x7F; }
void flat_action_count_inflated(Buffer& b) { b[b.size() - 104] = 0xFF; }
void flat_ran_fn_count_inflated(Buffer& b) { b[b.size() - 126] = 0xFF; }

struct AdversarialCase {
  const char* name;
  WireFormat format;
  e2ap::Msg (*make)();
  void (*mutate)(Buffer&);
};

constexpr WireFormat kPer = WireFormat::per;
constexpr WireFormat kFlat = WireFormat::flat;

const AdversarialCase kAdversarialCorpus[] = {
    // PER, truncation
    {"per/setup/drop_half", kPer, sample_setup_request, drop_half},
    {"per/setup/drop_last", kPer, sample_setup_request, drop_last},
    {"per/setup/empty", kPer, sample_setup_request, drop_all},
    {"per/subscription/drop_half", kPer, sample_subscription_request,
     drop_half},
    {"per/subscription/drop_last", kPer, sample_subscription_request,
     drop_last},
    {"per/indication/drop_half", kPer, sample_indication, drop_half},
    {"per/indication/drop_last", kPer, sample_indication, drop_last},
    // PER, bit-flipped tag
    {"per/setup/tag_flip", kPer, sample_setup_request, per_tag_out_of_range},
    {"per/subscription/tag_flip", kPer, sample_subscription_request,
     per_tag_out_of_range},
    {"per/indication/tag_flip", kPer, sample_indication,
     per_tag_out_of_range},
    // PER, corrupted length determinant
    {"per/setup/len_fragmented", kPer, sample_setup_request,
     per_length_fragmented},
    {"per/setup/len_overrun", kPer, sample_setup_request, per_length_overruns},
    {"per/subscription/len_fragmented", kPer, sample_subscription_request,
     per_length_fragmented},
    {"per/subscription/len_overrun", kPer, sample_subscription_request,
     per_length_overruns},
    {"per/indication/len_fragmented", kPer, sample_indication,
     per_length_fragmented},
    {"per/indication/len_overrun", kPer, sample_indication,
     per_length_overruns},
    // FLAT, truncation
    {"flat/setup/drop_half", kFlat, sample_setup_request, drop_half},
    {"flat/setup/drop_last", kFlat, sample_setup_request, drop_last},
    {"flat/setup/empty", kFlat, sample_setup_request, drop_all},
    {"flat/subscription/drop_half", kFlat, sample_subscription_request,
     drop_half},
    {"flat/subscription/drop_last", kFlat, sample_subscription_request,
     drop_last},
    {"flat/indication/drop_half", kFlat, sample_indication, drop_half},
    {"flat/indication/drop_last", kFlat, sample_indication, drop_last},
    // FLAT, bit-flipped tag
    {"flat/setup/tag_flip", kFlat, sample_setup_request,
     flat_tag_out_of_range},
    {"flat/subscription/tag_flip", kFlat, sample_subscription_request,
     flat_tag_out_of_range},
    {"flat/indication/tag_flip", kFlat, sample_indication,
     flat_tag_out_of_range},
    // FLAT, corrupted size prefix (the table's length field)
    {"flat/setup/prefix_inflated", kFlat, sample_setup_request,
     flat_prefix_inflated},
    {"flat/setup/prefix_shrunk", kFlat, sample_setup_request,
     flat_prefix_shrunk},
    {"flat/subscription/prefix_inflated", kFlat, sample_subscription_request,
     flat_prefix_inflated},
    {"flat/subscription/prefix_shrunk", kFlat, sample_subscription_request,
     flat_prefix_shrunk},
    {"flat/indication/prefix_inflated", kFlat, sample_indication,
     flat_prefix_inflated},
    {"flat/indication/prefix_shrunk", kFlat, sample_indication,
     flat_prefix_shrunk},
    // Inflated list counts (wire-taint regressions)
    {"per/subscription/count_inflated", kPer, sample_subscription_request,
     per_action_count_inflated},
    {"flat/subscription/count_inflated", kFlat, sample_subscription_request,
     flat_action_count_inflated},
    {"flat/setup/count_inflated", kFlat, sample_setup_request,
     flat_ran_fn_count_inflated},
};

class AdversarialFrames
    : public ::testing::TestWithParam<AdversarialCase> {};

TEST_P(AdversarialFrames, CorruptedFrameDecodesToError) {
  const AdversarialCase& c = GetParam();
  const e2ap::Codec& codec = e2ap::codec_for(c.format);
  e2ap::Msg msg = c.make();

  auto wire = codec.encode(msg);
  ASSERT_TRUE(wire.is_ok()) << c.name;
  // Sanity: the pristine frame round-trips before we break it.
  auto pristine = codec.decode(*wire);
  ASSERT_TRUE(pristine.is_ok()) << c.name;
  ASSERT_TRUE(*pristine == msg) << c.name;

  Buffer corrupted = *wire;
  c.mutate(corrupted);
  auto dec = codec.decode(corrupted);
  EXPECT_FALSE(dec.is_ok())
      << c.name << ": corrupted frame decoded successfully";
}

// The inflated-count frames must be rejected by the up-front count guard
// (error text "list count exceeds payload"), proving the forged count never
// becomes a loop bound — not merely fail later when the reader runs dry.
TEST(AdversarialFrames, InflatedCountRejectedByGuard) {
  struct Case {
    WireFormat format;
    e2ap::Msg (*make)();
    void (*mutate)(Buffer&);
  } cases[] = {
      {kPer, sample_subscription_request, per_action_count_inflated},
      {kFlat, sample_subscription_request, flat_action_count_inflated},
      {kFlat, sample_setup_request, flat_ran_fn_count_inflated},
  };
  for (const auto& c : cases) {
    const e2ap::Codec& codec = e2ap::codec_for(c.format);
    auto wire = codec.encode(c.make());
    ASSERT_TRUE(wire.is_ok());
    Buffer corrupted = *wire;
    c.mutate(corrupted);
    auto dec = codec.decode(corrupted);
    ASSERT_FALSE(dec.is_ok());
    EXPECT_NE(dec.error().message.find("count exceeds payload"),
              std::string::npos)
        << "got: " << dec.error().message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, AdversarialFrames, ::testing::ValuesIn(kAdversarialCorpus),
    [](const ::testing::TestParamInfo<AdversarialCase>& param_info) {
      std::string s = param_info.param.name;
      for (char& ch : s)
        if (ch == '/') ch = '_';
      return s;
    });

// Exhaustive truncation sweep: EVERY strict prefix of a valid frame must
// decode to an error in both codecs. (PER frames carry no pure-padding
// trailing bytes; FLAT frames account for every byte in the fixed region or
// a var span — so losing any suffix is always detectable.)
TEST(AdversarialFramesSweep, EveryStrictPrefixFailsToDecode) {
  e2ap::Msg (*const makers[])() = {sample_setup_request,
                                   sample_subscription_request,
                                   sample_indication};
  for (auto make : makers) {
    e2ap::Msg msg = make();
    for (auto format : {kPer, kFlat}) {
      const e2ap::Codec& codec = e2ap::codec_for(format);
      auto wire = codec.encode(msg);
      ASSERT_TRUE(wire.is_ok());
      for (std::size_t n = 0; n < wire->size(); ++n) {
        BytesView prefix{wire->data(), n};
        EXPECT_FALSE(codec.decode(prefix).is_ok())
            << e2ap::msg_type_name(e2ap::msg_type(msg)) << " prefix len " << n
            << " of " << wire->size() << " ("
            << (format == kPer ? "per" : "flat") << ")";
      }
    }
  }
}

}  // namespace
}  // namespace flexric
