// Unit tests for src/common: buffers, bit I/O, results, metrics, RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/bit_io.hpp"
#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace flexric {
namespace {

// ---------------------------------------------------------------------------
// Result / Status
// ---------------------------------------------------------------------------

TEST(Result, OkHoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, ErrorPropagates) {
  Result<int> r = Error{Errc::truncated, "oops"};
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.error().code, Errc::truncated);
  EXPECT_EQ(r.error().message, "oops");
  EXPECT_EQ(r.status().to_string(), "truncated: oops");
}

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.to_string(), "ok");
}

TEST(Status, ErrcNamesAreStable) {
  EXPECT_STREQ(errc_name(Errc::ok), "ok");
  EXPECT_STREQ(errc_name(Errc::malformed), "malformed");
  EXPECT_STREQ(errc_name(Errc::capacity), "capacity");
}

// ---------------------------------------------------------------------------
// BufWriter / BufReader
// ---------------------------------------------------------------------------

TEST(Buffer, ScalarRoundTrip) {
  BufWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.25);
  Buffer buf = w.take();
  BufReader r(buf);
  EXPECT_EQ(*r.u8(), 0xAB);
  EXPECT_EQ(*r.u16(), 0x1234);
  EXPECT_EQ(*r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.i64(), -42);
  EXPECT_EQ(*r.f64(), 3.25);
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, BigEndianRoundTrip) {
  BufWriter w;
  w.u16_be(0x1234);
  w.u32_be(0xCAFEBABE);
  Buffer buf = w.take();
  EXPECT_EQ(buf[0], 0x12);  // actually big-endian on the wire
  BufReader r(buf);
  EXPECT_EQ(*r.u16_be(), 0x1234);
  EXPECT_EQ(*r.u32_be(), 0xCAFEBABEu);
}

TEST(Buffer, ReadPastEndIsError) {
  Buffer buf{1, 2};
  BufReader r(buf);
  EXPECT_TRUE(r.u16().is_ok());
  auto res = r.u8();
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.error().code, Errc::truncated);
}

TEST(Buffer, VarintRoundTripBoundaries) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xFFFFFFFFULL,
        0xFFFFFFFFFFFFFFFFULL}) {
    BufWriter w;
    w.uvarint(v);
    Buffer buf = w.take();
    BufReader r(buf);
    EXPECT_EQ(*r.uvarint(), v) << v;
  }
}

TEST(Buffer, SignedVarintRoundTrip) {
  for (std::int64_t v : std::initializer_list<std::int64_t>{0, -1, 1, -64, 64, INT64_MIN, INT64_MAX}) {
    BufWriter w;
    w.svarint(v);
    Buffer buf = w.take();
    BufReader r(buf);
    EXPECT_EQ(*r.svarint(), v) << v;
  }
}

TEST(Buffer, VarintOverlongIsMalformed) {
  Buffer buf(11, 0x80);  // 11 continuation bytes, never terminates
  BufReader r(buf);
  auto res = r.uvarint();
  ASSERT_FALSE(res.is_ok());
}

TEST(Buffer, LengthPrefixedBytesAndStrings) {
  BufWriter w;
  w.lp_string("hello");
  Buffer payload{9, 8, 7};
  w.lp_bytes(payload);
  Buffer buf = w.take();
  BufReader r(buf);
  auto s = r.lp_bytes();
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(std::string(s->begin(), s->end()), "hello");
  auto b = r.lp_bytes();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(Buffer(b->begin(), b->end()), payload);
}

TEST(Buffer, PatchU32) {
  BufWriter w;
  std::size_t off = w.skip(4);
  w.u8(0xFF);
  w.patch_u32(off, 0xABCD1234);
  Buffer buf = w.take();
  BufReader r(buf);
  EXPECT_EQ(*r.u32(), 0xABCD1234u);
}

TEST(Buffer, HexDump) {
  Buffer buf{0x00, 0xFF, 0x5A};
  EXPECT_EQ(to_hex(buf), "00ff5a");
}

// ---------------------------------------------------------------------------
// Bit I/O
// ---------------------------------------------------------------------------

TEST(BitIo, SingleBits) {
  BitWriter w;
  w.bit(true);
  w.bit(false);
  w.bit(true);
  Buffer buf = w.take();
  BitReader r(buf);
  EXPECT_TRUE(*r.bit());
  EXPECT_FALSE(*r.bit());
  EXPECT_TRUE(*r.bit());
}

TEST(BitIo, CrossByteBoundary) {
  BitWriter w;
  w.bits(0x3FF, 10);  // 10 bits spanning two bytes
  w.bits(0x5, 3);
  Buffer buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(*r.bits(10), 0x3FFu);
  EXPECT_EQ(*r.bits(3), 0x5u);
}

TEST(BitIo, SixtyFourBitValues) {
  BitWriter w;
  w.bits(0xFEDCBA9876543210ULL, 64);
  Buffer buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(*r.bits(64), 0xFEDCBA9876543210ULL);
}

TEST(BitIo, SixtyFourBitBoundaryUnaligned) {
  // A full 64-bit field crossing byte boundaries: the widest legal width
  // combined with the worst alignment (shift-count UB regression test).
  BitWriter w;
  w.bits(0b101, 3);
  w.bits(~std::uint64_t{0}, 64);
  w.bits(0x1, 1);
  Buffer buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(*r.bits(3), 0b101u);
  EXPECT_EQ(*r.bits(64), ~std::uint64_t{0});
  EXPECT_EQ(*r.bits(1), 0x1u);
}

TEST(BitIo, ZeroBitFieldsWriteAndReadNothing) {
  BitWriter w;
  w.bits(0xFFFF, 0);  // value is ignored entirely
  EXPECT_EQ(w.bit_size(), 0u);
  w.bits(0b11, 2);
  w.bits(0x123, 0);
  Buffer buf = w.take();
  EXPECT_EQ(buf.size(), 1u);
  BitReader r(buf);
  EXPECT_EQ(*r.bits(0), 0u);
  EXPECT_EQ(*r.bits(2), 0b11u);
  EXPECT_EQ(*r.bits(0), 0u);
  EXPECT_EQ(r.bits_remaining(), 6u);
}

TEST(BitIo, LowBitsMaskBoundaries) {
  EXPECT_EQ(low_bits_mask(0), 0u);
  EXPECT_EQ(low_bits_mask(1), 1u);
  EXPECT_EQ(low_bits_mask(63), ~std::uint64_t{0} >> 1);
  EXPECT_EQ(low_bits_mask(64), ~std::uint64_t{0});
}

TEST(BitIo, ReaderRejectsWidthsAbove64) {
  Buffer buf(16, 0xFF);
  BitReader r(buf);
  auto res = r.bits(65);  // width could come from corrupted wire data
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.error().code, Errc::out_of_range);
  // The reader is still usable afterwards.
  EXPECT_EQ(*r.bits(8), 0xFFu);
}

TEST(BitIo, AlignmentPadsWithZeros) {
  BitWriter w;
  w.bits(0b101, 3);
  w.align();
  w.bits(0xAB, 8);
  Buffer buf = w.take();
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0b10100000);
  EXPECT_EQ(buf[1], 0xAB);
  BitReader r(buf);
  EXPECT_EQ(*r.bits(3), 0b101u);
  r.align();
  EXPECT_EQ(*r.bits(8), 0xABu);
}

TEST(BitIo, ReadPastEndFails) {
  Buffer buf{0xFF};
  BitReader r(buf);
  EXPECT_TRUE(r.bits(8).is_ok());
  EXPECT_FALSE(r.bits(1).is_ok());
}

TEST(BitIo, BytesRequireAlignment) {
  BitWriter w;
  w.bits(0xAA, 8);
  Buffer data{1, 2, 3};
  ASSERT_TRUE(w.bytes(data).is_ok());
  Buffer buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(*r.bits(8), 0xAAu);
  auto b = r.bytes(3);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(Buffer(b->begin(), b->end()), data);
}

TEST(BitIo, UnalignedBytesIsRecoverableError) {
  // Formerly an abort; malformed wire input must never take the process down.
  BitWriter w;
  w.bit(true);
  Buffer data{1, 2, 3};
  Status st = w.bytes(data);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::malformed);
  w.align();
  EXPECT_TRUE(w.bytes(data).is_ok());

  Buffer buf = w.take();
  BitReader r(buf);
  ASSERT_TRUE(r.bit().is_ok());  // now mid-byte
  auto b = r.bytes(1);
  ASSERT_FALSE(b.is_ok());
  EXPECT_EQ(b.error().code, Errc::malformed);
  r.align();
  EXPECT_TRUE(r.bytes(3).is_ok());
}

TEST(BitIo, BitsForRange) {
  EXPECT_EQ(bits_for_range(1), 0u);
  EXPECT_EQ(bits_for_range(2), 1u);
  EXPECT_EQ(bits_for_range(3), 2u);
  EXPECT_EQ(bits_for_range(256), 8u);
  EXPECT_EQ(bits_for_range(257), 9u);
}

/// Property: any random bit pattern round-trips.
class BitIoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitIoFuzz, RandomPatternsRoundTrip) {
  Rng rng(GetParam());
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 100; ++i) {
    unsigned nbits = 1 + static_cast<unsigned>(rng.bounded(64));
    std::uint64_t v = rng.next();
    if (nbits < 64) v &= (1ULL << nbits) - 1;
    fields.emplace_back(v, nbits);
    w.bits(v, nbits);
  }
  Buffer buf = w.take();
  BitReader r(buf);
  for (auto [v, nbits] : fields) {
    auto got = r.bits(nbits);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(*got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIoFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Bit-at-a-time reference model of BitWriter/BitReader: one std::vector<bool>
// entry per bit, no words, no fast paths.
struct RefWriter {
  std::vector<bool> bits;
  void put(std::uint64_t v, unsigned n) {
    for (unsigned i = n; i-- > 0;) bits.push_back((v >> i) & 1);
  }
  void align() {
    while (bits.size() % 8) bits.push_back(false);
  }
  Buffer take() {
    align();
    Buffer out(bits.size() / 8, 0);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (bits[i]) out[i / 8] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
    return out;
  }
};

struct RefReader {
  const Buffer& data;
  std::size_t pos = 0;
  // Value or error code of bits(n); advances only on success.
  Result<std::uint64_t> bits(unsigned n) {
    if (n > 64) return Errc::out_of_range;
    if (data.size() * 8 - pos < n) return Errc::truncated;
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i, ++pos)
      v = (v << 1) | ((data[pos / 8] >> (7 - pos % 8)) & 1);
    return v;
  }
  Result<std::size_t> bytes(std::size_t n) {  // start offset on success
    if (pos % 8) return Errc::malformed;
    if (pos / 8 + n > data.size()) return Errc::truncated;
    std::size_t start = pos / 8;
    pos += 8 * n;
    return start;
  }
};

class BitIoReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitIoReference, WriterMatchesBitAtATimeModel) {
  Rng rng(GetParam());
  for (unsigned lead = 0; lead < 64; ++lead) {  // every starting bit offset
    BitWriter w;
    RefWriter ref;
    std::uint64_t lead_v = rng.next();
    w.bits(lead_v, lead);
    ref.put(lead_v & low_bits_mask(lead), lead);
    for (int op = 0; op < 60; ++op) {
      std::uint64_t v = rng.next();
      unsigned n = static_cast<unsigned>(rng.bounded(65));  // 0..64
      if (rng.chance(0.1)) {
        w.align();
        ref.align();
      } else if (rng.chance(0.05) && w.aligned()) {
        Buffer raw(rng.bounded(20), static_cast<std::uint8_t>(v));
        ASSERT_TRUE(w.bytes(raw).is_ok());
        for (std::uint8_t b : raw) ref.put(b, 8);
      } else {
        w.bits(v, n);
        ref.put(v & low_bits_mask(n), n);
      }
      ASSERT_EQ(w.bit_size(), ref.bits.size());
      ASSERT_EQ(w.aligned(), ref.bits.size() % 8 == 0);
    }
    ASSERT_EQ(w.take(), ref.take()) << "lead-in " << lead;
  }
}

TEST_P(BitIoReference, ReaderMatchesBitAtATimeModel) {
  Rng rng(GetParam());
  // Short buffers keep most reads inside the last 8 bytes, where the 64-bit
  // window cannot be loaded; long ones exercise the window.
  for (std::size_t len : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 40u}) {
    for (unsigned lead = 0; lead < 64; ++lead) {  // every starting bit offset
      Buffer data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      BitReader r(data);
      RefReader ref{data};
      const unsigned skip = std::min(lead, static_cast<unsigned>(len * 8));
      auto a = r.bits(skip);
      auto b = ref.bits(skip);
      ASSERT_TRUE(a.is_ok() && b.is_ok());
      ASSERT_EQ(*a, *b);
      for (int op = 0; op < 40; ++op) {
        std::uint64_t pick = rng.bounded(100);
        if (pick < 5) {
          r.align();
          ref.pos = (ref.pos + 7) / 8 * 8;
        } else if (pick < 12) {
          std::size_t n = rng.bounded(12);
          auto got = r.bytes(n);
          auto want = ref.bytes(n);
          ASSERT_EQ(got.is_ok(), want.is_ok());
          if (got.is_ok())
            ASSERT_EQ(got->data(), data.data() + *want);
          else
            ASSERT_EQ(got.error().code, want.error().code);
        } else if (pick < 20) {
          auto got = r.bit();
          auto want = ref.bits(1);
          ASSERT_EQ(got.is_ok(), want.is_ok());
          if (got.is_ok())
            ASSERT_EQ(*got, *want != 0);
          else
            ASSERT_EQ(got.error().code, want.error().code);
        } else {
          // Mostly legal widths, sometimes too wide.
          unsigned n = static_cast<unsigned>(
              pick < 95 ? rng.bounded(65) : 65 + rng.bounded(200));
          auto got = r.bits(n);
          auto want = ref.bits(n);
          ASSERT_EQ(got.is_ok(), want.is_ok()) << "width " << n;
          if (got.is_ok())
            ASSERT_EQ(*got, *want) << "width " << n << " at bit " << ref.pos;
          else
            ASSERT_EQ(got.error().code, want.error().code) << "width " << n;
        }
        ASSERT_EQ(r.bits_remaining(), len * 8 - ref.pos);
        ASSERT_EQ(r.aligned(), ref.pos % 8 == 0);
      }
    }
  }
}

TEST(BitIo, ReadsEndingInTheLastEightBytes) {
  // Every (offset, width) whose last bit lands in the final 8 bytes of a
  // 24-byte buffer, plus the first width that runs one bit past the end.
  Buffer data(24);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 29));
  for (std::size_t start = 64; start < data.size() * 8; ++start) {
    for (unsigned n = 0; n <= 64; ++n) {
      if (start + n <= 128) continue;
      BitReader r(data);
      RefReader ref{data};
      for (std::size_t p = 0; p < start;) {
        auto k = static_cast<unsigned>(std::min<std::size_t>(64, start - p));
        ASSERT_TRUE(r.bits(k).is_ok());
        p += k;
      }
      ref.pos = start;
      auto got = r.bits(n);
      auto want = ref.bits(n);
      ASSERT_EQ(got.is_ok(), want.is_ok()) << start << "+" << n;
      if (got.is_ok())
        ASSERT_EQ(*got, *want) << start << "+" << n;
      else
        ASSERT_EQ(got.error().code, Errc::truncated) << start << "+" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIoReference,
                         ::testing::Values(1, 7, 42, 1234));

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Histogram, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.9), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
  EXPECT_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()), 0.0);
  EXPECT_TRUE(h.cdf().empty());
  EXPECT_TRUE(h.cdf(0).empty());
}

TEST(Histogram, EmptyAfterClearIsZero) {
  Histogram h;
  h.record(7.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_TRUE(h.cdf().empty());
}

TEST(Histogram, QuantileClampsAndRejectsNan) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0}) h.record(v);
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 3.0);
  // NaN must not flow into the index computation; treated as q = 0.
  EXPECT_DOUBLE_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()), 1.0);
}

TEST(Histogram, ReservePreallocatesWithoutRecording) {
  Histogram h;
  h.reserve(1000);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_GE(h.samples().capacity(), 1000u);
  h.record(2.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(Histogram, CdfWithZeroPointsIsEmptyEvenWithSamples) {
  Histogram h;
  h.record(1.0);
  EXPECT_TRUE(h.cdf(0).empty());
}

TEST(Histogram, CdfIsMonotone) {
  Histogram h;
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(0, 100));
  auto cdf = h.cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(RateMeter, MbpsComputation) {
  RateMeter m;
  m.record(125'000);  // 1 Mbit
  EXPECT_DOUBLE_EQ(m.mbps(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(m.mbps(kSecond / 2), 2.0);
}

TEST(CpuMeter, MeasuresBusyWork) {
  CpuMeter meter;
  meter.start();
  volatile double x = 1.0;
  for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001;
  meter.stop();
  EXPECT_GT(meter.cpu_nanos(), 0);
  EXPECT_GT(meter.wall_nanos(), 0);
  EXPECT_GT(meter.cpu_percent(), 1.0);
}

TEST(VirtualClock, AdvancesDeterministically) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(kMilli);
  clock.advance(kMilli);
  EXPECT_EQ(clock.now(), 2 * kMilli);
  clock.set(kSecond);
  EXPECT_EQ(clock.now(), kSecond);
}

TEST(Clocks, MonotoneAndRssAvailable) {
  Nanos a = mono_now();
  Nanos b = mono_now();
  EXPECT_GE(b, a);
  EXPECT_GT(rss_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, BoundedRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.bounded(17), 17u);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace flexric
