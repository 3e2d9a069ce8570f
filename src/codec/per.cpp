#include "codec/per.hpp"

#include <bit>
#include <cstring>

namespace flexric {

namespace {
/// Minimal number of octets holding v (at least one).
unsigned octets_for(std::uint64_t v) noexcept {
  return v == 0 ? 1 : (static_cast<unsigned>(std::bit_width(v)) + 7) / 8;
}
}  // namespace

void PerWriter::constrained(std::uint64_t v, std::uint64_t lo,
                            std::uint64_t hi) {
  // lint: allow(wire-assert) encode-side precondition on locally built IR
  FLEXRIC_ASSERT(lo <= hi, "constrained: lo > hi");
  // lint: allow(wire-assert) encode-side precondition on locally built IR
  FLEXRIC_ASSERT(v >= lo && v <= hi, "constrained: value out of range");
  std::uint64_t range = hi - lo + 1;  // note: full 2^64 range unsupported
  std::uint64_t off = v - lo;
  if (range == 1) return;  // encodes nothing
  if (range <= 256) {
    bw_.bits(off, bits_for_range(range));
    return;
  }
  if (range <= 65536) {
    bw_.align();
    bw_.bits(off, 16);
    return;
  }
  // Large range: minimal octet count (as a small constrained int) + value.
  unsigned max_oct = octets_for(hi - lo);
  unsigned noct = octets_for(off);
  bw_.bits(noct - 1, bits_for_range(max_oct));
  bw_.align();
  bw_.bits(off, 8 * noct);
}

void PerWriter::semi_constrained(std::uint64_t v, std::uint64_t lo) {
  // lint: allow(wire-assert) encode-side precondition on locally built IR
  FLEXRIC_ASSERT(v >= lo, "semi_constrained: value below lower bound");
  std::uint64_t off = v - lo;
  unsigned noct = octets_for(off);
  length(noct);
  bw_.align();
  bw_.bits(off, 8 * noct);
}

void PerWriter::integer(std::int64_t v) {
  // Minimal two's-complement octets.
  unsigned noct = 1;
  while (noct < 8) {
    std::int64_t shifted = v >> (8 * noct - 1);
    if (shifted == 0 || shifted == -1) break;
    ++noct;
  }
  length(noct);
  bw_.align();
  bw_.bits(static_cast<std::uint64_t>(v), 8 * noct);
}

void PerWriter::length(std::size_t n) {
  // lint: allow(wire-assert) encode-side precondition on locally built IR
  FLEXRIC_ASSERT(n < 16384, "length determinant >= 16384 unsupported");
  bw_.align();
  if (n < 128) {
    bw_.bits(n, 8);
  } else {
    bw_.bits(0b10, 2);
    bw_.bits(n, 14);
  }
}

void PerWriter::octets(BytesView b) {
  length(b.size());
  (void)bw_.bytes(b);  // cannot fail: length() leaves the writer aligned
}

void PerWriter::real(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  bw_.align();
  bw_.bits(bits, 64);
}

Result<std::uint64_t> PerReader::constrained(std::uint64_t lo,
                                             std::uint64_t hi) {
  if (lo > hi) return Error{Errc::out_of_range, "constrained: lo > hi"};
  std::uint64_t range = hi - lo + 1;
  if (range == 1) return lo;
  if (range <= 256) {
    auto r = br_.bits(bits_for_range(range));
    if (!r) return r.error();
    if (*r >= range) return Error{Errc::out_of_range, "constrained overflow"};
    return lo + *r;
  }
  if (range <= 65536) {
    br_.align();
    auto r = br_.bits(16);
    if (!r) return r.error();
    if (*r >= range) return Error{Errc::out_of_range, "constrained overflow"};
    return lo + *r;
  }
  unsigned max_oct = octets_for(hi - lo);
  auto noct_r = br_.bits(bits_for_range(max_oct));
  if (!noct_r) return noct_r.error();
  unsigned noct = static_cast<unsigned>(*noct_r) + 1;
  if (noct > 8) return Error{Errc::malformed, "octet count too large"};
  br_.align();
  auto v = br_.bits(8 * noct);
  if (!v) return v.error();
  if (*v > hi - lo) return Error{Errc::out_of_range, "constrained overflow"};
  return lo + *v;
}

Result<std::uint64_t> PerReader::semi_constrained(std::uint64_t lo) {
  auto n = length();
  if (!n) return n.error();
  if (*n == 0 || *n > 8) return Error{Errc::malformed, "bad octet count"};
  br_.align();
  auto v = br_.bits(static_cast<unsigned>(8 * *n));
  if (!v) return v.error();
  return lo + *v;
}

Result<std::int64_t> PerReader::integer() {
  auto n = length();
  if (!n) return n.error();
  if (*n == 0 || *n > 8) return Error{Errc::malformed, "bad octet count"};
  br_.align();
  auto v = br_.bits(static_cast<unsigned>(8 * *n));
  if (!v) return v.error();
  // Sign-extend from 8*n bits.
  unsigned bits = static_cast<unsigned>(8 * *n);
  std::uint64_t u = *v;
  if (bits < 64 && (u & (std::uint64_t{1} << (bits - 1))))
    u |= ~((std::uint64_t{1} << bits) - 1);
  return static_cast<std::int64_t>(u);
}

Result<std::uint32_t> PerReader::enumerated(std::uint32_t n) {
  auto r = constrained(0, n == 0 ? 0 : n - 1);
  if (!r) return r.error();
  return static_cast<std::uint32_t>(*r);
}

Result<std::size_t> PerReader::length() {
  br_.align();
  auto first = br_.bits(8);
  if (!first) return first.error();
  if ((*first & 0x80) == 0) return static_cast<std::size_t>(*first);
  if ((*first & 0xC0) == 0x80) {
    auto second = br_.bits(8);
    if (!second) return second.error();
    return static_cast<std::size_t>(((*first & 0x3F) << 8) | *second);
  }
  return Error{Errc::unsupported, "fragmented length determinant"};
}

Result<BytesView> PerReader::octet_view() {
  auto n = length();
  if (!n) return n.error();
  return br_.bytes(*n);
}

Result<std::uint64_t> PerReader::presence(std::size_t n) {
  if (n > 64)
    return Error{Errc::out_of_range, "presence bitmap wider than 64 bits"};
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto b = br_.bit();
    if (!b) return b.error();
    if (*b) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

Result<double> PerReader::real() {
  br_.align();
  auto r = br_.bits(64);
  if (!r) return r.error();
  double d;
  std::uint64_t bits = *r;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

}  // namespace flexric
