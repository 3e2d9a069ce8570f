// ASN.1 aligned-PER-style codec primitives.
//
// Implements the encoding rules the E2AP/E2SM message codecs are written
// against: constrained whole numbers in minimal bit fields, aligned octet
// fields for ranges above 255, general length determinants (ITU-T X.691
// §11.9 short/long forms), optional-presence bitmaps, and octet strings.
// Decode parses every field into the IR, which is the ASN.1 PER cost that
// Figs. 7 and 8b of the paper measure; the bit engine underneath
// (common/bit_io.hpp) moves 64-bit words, and octet strings are bulk copies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bit_io.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"

namespace flexric {

/// PER encoder. Methods mirror X.691 production rules.
class PerWriter {
 public:
  /// BOOLEAN — single bit.
  void boolean(bool b) { bw_.bit(b); }

  /// Constrained whole number in [lo, hi] (X.691 §11.5, aligned variant):
  /// range 1 encodes nothing; range <= 256 encodes ceil(log2(range)) bits;
  /// range <= 65536 aligns and encodes 2 octets; larger ranges encode a
  /// minimal-octet count followed by the aligned value.
  void constrained(std::uint64_t v, std::uint64_t lo, std::uint64_t hi);

  /// Semi-constrained whole number >= lo: length determinant + minimal
  /// octets (X.691 §11.7).
  void semi_constrained(std::uint64_t v, std::uint64_t lo);

  /// Unconstrained signed integer: length + two's-complement octets.
  void integer(std::int64_t v);

  /// ENUMERATED with n values (encoded as constrained [0, n-1]).
  void enumerated(std::uint32_t v, std::uint32_t n) {
    constrained(v, 0, n == 0 ? 0 : n - 1);
  }

  /// General length determinant (X.691 §11.9, values < 16384).
  void length(std::size_t n);

  /// OCTET STRING with length determinant (aligned). The length determinant
  /// leaves the writer byte-aligned, so the bytes are one bulk copy, as in
  /// asn1c's aligned-PER encoder.
  void octets(BytesView b);

  /// UTF8String-as-octets.
  void str(std::string_view s) {
    octets({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Presence bitmap for a SEQUENCE with optional fields.
  void presence(std::initializer_list<bool> flags) {
    for (bool f : flags) bw_.bit(f);
  }

  /// IEEE-754 double as 8 aligned octets (REAL simplification: E2 SMs carry
  /// measurements; this keeps decode exact for round-trip testing).
  void real(double v);

  Buffer take() { return bw_.take(); }
  [[nodiscard]] std::size_t bit_size() const noexcept { return bw_.bit_size(); }

 private:
  BitWriter bw_;
};

/// PER decoder; mirror of PerWriter.
// @view_of(the byte view passed to the constructor)
class PerReader {
 public:
  explicit PerReader(BytesView b) : br_(b) {}

  Result<bool> boolean() { return br_.bit(); }
  Result<std::uint64_t> constrained(std::uint64_t lo, std::uint64_t hi);
  Result<std::uint64_t> semi_constrained(std::uint64_t lo);
  Result<std::int64_t> integer();
  Result<std::uint32_t> enumerated(std::uint32_t n);
  Result<std::size_t> length();
  /// OCTET STRING (and a string's bytes): length determinant + aligned
  /// bytes, viewed in place.
  Result<BytesView> octet_view();
  /// Presence bitmap of up to 64 optional fields: bit i of the result is the
  /// i-th flag written by PerWriter::presence.
  Result<std::uint64_t> presence(std::size_t n);
  Result<double> real();

  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return br_.bits_remaining();
  }

 private:
  BitReader br_;
};

}  // namespace flexric
