// Bit-level I/O used by the ASN.1-PER-style codec.
//
// PER packs constrained integers into the minimal number of bits, so the
// codec needs sub-byte addressing. Writers pad to a byte boundary only when
// explicitly asked (aligned-PER alignment points).
//
// Both directions move a 64-bit word at a time. The reader loads one
// big-endian word at the current byte and shifts the field out of it; only
// reads within the last 8 bytes of the buffer, or unaligned reads that spill
// past the loaded word, take the bit-by-byte slow path. The writer collects
// bits in a 64-bit accumulator and appends whole words. Aligned byte runs
// (octet strings) are one bulk copy in each direction.
//
// The reader side consumes wire data and therefore never aborts: every
// malformed request (width > 64, unaligned byte read, read past end) is
// reported as a recoverable Result/Status error. Writer-side width/alignment
// misuse is a programming error on locally produced data and still asserts.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/buffer.hpp"
#include "common/result.hpp"

namespace flexric {

/// Mask selecting the low `nbits` bits; well-defined for the whole [0, 64]
/// range (shifting a uint64_t by 64 is UB, so both boundaries are special-
/// cased here instead of at every call site).
[[nodiscard]] constexpr std::uint64_t low_bits_mask(unsigned nbits) noexcept {
  if (nbits == 0) return 0;
  if (nbits >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << nbits) - 1;
}

/// Byte-order swap between host and big-endian (network) order.
[[nodiscard]] constexpr std::uint64_t host_to_be64(std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little)
    return __builtin_bswap64(v);
  return v;
}

/// MSB-first bit writer appending to an owned Buffer.
class BitWriter {
 public:
  /// Write the low `nbits` bits of v, MSB first. nbits in [0, 64];
  /// nbits == 0 writes nothing. Wider requests assert (encode-side
  /// precondition on local data).
  void bits(std::uint64_t v, unsigned nbits) {
    FLEXRIC_ASSERT(nbits <= 64, "nbits > 64");
    if (nbits == 0) return;
    v &= ~std::uint64_t{0} >> (64 - nbits);
    if (nbits < 64 - nacc_) {  // fits, and the accumulator keeps a free bit
      acc_ |= v << (64 - nacc_ - nbits);
      nacc_ += nbits;
      return;
    }
    spill(v, nbits);
  }
  /// Write a single bit.
  void bit(bool b) { bits(b ? 1 : 0, 1); }
  /// Pad with zero bits to the next byte boundary (aligned-PER alignment).
  void align();
  /// Append whole bytes. Requires byte alignment; returns an error Status
  /// (and writes nothing) otherwise.
  [[nodiscard]] Status bytes(BytesView b);

  [[nodiscard]] std::size_t bit_size() const noexcept {
    return buf_.size() * 8 + nacc_;
  }
  [[nodiscard]] bool aligned() const noexcept { return nacc_ % 8 == 0; }
  /// Finish: pads to byte boundary and returns the buffer.
  Buffer take();

 private:
  void spill(std::uint64_t v, unsigned nbits);
  /// Append the first `n` bytes of the accumulator (n <= 8; all its whole
  /// bytes) and empty it.
  void flush_acc(unsigned n);

  Buffer buf_;                // completed bytes
  std::uint64_t acc_ = 0;     // pending bits, MSB-aligned; unused bits are 0
  unsigned nacc_ = 0;         // number of pending bits, in [0, 63]
};

/// MSB-first bit reader over a byte view. All failure modes — including
/// decoder-requested widths outside [0, 64] — are recoverable errors, never
/// aborts: the requests may be derived from untrusted wire data.
// @view_of(the byte view passed to the constructor)
class BitReader {
 public:
  explicit BitReader(BytesView b) : data_(b) {}

  /// Read `nbits` bits MSB-first into the low bits of the result.
  /// nbits == 0 reads nothing and yields 0; nbits > 64 is out_of_range.
  Result<std::uint64_t> bits(unsigned nbits) {
    const std::size_t byte = bitpos_ / 8;
    const unsigned off = static_cast<unsigned>(bitpos_ % 8);
    // One 64-bit load covers the field: nbits in [1, 64 - off] and 8 bytes
    // left from the current byte (which also rules out reading past end).
    if (nbits - 1 < 64 - off && data_.size() - byte >= 8) {
      std::uint64_t w;
      std::memcpy(&w, data_.data() + byte, sizeof w);
      bitpos_ += nbits;
      return (host_to_be64(w) << off) >> (64 - nbits);
    }
    return bits_slow(nbits);
  }
  Result<bool> bit() {
    if (bitpos_ < data_.size() * 8) {
      bool b = (data_[bitpos_ / 8] >> (7 - bitpos_ % 8)) & 1;
      ++bitpos_;
      return b;
    }
    return Error{Errc::truncated, "bit read past end"};
  }
  /// Skip to the next byte boundary.
  void align();
  /// Read whole bytes. Requires byte alignment; fails with malformed
  /// otherwise (no abort).
  Result<BytesView> bytes(std::size_t n);

  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return data_.size() * 8 - bitpos_;
  }
  [[nodiscard]] bool aligned() const noexcept { return bitpos_ % 8 == 0; }

 private:
  /// Every read the 64-bit window cannot serve, with all the checks.
  Result<std::uint64_t> bits_slow(unsigned nbits);

  BytesView data_;
  std::size_t bitpos_ = 0;  // absolute bit position, <= data_.size() * 8
};

/// Number of bits needed to represent values in [0, range-1]; 0 for range<=1.
[[nodiscard]] constexpr unsigned bits_for_range(std::uint64_t range) noexcept {
  return range <= 1 ? 0 : static_cast<unsigned>(std::bit_width(range - 1));
}

}  // namespace flexric
