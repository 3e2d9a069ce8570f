// Byte buffers and bounds-checked readers/writers.
//
// All wire codecs (PER, FLAT, PROTO) and the transport framing are built on
// these primitives. Readers never read past the end: every accessor returns a
// Result/Status instead of invoking UB, because the bytes come from the
// network (I.10, ES.103 of the Core Guidelines: don't trust external input).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace flexric {

/// Owned byte buffer. A thin alias: ownership is explicit, views use
/// std::span<const uint8_t>.
using Buffer = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Append-only writer over an owned Buffer. Grows as needed; all multi-byte
/// integers are written little-endian unless the _be variant is used.
class BufWriter {
 public:
  BufWriter() = default;
  explicit BufWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }
  void u16_be(std::uint16_t v) { append_be(v, 2); }
  void u32_be(std::uint32_t v) { append_be(v, 4); }

  /// Unsigned LEB128 (protobuf-style varint).
  void uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  /// Zigzag-encoded signed varint.
  void svarint(std::int64_t v) {
    uvarint((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
  }

  void bytes(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), c, c + n);
  }
  /// Length-prefixed (uvarint) byte string.
  void lp_bytes(BytesView b) {
    uvarint(b.size());
    bytes(b);
  }
  void lp_string(std::string_view s) {
    uvarint(s.size());
    bytes(s.data(), s.size());
  }

  /// Reserve n bytes at the current position, returns their offset; patch
  /// later with patch_u32 (used for size-prefix framing and FLAT vtables).
  std::size_t skip(std::size_t n) {
    std::size_t off = buf_.size();
    buf_.resize(buf_.size() + n, 0);
    return off;
  }
  void patch_u32(std::size_t off, std::uint32_t v) {
    FLEXRIC_ASSERT(off + 4 <= buf_.size(), "patch out of range");
    for (int i = 0; i < 4; ++i)
      buf_[off + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] BytesView view() const noexcept { return buf_; }
  Buffer take() { return std::move(buf_); }
  Buffer& buffer() noexcept { return buf_; }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void append_be(std::uint64_t v, int n) {
    for (int i = n - 1; i >= 0; --i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  Buffer buf_;
};

/// Bounds-checked sequential reader over a byte view. Never throws; every
/// read reports truncation via Result.
// @view_of(the byte view passed to the constructor)
class BufReader {
 public:
  explicit BufReader(BytesView b) : data_(b) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

  Result<std::uint8_t> u8() {
    if (remaining() < 1) return err();
    return data_[pos_++];
  }
  Result<std::uint16_t> u16() { return read_le<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return read_le<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return read_le<std::uint64_t>(); }
  Result<std::int64_t> i64() {
    auto r = read_le<std::uint64_t>();
    if (!r) return r.error();
    return static_cast<std::int64_t>(*r);
  }
  Result<double> f64() {
    auto r = read_le<std::uint64_t>();
    if (!r) return r.error();
    double d;
    std::uint64_t bits = *r;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }
  Result<std::uint16_t> u16_be() {
    auto r = read_be(2);
    if (!r) return r.error();
    return static_cast<std::uint16_t>(*r);
  }
  Result<std::uint32_t> u32_be() {
    auto r = read_be(4);
    if (!r) return r.error();
    return static_cast<std::uint32_t>(*r);
  }

  Result<std::uint64_t> uvarint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (remaining() < 1) return err();
      if (shift >= 64) return Error{Errc::malformed, "varint too long"};
      std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }
  Result<std::int64_t> svarint() {
    auto r = uvarint();
    if (!r) return r.error();
    std::uint64_t u = *r;
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  /// View over the next n bytes (no copy).
  Result<BytesView> bytes(std::size_t n) {
    if (remaining() < n) return err();
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  /// uvarint length-prefixed byte string.
  Result<BytesView> lp_bytes() {
    auto n = uvarint();
    if (!n) return n.error();
    return bytes(static_cast<std::size_t>(*n));
  }
  Status skip(std::size_t n) {
    if (remaining() < n) return {Errc::truncated, "skip past end"};
    pos_ += n;
    return Status::ok();
  }

 private:
  static Error err() { return {Errc::truncated, "read past end"}; }

  template <typename T>
  Result<T> read_le() {
    if (remaining() < sizeof(T)) return err();
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    pos_ += sizeof(T);
    return v;
  }
  Result<std::uint64_t> read_be(std::size_t n) {
    if (remaining() < n) return err();
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += n;
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

/// Hex dump helper for diagnostics/tests.
std::string to_hex(BytesView b);

}  // namespace flexric
