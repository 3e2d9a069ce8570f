// Protobuf-style varint TLV codec primitives (the FlexRAN baseline's wire
// format in this reproduction).
//
// Wire types follow protobuf: 0 = varint, 2 = length-delimited. Fields carry
// a (field_number << 3 | wire_type) tag. Unknown fields are skippable, which
// the FlexRAN baseline relies on for its loosely-versioned custom protocol.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/buffer.hpp"
#include "common/result.hpp"

namespace flexric {

enum class ProtoWireType : std::uint8_t { varint = 0, len = 2 };

/// Streaming protobuf-style encoder.
class ProtoWriter {
 public:
  void field_u64(std::uint32_t num, std::uint64_t v) {
    tag(num, ProtoWireType::varint);
    w_.uvarint(v);
  }
  void field_i64(std::uint32_t num, std::int64_t v) {
    tag(num, ProtoWireType::varint);
    w_.svarint(v);
  }
  void field_bool(std::uint32_t num, bool v) { field_u64(num, v ? 1 : 0); }
  void field_f64(std::uint32_t num, double v) {
    // doubles ride in a length-delimited field of 8 bytes (keeps only two
    // wire types in play)
    tag(num, ProtoWireType::len);
    w_.uvarint(8);
    w_.f64(v);
  }
  void field_bytes(std::uint32_t num, BytesView b) {
    tag(num, ProtoWireType::len);
    w_.lp_bytes(b);
  }
  void field_string(std::uint32_t num, std::string_view s) {
    tag(num, ProtoWireType::len);
    w_.lp_string(s);
  }
  /// Nested message: encode the child separately and embed its bytes.
  void field_message(std::uint32_t num, BytesView encoded_child) {
    field_bytes(num, encoded_child);
  }

  Buffer take() { return w_.take(); }
  [[nodiscard]] std::size_t size() const noexcept { return w_.size(); }

 private:
  void tag(std::uint32_t num, ProtoWireType wt) {
    w_.uvarint((static_cast<std::uint64_t>(num) << 3) |
               static_cast<std::uint64_t>(wt));
  }
  BufWriter w_;
};

/// Streaming protobuf-style decoder: iterate fields, dispatch on number.
// @view_of(the byte view passed to the constructor)
class ProtoReader {
 public:
  explicit ProtoReader(BytesView b) : r_(b) {}

  // @view_of(the ProtoReader's input buffer)
  struct Field {
    std::uint32_t number;
    ProtoWireType type;
    std::uint64_t varint;  // valid when type == varint
    BytesView bytes;       // valid when type == len
  };

  /// Next field, or Errc::not_found at clean end of input.
  Result<Field> next();
  [[nodiscard]] bool at_end() const noexcept { return r_.at_end(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return r_.remaining();
  }

  /// Helpers to interpret a len field.
  static Result<double> as_f64(const Field& f);
  static std::int64_t as_i64(const Field& f) {
    std::uint64_t u = f.varint;
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

 private:
  BufReader r_;
};

}  // namespace flexric
