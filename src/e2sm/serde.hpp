// Generic serialization framework for E2SM payloads.
//
// Each SM message declares its fields once via a `serde(archive, self)`
// function template; the archives below derive all three wire formats from
// that single declaration:
//
//   PER   — ASN.1-PER-style (O-RAN's mandated SM encoding)
//   FLAT  — FlatBuffers-style zero-copy
//   PROTO — Protobuf-style varint TLV (used by the FlexRAN baseline)
//
// This is the C++20 rendition of the paper's "we use generics to achieve
// compile time polymorphism" (§4.4), and is what makes the SDK's SMs
// encoding-agnostic: adding a fourth wire format means adding two archives,
// not touching any SM.
//
// Decode archives collect the first error in a Status instead of returning
// per-field Results, keeping serde() declarations linear. After an error all
// further operations are no-ops and the final Status reports the failure.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "codec/flat.hpp"
#include "codec/per.hpp"
#include "codec/proto.hpp"
#include "codec/wire.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"

namespace flexric::e2sm {

// ---------------------------------------------------------------------------
// Raw archives: plain little-endian sequential layout. Used standalone for
// in-process hops and nested inside FLAT var regions.
// ---------------------------------------------------------------------------

class RawEnc {
 public:
  static constexpr bool kIsDecoder = false;
  /// Owns its output buffer by default; pass an external writer to append
  /// in place (used by FlatEnc to stream composites into the var region).
  RawEnc() : owned_(256), w_(owned_) {}
  explicit RawEnc(BufWriter& external) : w_(external) {}

  void u8(const std::uint8_t& v) { w_.u8(v); }
  void u16(const std::uint16_t& v) { w_.u16(v); }
  void u32(const std::uint32_t& v) { w_.u32(v); }
  void u64(const std::uint64_t& v) { w_.u64(v); }
  void i64(const std::int64_t& v) { w_.i64(v); }
  void f64(const double& v) { w_.f64(v); }
  void boolean(const bool& v) { w_.u8(v ? 1 : 0); }
  template <typename E>
  void enum8(const E& v) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  void str(const std::string& v) { w_.lp_string(v); }
  void bytes(const Buffer& v) { w_.lp_bytes(v); }
  template <typename T>
  void vec(const std::vector<T>& v) {
    w_.uvarint(v.size());
    for (const auto& e : v) field(e);
  }
  template <typename T>
  void opt(const std::optional<T>& v) {
    w_.u8(v.has_value() ? 1 : 0);
    if (v) field(*v);
  }
  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, Buffer>)
      serde(*this, const_cast<T&>(v));
    else
      scalar_dispatch(v);
  }
  Buffer take() { return w_.take(); }

 private:
  BufWriter owned_;
  BufWriter& w_;

  template <typename T>
  void scalar_dispatch(const T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) i64(v);
    else if constexpr (std::is_same_v<T, double>) f64(v);
    else if constexpr (std::is_same_v<T, bool>) boolean(v);
    else if constexpr (std::is_same_v<T, std::string>) str(v);
    else if constexpr (std::is_same_v<T, Buffer>) bytes(v);
    else if constexpr (std::is_enum_v<T>) enum8(v);
    else static_assert(!sizeof(T*), "unsupported field type");
  }
};

// @view_of(the encoded message passed to the constructor)
class RawDec {
 public:
  static constexpr bool kIsDecoder = true;
  explicit RawDec(BytesView b) : r_(b) {}
  void u8(std::uint8_t& v) { get(r_.u8(), v); }
  void u16(std::uint16_t& v) { get(r_.u16(), v); }
  void u32(std::uint32_t& v) { get(r_.u32(), v); }
  void u64(std::uint64_t& v) { get(r_.u64(), v); }
  void i64(std::int64_t& v) { get(r_.i64(), v); }
  void f64(double& v) { get(r_.f64(), v); }
  void boolean(bool& v) {
    std::uint8_t b = 0;
    u8(b);
    v = b != 0;
  }
  template <typename E>
  void enum8(E& v) {
    std::uint8_t b = 0;
    u8(b);
    v = static_cast<E>(b);
  }
  void str(std::string& v) { get(r_.lp_string(), v); }
  void bytes(Buffer& v) {
    auto b = r_.lp_bytes();
    if (check(b)) v.assign(b->begin(), b->end());
  }
  template <typename T>
  void vec(std::vector<T>& v) {
    auto n = r_.uvarint();
    if (!check(n)) return;
    if (*n > kMaxListLen) {
      fail(Errc::malformed, "list too long");
      return;
    }
    v.clear();
    // Cap the reservation: a hostile count must not allocate ahead of the
    // data actually present (each element costs at least one input byte).
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(*n, 4096)));
    for (std::uint64_t i = 0; i < *n && ok(); ++i) {
      T e{};
      field(e);
      v.push_back(std::move(e));
    }
  }
  template <typename T>
  void opt(std::optional<T>& v) {
    std::uint8_t present = 0;
    u8(present);
    if (!ok()) return;
    if (present) {
      T e{};
      field(e);
      v = std::move(e);
    } else {
      v.reset();
    }
  }
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, Buffer>)
      serde(*this, v);
    else
      scalar_dispatch(v);
  }
  [[nodiscard]] bool ok() const noexcept { return status_.is_ok(); }
  [[nodiscard]] Status status() const { return status_; }
  void fail(Errc c, const char* msg) {
    if (ok()) status_ = Status{c, msg};
  }

 private:
  static constexpr std::uint64_t kMaxListLen = 1 << 20;
  template <typename R, typename T>
  void get(R&& res, T& out) {
    if (check(res)) out = std::move(*res);
  }
  template <typename R>
  bool check(const R& res) {
    if (!ok()) return false;
    if (!res) {
      status_ = Status{res.error().code, res.error().message};
      return false;
    }
    return true;
  }
  template <typename T>
  void scalar_dispatch(T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) i64(v);
    else if constexpr (std::is_same_v<T, double>) f64(v);
    else if constexpr (std::is_same_v<T, bool>) boolean(v);
    else if constexpr (std::is_same_v<T, std::string>) str(v);
    else if constexpr (std::is_same_v<T, Buffer>) bytes(v);
    else if constexpr (std::is_enum_v<T>) enum8(v);
    else static_assert(!sizeof(T*), "unsupported field type");
  }
  BufReader r_;
  Status status_;
};

// ---------------------------------------------------------------------------
// PER archives: bit-packed, every field parsed (ASN.1 cost profile).
// ---------------------------------------------------------------------------

class PerEnc {
 public:
  static constexpr bool kIsDecoder = false;
  void u8(const std::uint8_t& v) { w_.constrained(v, 0, 0xFF); }
  void u16(const std::uint16_t& v) { w_.constrained(v, 0, 0xFFFF); }
  void u32(const std::uint32_t& v) { w_.constrained(v, 0, 0xFFFFFFFF); }
  void u64(const std::uint64_t& v) { w_.semi_constrained(v, 0); }
  void i64(const std::int64_t& v) { w_.integer(v); }
  void f64(const double& v) { w_.real(v); }
  void boolean(const bool& v) { w_.boolean(v); }
  template <typename E>
  void enum8(const E& v) {
    w_.constrained(static_cast<std::uint8_t>(v), 0, 0xFF);
  }
  void str(const std::string& v) { w_.str(v); }
  void bytes(const Buffer& v) { w_.octets(v); }
  template <typename T>
  void vec(const std::vector<T>& v) {
    w_.length(v.size());
    for (const auto& e : v) field(e);
  }
  template <typename T>
  void opt(const std::optional<T>& v) {
    w_.boolean(v.has_value());
    if (v) field(*v);
  }
  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, Buffer>)
      serde(*this, const_cast<T&>(v));
    else
      scalar_dispatch(v);
  }
  Buffer take() { return w_.take(); }

 private:
  template <typename T>
  void scalar_dispatch(const T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) i64(v);
    else if constexpr (std::is_same_v<T, double>) f64(v);
    else if constexpr (std::is_same_v<T, bool>) boolean(v);
    else if constexpr (std::is_same_v<T, std::string>) str(v);
    else if constexpr (std::is_same_v<T, Buffer>) bytes(v);
    else if constexpr (std::is_enum_v<T>) enum8(v);
    else static_assert(!sizeof(T*), "unsupported field type");
  }
  PerWriter w_;
};

// @view_of(the encoded message passed to the constructor)
class PerDec {
 public:
  static constexpr bool kIsDecoder = true;
  explicit PerDec(BytesView b) : r_(b) {}
  void u8(std::uint8_t& v) { get_narrow(r_.constrained(0, 0xFF), v); }
  void u16(std::uint16_t& v) { get_narrow(r_.constrained(0, 0xFFFF), v); }
  void u32(std::uint32_t& v) { get_narrow(r_.constrained(0, 0xFFFFFFFF), v); }
  void u64(std::uint64_t& v) { get(r_.semi_constrained(0), v); }
  void i64(std::int64_t& v) { get(r_.integer(), v); }
  void f64(double& v) { get(r_.real(), v); }
  void boolean(bool& v) { get(r_.boolean(), v); }
  template <typename E>
  void enum8(E& v) {
    std::uint8_t b = 0;
    u8(b);
    v = static_cast<E>(b);
  }
  void str(std::string& v) { get(r_.str(), v); }
  void bytes(Buffer& v) { get(r_.octets(), v); }
  template <typename T>
  void vec(std::vector<T>& v) {
    auto n = r_.length();
    if (!check(n)) return;
    v.clear();
    // Cap the reservation by the payload left: a hostile count must not
    // allocate ahead of the data (elements of all but bit-sized types cost
    // at least one byte; shorter ones just grow the vector).
    v.reserve(std::min(*n, r_.bits_remaining() / 8));
    for (std::size_t i = 0; i < *n && ok(); ++i) {
      T e{};
      field(e);
      v.push_back(std::move(e));
    }
  }
  template <typename T>
  void opt(std::optional<T>& v) {
    bool present = false;
    boolean(present);
    if (!ok()) return;
    if (present) {
      T e{};
      field(e);
      v = std::move(e);
    } else {
      v.reset();
    }
  }
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, Buffer>)
      serde(*this, v);
    else
      scalar_dispatch(v);
  }
  [[nodiscard]] bool ok() const noexcept { return status_.is_ok(); }
  [[nodiscard]] Status status() const { return status_; }

 private:
  template <typename R, typename T>
  void get(R&& res, T& out) {
    if (check(res)) out = std::move(*res);
  }
  template <typename R, typename T>
  void get_narrow(R&& res, T& out) {
    if (check(res)) out = static_cast<T>(*res);
  }
  template <typename R>
  bool check(const R& res) {
    if (!ok()) return false;
    if (!res) {
      status_ = Status{res.error().code, res.error().message};
      return false;
    }
    return true;
  }
  template <typename T>
  void scalar_dispatch(T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) i64(v);
    else if constexpr (std::is_same_v<T, double>) f64(v);
    else if constexpr (std::is_same_v<T, bool>) boolean(v);
    else if constexpr (std::is_same_v<T, std::string>) str(v);
    else if constexpr (std::is_same_v<T, Buffer>) bytes(v);
    else if constexpr (std::is_enum_v<T>) enum8(v);
    else static_assert(!sizeof(T*), "unsupported field type");
  }
  PerReader r_;
  Status status_;
};

// ---------------------------------------------------------------------------
// FLAT archives: scalars to the fixed region, composites nested via RAW in
// the var region. Decode reads in place from the wire buffer.
// ---------------------------------------------------------------------------

class FlatEnc {
 public:
  static constexpr bool kIsDecoder = false;
  void u8(const std::uint8_t& v) { w_.u8(v); }
  void u16(const std::uint16_t& v) { w_.u16(v); }
  void u32(const std::uint32_t& v) { w_.u32(v); }
  void u64(const std::uint64_t& v) { w_.u64(v); }
  void i64(const std::int64_t& v) { w_.i64(v); }
  void f64(const double& v) { w_.f64(v); }
  void boolean(const bool& v) { w_.boolean(v); }
  template <typename E>
  void enum8(const E& v) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  void str(const std::string& v) { w_.var_string(v); }
  void bytes(const Buffer& v) { w_.var_bytes(v); }
  template <typename T>
  void vec(const std::vector<T>& v) {
    // Composites stream straight into the var region (no staging buffer).
    RawEnc raw(w_.var_begin());
    raw.vec(v);
    w_.var_end();
  }
  template <typename T>
  void opt(const std::optional<T>& v) {
    RawEnc raw(w_.var_begin());
    raw.opt(v);
    w_.var_end();
  }
  template <typename T>
  void field(const T& v) {
    // Nested structs at the top level flatten their scalar fields into the
    // fixed region (they are part of the table).
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, Buffer>)
      serde(*this, const_cast<T&>(v));
    else
      scalar_dispatch(v);
  }
  Buffer take() { return w_.finish(); }

 private:
  template <typename T>
  void scalar_dispatch(const T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) i64(v);
    else if constexpr (std::is_same_v<T, double>) f64(v);
    else if constexpr (std::is_same_v<T, bool>) boolean(v);
    else if constexpr (std::is_same_v<T, std::string>) str(v);
    else if constexpr (std::is_same_v<T, Buffer>) bytes(v);
    else if constexpr (std::is_enum_v<T>) enum8(v);
    else static_assert(!sizeof(T*), "unsupported field type");
  }
  FlatWriter w_;
};

// @view_of(the encoded message passed to the constructor)
class FlatDec {
 public:
  static constexpr bool kIsDecoder = true;
  explicit FlatDec(FlatView v) : v_(v) {}
  /// Parse + construct helper.
  static Result<FlatDec> parse(BytesView wire) {
    auto v = FlatView::parse(wire);
    if (!v) return v.error();
    return FlatDec(*v);
  }
  void u8(std::uint8_t& v) { get(v_.u8(), v); }
  void u16(std::uint16_t& v) { get(v_.u16(), v); }
  void u32(std::uint32_t& v) { get(v_.u32(), v); }
  void u64(std::uint64_t& v) { get(v_.u64(), v); }
  void i64(std::int64_t& v) { get(v_.i64(), v); }
  void f64(double& v) { get(v_.f64(), v); }
  void boolean(bool& v) { get(v_.boolean(), v); }
  template <typename E>
  void enum8(E& v) {
    std::uint8_t b = 0;
    u8(b);
    v = static_cast<E>(b);
  }
  void str(std::string& v) {
    auto s = v_.var_string();
    if (check(s)) v.assign(s->data(), s->size());
  }
  void bytes(Buffer& v) {
    auto b = v_.var_bytes();
    if (check(b)) v.assign(b->begin(), b->end());
  }
  template <typename T>
  void vec(std::vector<T>& v) {
    auto raw = v_.var_bytes();
    if (!check(raw)) return;
    RawDec dec(*raw);
    dec.vec(v);
    merge(dec.status());
  }
  template <typename T>
  void opt(std::optional<T>& v) {
    auto raw = v_.var_bytes();
    if (!check(raw)) return;
    RawDec dec(*raw);
    dec.opt(v);
    merge(dec.status());
  }
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, Buffer>)
      serde(*this, v);
    else
      scalar_dispatch(v);
  }
  [[nodiscard]] bool ok() const noexcept { return status_.is_ok(); }
  [[nodiscard]] Status status() const { return status_; }

 private:
  template <typename R, typename T>
  void get(R&& res, T& out) {
    if (check(res)) out = std::move(*res);
  }
  template <typename R>
  bool check(const R& res) {
    if (!ok()) return false;
    if (!res) {
      status_ = Status{res.error().code, res.error().message};
      return false;
    }
    return true;
  }
  void merge(const Status& s) {
    if (ok() && !s.is_ok()) status_ = s;
  }
  template <typename T>
  void scalar_dispatch(T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) i64(v);
    else if constexpr (std::is_same_v<T, double>) f64(v);
    else if constexpr (std::is_same_v<T, bool>) boolean(v);
    else if constexpr (std::is_same_v<T, std::string>) str(v);
    else if constexpr (std::is_same_v<T, Buffer>) bytes(v);
    else if constexpr (std::is_enum_v<T>) enum8(v);
    else static_assert(!sizeof(T*), "unsupported field type");
  }
  FlatView v_;
  Status status_;
};

// ---------------------------------------------------------------------------
// PROTO archives: varint TLV with sequential field numbers (FlexRAN's wire).
// ---------------------------------------------------------------------------

class ProtoEnc {
 public:
  static constexpr bool kIsDecoder = false;
  void u8(const std::uint8_t& v) { w_.field_u64(next(), v); }
  void u16(const std::uint16_t& v) { w_.field_u64(next(), v); }
  void u32(const std::uint32_t& v) { w_.field_u64(next(), v); }
  void u64(const std::uint64_t& v) { w_.field_u64(next(), v); }
  void i64(const std::int64_t& v) { w_.field_i64(next(), v); }
  void f64(const double& v) { w_.field_f64(next(), v); }
  void boolean(const bool& v) { w_.field_bool(next(), v); }
  template <typename E>
  void enum8(const E& v) {
    w_.field_u64(next(), static_cast<std::uint8_t>(v));
  }
  void str(const std::string& v) { w_.field_string(next(), v); }
  void bytes(const Buffer& v) { w_.field_bytes(next(), v); }
  template <typename T>
  void vec(const std::vector<T>& v) {
    // repeated nested message: every element its own length-delimited field
    std::uint32_t num = next();
    BufWriter count;
    count.uvarint(v.size());
    w_.field_bytes(num, count.view());  // explicit count (canonical order)
    for (const auto& e : v) {
      ProtoEnc child;
      child.field(e);
      Buffer b = child.take();
      w_.field_bytes(num, b);
    }
  }
  template <typename T>
  void opt(const std::optional<T>& v) {
    std::uint32_t num = next();
    if (!v) {
      w_.field_u64(num, 0);
      return;
    }
    w_.field_u64(num, 1);
    ProtoEnc child;
    child.field(*v);
    Buffer b = child.take();
    w_.field_bytes(num, b);
  }
  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, Buffer>)
      serde(*this, const_cast<T&>(v));
    else
      scalar_dispatch(v);
  }
  Buffer take() { return w_.take(); }

 private:
  std::uint32_t next() noexcept { return ++num_; }
  template <typename T>
  void scalar_dispatch(const T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) i64(v);
    else if constexpr (std::is_same_v<T, double>) f64(v);
    else if constexpr (std::is_same_v<T, bool>) boolean(v);
    else if constexpr (std::is_same_v<T, std::string>) str(v);
    else if constexpr (std::is_same_v<T, Buffer>) bytes(v);
    else if constexpr (std::is_enum_v<T>) enum8(v);
    else static_assert(!sizeof(T*), "unsupported field type");
  }
  ProtoWriter w_;
  std::uint32_t num_ = 0;
};

// @view_of(the encoded message passed to the constructor)
class ProtoDec {
 public:
  static constexpr bool kIsDecoder = true;
  explicit ProtoDec(BytesView b) : r_(b) {}
  void u8(std::uint8_t& v) { varint_into(v); }
  void u16(std::uint16_t& v) { varint_into(v); }
  void u32(std::uint32_t& v) { varint_into(v); }
  void u64(std::uint64_t& v) { varint_into(v); }
  void i64(std::int64_t& v) {
    auto f = expect(ProtoWireType::varint);
    if (f) v = ProtoReader::as_i64(*f);
  }
  void f64(double& v) {
    auto f = expect(ProtoWireType::len);
    if (!f) return;
    auto d = ProtoReader::as_f64(*f);
    if (check(d)) v = *d;
  }
  void boolean(bool& v) {
    std::uint64_t b = 0;
    u64(b);
    v = b != 0;
  }
  template <typename E>
  void enum8(E& v) {
    std::uint8_t b = 0;
    u8(b);
    v = static_cast<E>(b);
  }
  void str(std::string& v) {
    auto f = expect(ProtoWireType::len);
    if (f) v = ProtoReader::as_string(*f);
  }
  void bytes(Buffer& v) {
    auto f = expect(ProtoWireType::len);
    if (f) v.assign(f->bytes.begin(), f->bytes.end());
  }
  template <typename T>
  void vec(std::vector<T>& v) {
    auto countf = expect(ProtoWireType::len);
    if (!countf) return;
    BufReader cr(countf->bytes);
    auto n = cr.uvarint();
    if (!check(n)) return;
    std::uint32_t num = countf->number;
    v.clear();
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(*n, 4096)));
    for (std::uint64_t i = 0; i < *n && ok(); ++i) {
      auto f = next_field();
      if (!f) return;
      if (f->number != num || f->type != ProtoWireType::len) {
        fail(Errc::malformed, "repeated field interrupted");
        return;
      }
      ProtoDec child(f->bytes);
      T e{};
      child.field(e);
      merge(child.status());
      v.push_back(std::move(e));
    }
  }
  template <typename T>
  void opt(std::optional<T>& v) {
    std::uint64_t present = 0;
    u64(present);
    if (!ok()) return;
    if (!present) {
      v.reset();
      return;
    }
    auto f = expect(ProtoWireType::len);
    if (!f) return;
    ProtoDec child(f->bytes);
    T e{};
    child.field(e);
    merge(child.status());
    v = std::move(e);
  }
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, Buffer>)
      serde(*this, v);
    else
      scalar_dispatch(v);
  }
  [[nodiscard]] bool ok() const noexcept { return status_.is_ok(); }
  [[nodiscard]] Status status() const { return status_; }
  void fail(Errc c, const char* msg) {
    if (ok()) status_ = Status{c, msg};
  }

 private:
  std::optional<ProtoReader::Field> next_field() {
    if (!ok()) return std::nullopt;
    auto f = r_.next();
    if (!f) {
      status_ = Status{f.error().code, f.error().message};
      return std::nullopt;
    }
    return *f;
  }
  std::optional<ProtoReader::Field> expect(ProtoWireType wt) {
    auto f = next_field();
    if (!f) return std::nullopt;
    if (f->type != wt) {
      fail(Errc::malformed, "unexpected wire type");
      return std::nullopt;
    }
    return f;
  }
  template <typename T>
  void varint_into(T& v) {
    auto f = expect(ProtoWireType::varint);
    if (f) v = static_cast<T>(f->varint);
  }
  template <typename R>
  bool check(const R& res) {
    if (!ok()) return false;
    if (!res) {
      status_ = Status{res.error().code, res.error().message};
      return false;
    }
    return true;
  }
  void merge(const Status& s) {
    if (ok() && !s.is_ok()) status_ = s;
  }
  template <typename T>
  void scalar_dispatch(T& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) u64(v);
    else if constexpr (std::is_same_v<T, std::int64_t>) i64(v);
    else if constexpr (std::is_same_v<T, double>) f64(v);
    else if constexpr (std::is_same_v<T, bool>) boolean(v);
    else if constexpr (std::is_same_v<T, std::string>) str(v);
    else if constexpr (std::is_same_v<T, Buffer>) bytes(v);
    else if constexpr (std::is_enum_v<T>) enum8(v);
    else static_assert(!sizeof(T*), "unsupported field type");
  }
  ProtoReader r_;
  Status status_;
};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Encode a serde-enabled message in the given wire format.
template <typename T>
Buffer sm_encode(const T& msg, WireFormat f) {
  switch (f) {
    case WireFormat::per: {
      PerEnc a;
      a.field(msg);
      return a.take();
    }
    case WireFormat::flat: {
      FlatEnc a;
      a.field(msg);
      return a.take();
    }
    case WireFormat::proto: {
      ProtoEnc a;
      a.field(msg);
      return a.take();
    }
  }
  return {};
}

/// Decode a serde-enabled message. Returns malformed/truncated errors for
/// bad wire data; never UB.
template <typename T>
Result<T> sm_decode(BytesView wire, WireFormat f) {
  T msg{};
  switch (f) {
    case WireFormat::per: {
      PerDec a(wire);
      a.field(msg);
      if (!a.ok()) return a.status().error();
      return msg;
    }
    case WireFormat::flat: {
      auto a = FlatDec::parse(wire);
      if (!a) return a.error();
      a->field(msg);
      if (!a->ok()) return a->status().error();
      return msg;
    }
    case WireFormat::proto: {
      ProtoDec a(wire);
      a.field(msg);
      if (!a.ok()) return a.status().error();
      return msg;
    }
  }
  return Error{Errc::unsupported, "unknown wire format"};
}

}  // namespace flexric::e2sm
