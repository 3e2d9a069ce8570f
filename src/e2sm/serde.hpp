// Generic serialization framework for both protocol layers.
//
// Every E2AP procedure (e2ap/messages.hpp) and every E2SM message declares
// its fields once via a `serde(archive, self)` function template; the
// archives below derive the wire formats from that single declaration:
//
//   PER   — ASN.1-PER-style (O-RAN's mandated encoding, both layers)
//   FLAT  — FlatBuffers-style zero-copy (both layers)
//   PROTO — Protobuf-style varint TLV (E2SM only; the FlexRAN baseline)
//
// This is the C++20 rendition of the paper's "we use generics to achieve
// compile time polymorphism" (§4.4): adding a wire format means adding two
// archives, not touching any message.
//
// Every archive has the scalar operations, str, bytes, vec, opt and field()
// (which routes nested structs to their serde()). PER, FLAT and RAW archives
// also carry the operations E2AP needs:
//
//   ranged(v, lo, hi)    PER writes the constrained width; FLAT and RAW
//                        write the type's natural width and range-check it
//                        on decode.
//   present(o) body(o)   an optional's presence flag, and later its value.
//                        PER writes a presence bit, then the value only if
//                        present; FLAT a bool in the fixed region, then
//                        value_or(T{}). opt(o) is the two back to back.
//   vec(v, elem)         a list whose elements need more than field(), such
//                        as ranged ids; `elem(archive, element)` codes one.
//
// enum8(e) codes an enum in one byte. Every enum an E2SM message carries
// declares its last enumerator once, as `enum_last(E)` beside it, and a
// decoded value past it is malformed.
//
// Archives record the first error in a Status instead of returning
// per-field Results, keeping serde() declarations linear: encoders report
// out-of-range values, decoders bad wire data. After an error all further
// operations are no-ops. Only E2AP declarations use ranged(), the one
// source of encoder errors; e2ap::Codec::encode returns them, while
// sm_encode asserts there are none. Every decoding vec() rejects a count
// the payload left cannot hold and reserves no more than that payload can
// back; a decoder charges each list reservation and each string's bytes to
// one budget, 16x its input + 3 KiB, before it allocates them (DESIGN.md
// §6), and a decode over budget is malformed. Nested decoders (FLAT's RAW
// lists, PROTO's submessages) draw on their parent's budget.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
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

/// How RAW lists write their element count, fixed per protocol layer: E2SM
/// payloads use a uvarint, E2AP's FLAT lists a u32.
enum class ListCount : std::uint8_t { uvarint, u32 };

/// The error message of a decode that would allocate past decode_budget().
inline constexpr const char* kOverBudget =
    "decode exceeds its allocation budget";
/// The error message of a decoded enum past its enum_last().
inline constexpr const char* kBadEnum = "enum value out of range";

/// The default element codec of vec() and body().
struct FieldFn {
  template <typename A, typename T>
  void operator()(A& a, T& v) const {
    a.field(v);
  }
};

template <typename T>
constexpr bool in_range(const T& v, std::uint64_t lo, std::uint64_t hi) {
  const auto x = static_cast<std::uint64_t>(v);
  return x >= lo && x <= hi;
}

/// What every archive shares: the first error, field() dispatch, and opt().
/// Encoders take const values; field() casts the constness away only to
/// reach the single non-const serde() declaration.
template <typename D>
class Archive {
 public:
  Archive() = default;
  /// A decoder's allocation budget (decode_budget()).
  explicit Archive(std::size_t budget) : budget_(budget) {}

  template <typename T>
  void field(T& v) {
    using U = std::remove_const_t<T>;
    D& a = static_cast<D&>(*this);
    if constexpr (std::is_same_v<U, std::uint8_t>) a.u8(v);
    else if constexpr (std::is_same_v<U, std::uint16_t>) a.u16(v);
    else if constexpr (std::is_same_v<U, std::uint32_t>) a.u32(v);
    else if constexpr (std::is_same_v<U, std::uint64_t>) a.u64(v);
    else if constexpr (std::is_same_v<U, std::int64_t>) a.i64(v);
    else if constexpr (std::is_same_v<U, double>) a.f64(v);
    else if constexpr (std::is_same_v<U, bool>) a.boolean(v);
    else if constexpr (std::is_same_v<U, std::string>) a.str(v);
    else if constexpr (std::is_same_v<U, Buffer>) a.bytes(v);
    else if constexpr (std::is_enum_v<U>) a.enum8(v);
    else if constexpr (std::is_class_v<U>) serde(a, const_cast<U&>(v));
    else static_assert(!sizeof(U*), "unsupported field type");
  }

  /// An optional in one place: its presence flag, then its value.
  template <typename O>
  void opt(O& v) {
    D& a = static_cast<D&>(*this);
    a.present(v);
    a.body(v);
  }

  /// Every decoder's enum8: one byte, no larger than enum_last(E). Each
  /// encoder declares its own enum8, which hides this one.
  template <typename E>
  void enum8(E& v) {
    byte_enum(v);
    if (ok() && v > enum_last(E{})) fail(Errc::malformed, kBadEnum);
  }

  [[nodiscard]] bool ok() const noexcept { return status_.is_ok(); }
  /// Bytes this decoder may still allocate.
  [[nodiscard]] std::size_t budget_left() const noexcept { return budget_; }

  /// What a decode of `input` bytes may allocate for lists, strings and
  /// octet strings: DESIGN.md §6's 16x its input + 4 KiB, less 1 KiB for
  /// the error Status a failing decode copies up its nested decoders.
  static constexpr std::size_t decode_budget(std::size_t input) {
    return 16 * input + 3072;
  }
  [[nodiscard]] Status status() const { return status_; }
  void fail(Errc c, const char* msg) {
    if (ok()) status_ = Status{c, msg};
  }

 protected:
  /// True if `res` holds a value and no error is recorded yet; otherwise
  /// records `res`'s error (the first one wins).
  template <typename R>
  bool accept(const R& res) {
    if (!ok()) return false;
    if (!res) {
      status_ = Status{res.error().code, res.error().message};
      return false;
    }
    return true;
  }
  template <typename R, typename T>
  void get(R&& res, T& out) {
    if (accept(res)) out = static_cast<T>(std::move(*res));
  }
  void merge(const Status& s) {
    if (ok() && !s.is_ok()) status_ = s;
  }
  /// The one list guard: `room` is the most elements the payload left can
  /// hold, given each element's smallest encoding.
  bool check_list(std::uint64_t n, std::uint64_t room) {
    if (n <= room) return true;
    fail(Errc::malformed, "list count exceeds payload");
    return false;
  }
  /// Clears `v` and reserves room for the first elements of a checked
  /// list of `n`: no more than `payload` bytes (the payload left, or
  /// kReserveFloor when less) can back, so a forged count that fails a few
  /// elements in costs the payload plus the floor, not the budget.
  template <typename T>
  bool reserve_list(std::vector<T>& v, std::uint64_t n, std::size_t payload) {
    constexpr std::size_t kReserveFloor = 4096;
    v.clear();
    return reserve(v, std::min<std::uint64_t>(
                          n, std::max(payload, kReserveFloor) / sizeof(T)));
  }
  /// Called before each element: false once the decode has failed; once
  /// decoded elements fill the reservation, it grows to the whole count.
  template <typename T>
  bool grow_list(std::vector<T>& v, std::uint64_t n) {
    return ok() && (v.size() < v.capacity() || reserve(v, n));
  }
  /// A decoded string or octet string, charged with what copying it out
  /// allocates: a string past its inline capacity takes exactly size + 1
  /// when constructed (assign() would round its capacity up).
  void take(std::string& v, BytesView b) {
    static const std::size_t kInline = std::string().capacity();
    if (charge(b.size() > kInline ? b.size() + 1 : 0))
      v = std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  void take(Buffer& v, BytesView b) {
    if (charge(b.size())) v.assign(b.begin(), b.end());
  }
  /// The same from a reader's Result, whose error is recorded instead.
  template <typename S>
  void take(S& v, const Result<BytesView>& b) {
    if (accept(b)) take(v, *b);
  }
  void check_range(bool in) {
    if (!in) fail(Errc::out_of_range, "value out of range");
  }
  /// An enum in one byte, unchecked: the RAW and FLAT decoders' ranged()
  /// reads E2AP's enums this way and checks the range it declares.
  template <typename E>
  void byte_enum(E& v) {
    std::uint8_t b = 0;
    static_cast<D&>(*this).u8(b);
    v = static_cast<E>(b);
  }
  std::size_t budget_ = 0;

 private:
  bool charge(std::uint64_t bytes) {
    if (bytes <= budget_) {
      budget_ -= bytes;
      return true;
    }
    fail(Errc::malformed, kOverBudget);
    return false;
  }
  /// Every list reservation is charged to the budget when it is made.
  template <typename T>
  bool reserve(std::vector<T>& v, std::uint64_t n) {
    if (!charge(n * sizeof(T))) return false;
    v.reserve(static_cast<std::size_t>(n));
    return true;
  }

  Status status_;
};

// ---------------------------------------------------------------------------
// RAW archives: plain little-endian sequential layout. Used standalone for
// in-process hops and nested inside FLAT var regions.
// ---------------------------------------------------------------------------

template <ListCount kCount = ListCount::uvarint>
class RawEnc : public Archive<RawEnc<kCount>> {
  using Base = Archive<RawEnc>;

 public:
  using Base::field;
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
  void ranged(const T& v, std::uint64_t lo, std::uint64_t hi) {
    this->check_range(in_range(v, lo, hi));
    field(v);
  }
  template <typename O>
  void present(const O& v) {
    w_.u8(v.has_value() ? 1 : 0);
  }
  template <typename T, typename F = FieldFn>
  void body(const std::optional<T>& v, F elem = {}) {
    if (v) elem(*this, const_cast<T&>(*v));
  }
  template <typename T, typename F = FieldFn>
  void vec(const std::vector<T>& v, F elem = {}) {
    if constexpr (kCount == ListCount::u32)
      w_.u32(static_cast<std::uint32_t>(v.size()));
    else
      w_.uvarint(v.size());
    for (const auto& e : v) elem(*this, const_cast<T&>(e));
  }
  Buffer take() { return w_.take(); }

 private:
  BufWriter owned_;
  BufWriter& w_;
};

// @view_of(the encoded message passed to the constructor)
template <ListCount kCount = ListCount::uvarint>
class RawDec : public Archive<RawDec<kCount>> {
  using Base = Archive<RawDec>;
  using Base::accept;
  using Base::get;
  using Base::take;

 public:
  using Base::field;
  using Base::ok;
  explicit RawDec(BytesView b) : RawDec(b, Base::decode_budget(b.size())) {}
  /// A nested list's decoder, drawing on its parent's budget.
  RawDec(BytesView b, std::size_t budget) : Base(budget), r_(b) {}
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
  void str(std::string& v) { take(v, r_.lp_bytes()); }
  void bytes(Buffer& v) { take(v, r_.lp_bytes()); }
  template <typename T>
  void ranged(T& v, std::uint64_t lo, std::uint64_t hi) {
    if constexpr (std::is_enum_v<T>) this->byte_enum(v);
    else field(v);
    if (ok()) this->check_range(in_range(v, lo, hi));
  }
  template <typename O>
  void present(O& v) {
    std::uint8_t p = 0;
    u8(p);
    if (p) v.emplace();
    else v.reset();
  }
  template <typename T, typename F = FieldFn>
  void body(std::optional<T>& v, F elem = {}) {
    if (v) elem(*this, *v);
  }
  template <typename T, typename F = FieldFn>
  void vec(std::vector<T>& v, F elem = {}) {
    auto n = kCount == ListCount::u32 ? widen(r_.u32()) : r_.uvarint();
    // Every RAW element is at least one byte.
    if (!accept(n) || !this->check_list(*n, r_.remaining()) ||
        !this->reserve_list(v, *n, r_.remaining()))
      return;
    for (std::uint64_t i = 0; i < *n && this->grow_list(v, *n); ++i) {
      T e{};
      elem(*this, e);
      v.push_back(std::move(e));
    }
  }

 private:
  static Result<std::uint64_t> widen(Result<std::uint32_t> n) {
    if (!n) return n.error();
    return std::uint64_t{*n};
  }
  BufReader r_;
};

// ---------------------------------------------------------------------------
// PER archives: bit-packed, every field parsed (ASN.1 cost profile).
// ---------------------------------------------------------------------------

class PerEnc : public Archive<PerEnc> {
 public:
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
  void ranged(const T& v, std::uint64_t lo, std::uint64_t hi) {
    if (in_range(v, lo, hi))
      w_.constrained(static_cast<std::uint64_t>(v), lo, hi);
    else
      check_range(false);
  }
  template <typename O>
  void present(const O& v) {
    w_.boolean(v.has_value());
  }
  template <typename T, typename F = FieldFn>
  void body(const std::optional<T>& v, F elem = {}) {
    if (v) elem(*this, const_cast<T&>(*v));
  }
  template <typename T, typename F = FieldFn>
  void vec(const std::vector<T>& v, F elem = {}) {
    w_.length(v.size());
    for (const auto& e : v) elem(*this, const_cast<T&>(e));
  }
  Buffer take() { return w_.take(); }

 private:
  PerWriter w_;
};

// @view_of(the encoded message passed to the constructor)
class PerDec : public Archive<PerDec> {
 public:
  explicit PerDec(BytesView b) : Archive(decode_budget(b.size())), r_(b) {}
  void u8(std::uint8_t& v) { get(r_.constrained(0, 0xFF), v); }
  void u16(std::uint16_t& v) { get(r_.constrained(0, 0xFFFF), v); }
  void u32(std::uint32_t& v) { get(r_.constrained(0, 0xFFFFFFFF), v); }
  void u64(std::uint64_t& v) { get(r_.semi_constrained(0), v); }
  void i64(std::int64_t& v) { get(r_.integer(), v); }
  void f64(double& v) { get(r_.real(), v); }
  void boolean(bool& v) { get(r_.boolean(), v); }
  void str(std::string& v) { take(v, r_.octet_view()); }
  void bytes(Buffer& v) { take(v, r_.octet_view()); }
  template <typename T>
  void ranged(T& v, std::uint64_t lo, std::uint64_t hi) {
    get(r_.constrained(lo, hi), v);
  }
  template <typename O>
  void present(O& v) {
    bool p = false;
    boolean(p);
    if (p) v.emplace();
    else v.reset();
  }
  template <typename T, typename F = FieldFn>
  void body(std::optional<T>& v, F elem = {}) {
    if (v) elem(*this, *v);
  }
  template <typename T, typename F = FieldFn>
  void vec(std::vector<T>& v, F elem = {}) {
    auto n = r_.length();
    // Every PER element but a bool is at least one octet's worth of bits.
    constexpr std::size_t kMinBits = std::is_same_v<T, bool> ? 1 : 8;
    if (!accept(n) || !check_list(*n, r_.bits_remaining() / kMinBits) ||
        !reserve_list(v, *n, r_.bits_remaining() / 8))
      return;
    for (std::size_t i = 0; i < *n && grow_list(v, *n); ++i) {
      T e{};
      elem(*this, e);
      v.push_back(std::move(e));
    }
  }

 private:
  PerReader r_;
};

// ---------------------------------------------------------------------------
// FLAT archives: scalars to the fixed region, composites nested via RAW in
// the var region. Decode reads in place from the wire buffer.
// ---------------------------------------------------------------------------

template <ListCount kCount = ListCount::uvarint>
class FlatEnc : public Archive<FlatEnc<kCount>> {
  using Base = Archive<FlatEnc>;

 public:
  using Base::field;
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
  void ranged(const T& v, std::uint64_t lo, std::uint64_t hi) {
    this->check_range(in_range(v, lo, hi));
    field(v);
  }
  template <typename O>
  void present(const O& v) {
    w_.boolean(v.has_value());
  }
  /// The fixed region has a slot for the value either way.
  template <typename T, typename F = FieldFn>
  void body(const std::optional<T>& v, F elem = {}) {
    T absent{};
    elem(*this, v ? const_cast<T&>(*v) : absent);
  }
  template <typename T, typename F = FieldFn>
  void vec(const std::vector<T>& v, F elem = {}) {
    // Composites stream straight into the var region (no staging buffer).
    RawEnc<kCount> raw(w_.var_begin());
    raw.vec(v, elem);
    w_.var_end();
    this->merge(raw.status());
  }
  Buffer take() { return w_.finish(); }

 private:
  FlatWriter w_;
};

// @view_of(the encoded message passed to the constructor)
template <ListCount kCount = ListCount::uvarint>
class FlatDec : public Archive<FlatDec<kCount>> {
  using Base = Archive<FlatDec>;
  using Base::accept;
  using Base::get;
  using Base::take;

 public:
  using Base::field;
  using Base::ok;
  /// Validates the table header; a bad one fails every later read.
  explicit FlatDec(BytesView wire) : Base(Base::decode_budget(wire.size())) {
    auto v = FlatView::parse(wire);
    if (accept(v)) v_ = *v;
  }
  void u8(std::uint8_t& v) { get(v_.u8(), v); }
  void u16(std::uint16_t& v) { get(v_.u16(), v); }
  void u32(std::uint32_t& v) { get(v_.u32(), v); }
  void u64(std::uint64_t& v) { get(v_.u64(), v); }
  void i64(std::int64_t& v) { get(v_.i64(), v); }
  void f64(double& v) { get(v_.f64(), v); }
  void boolean(bool& v) { get(v_.boolean(), v); }
  // Var fields may alias one region; the budget bounds the copies anyway.
  void str(std::string& v) { take(v, v_.var_bytes()); }
  void bytes(Buffer& v) { take(v, v_.var_bytes()); }
  template <typename T>
  void ranged(T& v, std::uint64_t lo, std::uint64_t hi) {
    if constexpr (std::is_enum_v<T>) this->byte_enum(v);
    else field(v);
    if (ok()) this->check_range(in_range(v, lo, hi));
  }
  template <typename O>
  void present(O& v) {
    bool p = false;
    boolean(p);
    if (p) v.emplace();
    else v.reset();
  }
  template <typename T, typename F = FieldFn>
  void body(std::optional<T>& v, F elem = {}) {
    T absent{};
    elem(*this, v ? *v : absent);
  }
  template <typename T, typename F = FieldFn>
  void vec(std::vector<T>& v, F elem = {}) {
    auto raw = v_.var_bytes();
    if (!accept(raw)) return;
    RawDec<kCount> dec(*raw, this->budget_);
    dec.vec(v, elem);
    this->budget_ = dec.budget_left();
    this->merge(dec.status());
  }

 private:
  FlatView v_;
};

// ---------------------------------------------------------------------------
// PROTO archives: varint TLV with sequential field numbers (FlexRAN's wire).
// ---------------------------------------------------------------------------

class ProtoEnc : public Archive<ProtoEnc> {
 public:
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
  Buffer take() { return w_.take(); }

 private:
  std::uint32_t next() noexcept { return ++num_; }
  ProtoWriter w_;
  std::uint32_t num_ = 0;
};

// @view_of(the encoded message passed to the constructor)
class ProtoDec : public Archive<ProtoDec> {
 public:
  explicit ProtoDec(BytesView b) : ProtoDec(b, decode_budget(b.size())) {}
  /// A submessage's decoder, drawing on its parent's budget.
  ProtoDec(BytesView b, std::size_t budget) : Archive(budget), r_(b) {}
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
    if (f) get(ProtoReader::as_f64(*f), v);
  }
  void boolean(bool& v) {
    std::uint64_t b = 0;
    u64(b);
    v = b != 0;
  }
  void str(std::string& v) {
    auto f = expect(ProtoWireType::len);
    if (f) take(v, f->bytes);
  }
  void bytes(Buffer& v) {
    auto f = expect(ProtoWireType::len);
    if (f) take(v, f->bytes);
  }
  template <typename T>
  void vec(std::vector<T>& v) {
    auto countf = expect(ProtoWireType::len);
    if (!countf) return;
    BufReader cr(countf->bytes);
    auto n = cr.uvarint();
    // Every element is a field of its own: a tag and a length, two bytes.
    if (!accept(n) || !check_list(*n, r_.remaining() / 2) ||
        !reserve_list(v, *n, r_.remaining()))
      return;
    std::uint32_t num = countf->number;
    for (std::uint64_t i = 0; i < *n && grow_list(v, *n); ++i) {
      auto f = next_field();
      if (!f) return;
      if (f->number != num || f->type != ProtoWireType::len) {
        fail(Errc::malformed, "repeated field interrupted");
        return;
      }
      T e{};
      decode_child(f->bytes, e);
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
    T e{};
    decode_child(f->bytes, e);
    v = std::move(e);
  }

 private:
  std::optional<ProtoReader::Field> next_field() {
    if (!ok()) return std::nullopt;
    auto f = r_.next();
    if (!accept(f)) return std::nullopt;
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
  void decode_child(BytesView b, T& e) {
    ProtoDec child(b, budget_);
    child.field(e);
    budget_ = child.budget_left();
    merge(child.status());
  }
  /// A varint wider than its field is malformed, not truncated.
  template <typename T>
  void varint_into(T& v) {
    auto f = expect(ProtoWireType::varint);
    if (!f) return;
    if (f->varint > std::numeric_limits<T>::max())
      fail(Errc::malformed, "varint exceeds its field");
    else
      v = static_cast<T>(f->varint);
  }
  ProtoReader r_;
};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// E2SM encoding cannot fail: an encoder records an error only for a
/// ranged() value out of range, and E2SM declarations use no ranged().
template <typename Enc, typename T>
Buffer encode_with(const T& msg) {
  Enc a;
  a.field(msg);
  // lint: allow(wire-assert) encode-side precondition on locally built IR
  FLEXRIC_ASSERT(a.ok(), "E2SM serde() declarations must not use ranged()");
  return a.take();
}

template <typename Dec, typename T>
Result<T> decode_with(BytesView wire) {
  T msg{};
  Dec a(wire);
  a.field(msg);
  if (!a.ok()) return a.status().error();
  return msg;
}

/// Encode a serde-enabled message in the given wire format.
template <typename T>
Buffer sm_encode(const T& msg, WireFormat f) {
  switch (f) {
    case WireFormat::per: return encode_with<PerEnc>(msg);
    case WireFormat::flat: return encode_with<FlatEnc<>>(msg);
    case WireFormat::proto: return encode_with<ProtoEnc>(msg);
  }
  return {};
}

/// Decode a serde-enabled message. Returns malformed/truncated errors for
/// bad wire data; never UB.
template <typename T>
Result<T> sm_decode(BytesView wire, WireFormat f) {
  switch (f) {
    case WireFormat::per: return decode_with<PerDec, T>(wire);
    case WireFormat::flat: return decode_with<FlatDec<>, T>(wire);
    case WireFormat::proto: return decode_with<ProtoDec, T>(wire);
  }
  return Error{Errc::unsupported, "unknown wire format"};
}

}  // namespace flexric::e2sm
