// The E2AP wire codecs: the procedures' serde() declarations
// (e2ap/messages.hpp) run through the PER and the FLAT archives of
// e2sm/serde.hpp. A frame is the MsgType tag, ranged over [0, 20], followed
// by the procedure's fields in declaration order. PER decode parses every
// field (the CPU cost §5.2/§5.3 measure for "ASN"); FLAT decode validates
// the table header and reads fields in place.
#include "e2ap/codec.hpp"

#include <utility>

#include "e2sm/serde.hpp"

namespace flexric::e2ap {
namespace {

/// The frame's leading MsgType tag, in either direction.
template <typename A, typename T>
void tag(A& a, T& type) {
  a.ranged(type, 0, kNumMsgTypes - 1);
}

// @hotpath encode/decode run once per frame (paper §5.3)
template <WireFormat kFormat, typename Enc, typename Dec>
class ArchiveCodec final : public Codec {
 public:
  [[nodiscard]] WireFormat format() const noexcept override { return kFormat; }

  [[nodiscard]] Result<Buffer> encode(const Msg& m) const override {
    Enc a;
    const MsgType t = msg_type(m);
    tag(a, t);
    std::visit([&a](const auto& msg) { a.field(msg); }, m);
    if (!a.ok()) return a.status().error();
    return a.take();
  }

  [[nodiscard]] Result<Msg> decode(BytesView wire) const override {
    Dec a(wire);
    MsgType t{};
    tag(a, t);
    if (!a.ok()) return a.status().error();
    Msg m = blank_msg(t, std::make_index_sequence<kNumMsgTypes>{});
    std::visit([&a](auto& msg) { a.field(msg); }, m);
    if (!a.ok()) return a.status().error();
    return m;
  }

  [[nodiscard]] Result<MsgType> peek_type(BytesView wire) const override {
    Dec a(wire);
    MsgType t{};
    tag(a, t);
    if (!a.ok()) return a.status().error();
    return t;
  }
};

// E2AP's FLAT lists carry a u32 count.
using e2sm::ListCount;
using PerCodec = ArchiveCodec<WireFormat::per, e2sm::PerEnc, e2sm::PerDec>;
using FlatCodec = ArchiveCodec<WireFormat::flat, e2sm::FlatEnc<ListCount::u32>,
                               e2sm::FlatDec<ListCount::u32>>;

}  // namespace

const Codec& per_codec() {
  static const PerCodec c;
  return c;
}

const Codec& flat_codec() {
  static const FlatCodec c;
  return c;
}

const Codec& codec_for(WireFormat f) {
  // lint: allow(wire-assert) argument is a local config enum, not wire data
  FLEXRIC_ASSERT(f == WireFormat::per || f == WireFormat::flat,
                 "E2AP codec: per or flat only");
  return f == WireFormat::per ? per_codec() : flat_codec();
}

}  // namespace flexric::e2ap
