// E2AP wire codec interface: IR <-> bytes.
//
// Two concrete codecs exist (PER and FLAT), both instances of one class
// template that runs the procedures' serde() declarations (messages.hpp)
// through the matching archives of e2sm/serde.hpp. The transport layer and
// all SDK users only see this interface, so the encoding can be swapped per
// connection — the flexibility the paper evaluates in §5.2.
//
// encode() fails with Errc::out_of_range when an IR field is outside the
// range its procedure declares (e.g. a RAN function id above 4095); decode()
// fails on any frame the declarations do not describe.
#pragma once

#include <memory>

#include "codec/wire.hpp"
#include "common/buffer.hpp"
#include "common/result.hpp"
#include "e2ap/messages.hpp"

namespace flexric::e2ap {

class Codec {
 public:
  virtual ~Codec() = default;
  [[nodiscard]] virtual WireFormat format() const noexcept = 0;
  [[nodiscard]] virtual Result<Buffer> encode(const Msg& m) const = 0;
  [[nodiscard]] virtual Result<Msg> decode(BytesView wire) const = 0;

  /// Classify a wire image without a full decode. Both codecs lead with the
  /// message-type tag, so overload admission (DESIGN.md §11) can sort frames
  /// into CONTROL vs DATA in O(1) before spending decode cycles on a frame
  /// that may be shed. Fails with Errc::out_of_range on an unknown tag.
  [[nodiscard]] virtual Result<MsgType> peek_type(BytesView wire) const = 0;
};

/// Shared stateless codec singletons. `proto` is not a valid E2AP encoding —
/// it exists only for the FlexRAN baseline's custom protocol.
const Codec& per_codec();
const Codec& flat_codec();
const Codec& codec_for(WireFormat f);

}  // namespace flexric::e2ap
