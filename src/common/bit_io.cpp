#include "common/bit_io.hpp"

namespace flexric {

void BitWriter::spill(std::uint64_t v, unsigned nbits) {
  // nbits >= 64 - nacc_: the top `room` bits of v complete the word.
  const unsigned room = 64 - nacc_;    // in [1, 64]
  const unsigned rest = nbits - room;  // in [0, 63]
  acc_ |= v >> rest;
  flush_acc(8);
  acc_ = rest == 0 ? 0 : v << (64 - rest);
  nacc_ = rest;
}

void BitWriter::flush_acc(unsigned n) {
  const std::uint64_t be = host_to_be64(acc_);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&be);
  buf_.insert(buf_.end(), p, p + n);
  acc_ = 0;
  nacc_ = 0;
}

void BitWriter::align() {
  nacc_ = (nacc_ + 7) & ~7u;
  if (nacc_ == 64) flush_acc(8);
}

Status BitWriter::bytes(BytesView b) {
  if (!aligned())
    return {Errc::malformed, "bit writer: bytes() while unaligned"};
  flush_acc(nacc_ / 8);
  buf_.insert(buf_.end(), b.begin(), b.end());
  return Status::ok();
}

Buffer BitWriter::take() {
  align();
  flush_acc(nacc_ / 8);
  return std::move(buf_);
}

Result<std::uint64_t> BitReader::bits_slow(unsigned nbits) {
  if (nbits > 64)
    return Error{Errc::out_of_range, "bit read wider than 64 bits"};
  if (bits_remaining() < nbits)
    return Error{Errc::truncated, "bit read past end"};
  std::uint64_t v = 0;
  unsigned left = nbits;
  while (left > 0) {
    std::size_t byte = bitpos_ / 8;
    unsigned off = static_cast<unsigned>(bitpos_ % 8);
    unsigned room = 8 - off;
    unsigned take = left < room ? left : room;
    std::uint8_t cur = data_[byte];
    // take <= 8, so the shifts below never reach the 64-bit UB boundary
    std::uint64_t chunk = (cur >> (room - take)) & low_bits_mask(take);
    v = (v << take) | chunk;
    bitpos_ += take;
    left -= take;
  }
  return v;
}

void BitReader::align() {
  if (bitpos_ % 8 != 0) bitpos_ += 8 - (bitpos_ % 8);
}

Result<BytesView> BitReader::bytes(std::size_t n) {
  if (!aligned())
    return Error{Errc::malformed, "bit reader: bytes() while unaligned"};
  std::size_t byte = bitpos_ / 8;
  if (n > data_.size() - byte) return Error{Errc::truncated, "bytes past end"};
  bitpos_ += n * 8;
  return data_.subspan(byte, n);
}

}  // namespace flexric
