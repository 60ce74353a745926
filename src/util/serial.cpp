#include "util/serial.h"

namespace securestore {

void Writer::u8(std::uint8_t v) { buffer_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::raw(BytesView data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void Writer::bytes(BytesView data) {
  if (data.size() > 0xffffffffULL) throw std::length_error("Writer::bytes: too large");
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void Writer::str(std::string_view s) {
  bytes(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw DecodeError("Reader: truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

BytesView Reader::view(std::size_t n) {
  need(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Bytes Reader::bytes() {
  const std::uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  Bytes b = bytes();
  return std::string(b.begin(), b.end());
}

void Reader::expect_end() const {
  if (!at_end()) throw DecodeError("Reader: trailing bytes after message");
}

}  // namespace securestore
