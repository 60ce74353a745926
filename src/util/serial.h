// Canonical binary serialization.
//
// All protocol messages, meta-data and signed payloads are serialized with
// these two classes. The encoding is deliberately simple and canonical
// (little-endian fixed-width integers, u32 length prefixes) because signed
// digests are computed over serialized bytes: two logically equal structures
// must serialize identically.
//
// `Writer` never fails. `Reader` throws `DecodeError` on malformed input —
// protocol code treats that as evidence of a corrupt or malicious message.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace securestore {

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix (use when length is fixed/known).
  void raw(BytesView data);
  /// u32 length prefix followed by the bytes.
  void bytes(BytesView data);
  /// u32 length prefix followed by UTF-8 bytes.
  void str(std::string_view s);

  const Bytes& data() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Reads exactly n raw bytes.
  Bytes raw(std::size_t n);
  /// Reads exactly n raw bytes without copying; the view aliases the input.
  BytesView view(std::size_t n);
  /// Reads a u32 length prefix then that many bytes.
  Bytes bytes();
  std::string str();

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Throws DecodeError unless the entire input has been consumed. Call at
  /// the end of each message decoder to reject trailing garbage.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace securestore
