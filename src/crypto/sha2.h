// SHA-256 and SHA-512 (FIPS 180-4), implemented from scratch.
//
// SHA-256 is the "agreed-upon digest algorithm" d(v) of the paper: value
// digests inside multi-writer timestamps, signed digests of contexts and
// write records. SHA-512 exists because Ed25519 (RFC 8032) requires it.
// Both are validated against NIST/RFC test vectors in tests/crypto_test.cpp.
//
// SHA-256 compresses with the x86 SHA-NI instructions when the CPU has them
// (checked once at run time) and with portable C++ otherwise; both give the
// same digests (crypto_test checks one against the other through
// crypto/sha2_internal.h).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace securestore::crypto {

class Sha256;
namespace sha2_internal {
Sha256 portable_sha256();
}

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();
  void update(BytesView data);
  /// Finalizes and returns the digest. The object must not be reused after.
  std::array<std::uint8_t, kDigestSize> finish();

 private:
  /// Compresses `count` consecutive 64-byte blocks into `state`.
  using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks, std::size_t count);

  explicit Sha256(BlockFn process_blocks);
  friend Sha256 sha2_internal::portable_sha256();

  BlockFn process_blocks_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

class Sha512 {
 public:
  static constexpr std::size_t kDigestSize = 64;
  static constexpr std::size_t kBlockSize = 128;

  Sha512();
  void update(BytesView data);
  std::array<std::uint8_t, kDigestSize> finish();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint64_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffered_ = 0;
  // 128-bit message length counter, as required by FIPS 180-4 for SHA-512.
  std::uint64_t total_low_ = 0;
  std::uint64_t total_high_ = 0;
};

/// One-shot SHA-256.
Bytes sha256(BytesView data);

/// One-shot SHA-512.
Bytes sha512(BytesView data);

}  // namespace securestore::crypto
