// Key pairs and metered crypto entry points.
//
// The paper's cost model (§6) counts signatures, verifications and digests
// per operation. Protocol code therefore performs all crypto through the
// metered helpers below; `CryptoMeter` is read by the benchmark harness to
// reproduce those counts (experiment E3) and by tests to assert that a
// protocol performs exactly the crypto the paper says it does.
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/rng.h"

namespace securestore::crypto {

/// An Ed25519 key pair. `seed` is the private key (paper: K_i^{-1}),
/// `public_key` the well-known verification key (paper: K_i).
struct KeyPair {
  Bytes seed;
  Bytes public_key;

  static KeyPair generate(Rng& rng);
  /// The pair for a known 32-byte seed.
  static KeyPair from_seed(BytesView seed);
};

/// Counters for cryptographic operations. One instance per thread: the
/// simulator is single-threaded, so a sim run reads a consistent snapshot.
class CryptoMeter {
 public:
  static CryptoMeter& instance();

  void reset();

  std::uint64_t signs = 0;
  std::uint64_t verifies = 0;
  std::uint64_t digests = 0;
  std::uint64_t macs = 0;
  std::uint64_t aead_ops = 0;
};

/// Ed25519 sign, counted.
Bytes meter_sign(const KeyPair& key, BytesView message);

/// Ed25519 verify, counted.
bool meter_verify(BytesView public_key, BytesView message, BytesView signature);

/// SHA-256 digest, counted.
Bytes meter_digest(BytesView data);

/// HMAC-SHA256, counted (used by the PBFT-lite baseline's authenticators).
Bytes meter_mac(BytesView key, BytesView data);

}  // namespace securestore::crypto
