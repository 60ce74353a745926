#include "crypto/keys.h"

#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha2.h"

namespace securestore::crypto {

KeyPair KeyPair::generate(Rng& rng) { return from_seed(rng.bytes(kEd25519SeedSize)); }

KeyPair KeyPair::from_seed(BytesView seed) {
  return KeyPair{Bytes(seed.begin(), seed.end()), ed25519_public_key(seed)};
}

CryptoMeter& CryptoMeter::instance() {
  thread_local CryptoMeter meter;
  return meter;
}

void CryptoMeter::reset() { *this = CryptoMeter{}; }

Bytes meter_sign(const KeyPair& key, BytesView message) {
  ++CryptoMeter::instance().signs;
  return ed25519_sign(key, message);
}

bool meter_verify(BytesView public_key, BytesView message, BytesView signature) {
  ++CryptoMeter::instance().verifies;
  return ed25519_verify(public_key, message, signature);
}

Bytes meter_digest(BytesView data) {
  ++CryptoMeter::instance().digests;
  return sha256(data);
}

Bytes meter_mac(BytesView key, BytesView data) {
  ++CryptoMeter::instance().macs;
  return hmac_sha256(key, data);
}

}  // namespace securestore::crypto
