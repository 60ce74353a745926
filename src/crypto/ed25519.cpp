#include "crypto/ed25519.h"

#include <cstring>
#include <stdexcept>

#include "crypto/ed25519_internal.h"
#include "crypto/keys.h"
#include "crypto/sha2.h"

namespace securestore::crypto {

using namespace ed25519_internal;

Bytes ed25519_public_key(BytesView seed) {
  const ExpandedKey key = expand_seed(seed);
  Bytes out(kEd25519PublicKeySize);
  ge_compress(out.data(), ge_scalarmult_base(key.scalar));
  return out;
}

Bytes ed25519_sign(const KeyPair& key, BytesView message) {
  if (key.public_key.size() != kEd25519PublicKeySize) {
    throw std::invalid_argument("ed25519: public key must be 32 bytes");
  }
  const ExpandedKey expanded = expand_seed(key.seed);

  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.update(BytesView(expanded.prefix, 32));
  hr.update(message);
  const auto r_hash = hr.finish();
  std::uint8_t r_scalar[32];
  reduce_hash_to_scalar(r_scalar, BytesView(r_hash.data(), r_hash.size()));

  // R = r*B
  std::uint8_t r_bytes[32];
  ge_compress(r_bytes, ge_scalarmult_base(r_scalar));

  // k = SHA512(R || A || M) mod L
  Sha512 hk;
  hk.update(BytesView(r_bytes, 32));
  hk.update(key.public_key);
  hk.update(message);
  const auto k_hash = hk.finish();
  std::uint8_t k_scalar[32];
  reduce_hash_to_scalar(k_scalar, BytesView(k_hash.data(), k_hash.size()));

  // S = (r + k*a) mod L
  std::uint8_t s_scalar[32];
  scalar_muladd(s_scalar, k_scalar, expanded.scalar, r_scalar);

  Bytes signature(kEd25519SignatureSize);
  std::memcpy(signature.data(), r_bytes, 32);
  std::memcpy(signature.data() + 32, s_scalar, 32);
  return signature;
}

bool ed25519_verify(BytesView public_key, BytesView message, BytesView signature) {
  if (public_key.size() != kEd25519PublicKeySize) return false;
  if (signature.size() != kEd25519SignatureSize) return false;

  const std::uint8_t* r_bytes = signature.data();
  const std::uint8_t* s_bytes = signature.data() + 32;
  if (!scalar_is_canonical(s_bytes)) return false;

  Ge a_point;
  if (!ge_decompress(a_point, public_key.data())) return false;
  Ge r_point;
  if (!ge_decompress(r_point, r_bytes)) return false;

  // k = SHA512(R || A || M) mod L
  Sha512 hk;
  hk.update(BytesView(r_bytes, 32));
  hk.update(public_key);
  hk.update(message);
  const auto k_hash = hk.finish();
  std::uint8_t k_scalar[32];
  reduce_hash_to_scalar(k_scalar, BytesView(k_hash.data(), k_hash.size()));

  // The cofactored equation of RFC 8032 §5.1.7, [8]([S]B + [k](-A) - R)
  // == O: the one ed25519_batch_verify checks for a sum, so both paths
  // give the same verdict (see ed25519_batch.h).
  const MsmTerm term{k_scalar, ge_neg(a_point)};
  const Ge sb_minus_ka = ge_multiscalar_vartime(s_bytes, std::span(&term, 1));
  return ge_is_identity(ge_mul_by_cofactor(ge_add(sb_minus_ka, ge_neg(r_point))));
}

}  // namespace securestore::crypto
