#include "crypto/ed25519_batch.h"

#include <cstring>
#include <array>

#include "crypto/ed25519.h"
#include "crypto/ed25519_internal.h"
#include "crypto/keys.h"
#include "crypto/sha2.h"

namespace securestore::crypto {

namespace {

using namespace ed25519_internal;

/// One structurally-sound signature admitted to the combined equation.
struct BatchTerm {
  std::size_t index = 0;        // position in the caller's item vector
  Ge a_neg;                     // -A_i (decompressed public key, negated)
  Ge r_neg;                     // -R_i
  std::uint8_t zs[32];          // z_i * S_i mod L (summed into the B scalar)
  std::uint8_t zk[32];          // z_i * k_i mod L (scalar for -A_i)
  std::uint8_t z[32];           // z_i itself (scalar for -R_i)
};

/// Derives the batch's deterministic coefficient stream: SHA512 over a
/// domain tag and every (A, M, R||S) triple seeds the stream; coefficient i
/// is SHA512(seed || i) truncated to 128 bits. Deterministic so batch
/// verification replays identically (simulator/chaos), Fiat-Shamir so an
/// adversary cannot pick signatures whose defects cancel against
/// coefficients that depend on those signatures.
std::array<std::uint8_t, 64> batch_coefficient_seed(const std::vector<BatchVerifyItem>& items) {
  Sha512 h;
  static constexpr char kTag[] = "securestore.ed25519.batch.v1";
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(kTag), sizeof kTag - 1));
  for (const BatchVerifyItem& item : items) {
    // Length-prefix the variable-size message so item boundaries are
    // unambiguous in the transcript.
    const std::uint64_t len = item.message.size();
    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i) len_bytes[i] = static_cast<std::uint8_t>(len >> (8 * i));
    h.update(item.public_key);
    h.update(BytesView(len_bytes, 8));
    h.update(item.message);
    h.update(item.signature);
  }
  return h.finish();
}

/// z_i: 128-bit, little-endian in a 32-byte scalar, forced odd (so never
/// zero).
void derive_coefficient(std::uint8_t out[32], BytesView seed, std::uint64_t index) {
  Sha512 h;
  h.update(seed);
  std::uint8_t index_bytes[8];
  for (int i = 0; i < 8; ++i) index_bytes[i] = static_cast<std::uint8_t>(index >> (8 * i));
  h.update(BytesView(index_bytes, 8));
  const auto digest = h.finish();
  std::memset(out, 0, 32);
  std::memcpy(out, digest.data(), 16);
  out[0] |= 1;
}

}  // namespace

BatchVerifyResult ed25519_batch_verify(const std::vector<BatchVerifyItem>& items) {
  BatchVerifyResult result;
  result.valid.assign(items.size(), false);
  if (items.empty()) {
    result.all_valid = true;
    return result;
  }

  // Every item counts as one verification in the paper's cost model
  // regardless of how the batch amortizes the point arithmetic.
  CryptoMeter::instance().verifies += items.size();

  // A batch of one amortizes nothing: the single check is the same
  // equation without the coefficient hashing, and callers never need to
  // special-case it.
  if (items.size() == 1) {
    const BatchVerifyItem& item = items.front();
    result.all_valid = ed25519_verify(item.public_key, item.message, item.signature);
    result.valid[0] = result.all_valid;
    return result;
  }

  // Pass 1: structural checks (sizes, canonical S, decompressible A and R)
  // and per-item challenge k_i = SHA512(R || A || M) mod L. Structural
  // failures are definitively invalid and simply stay out of the sum; they
  // cannot poison the batch.
  std::vector<BatchTerm> terms;
  terms.reserve(items.size());
  const auto seed = batch_coefficient_seed(items);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchVerifyItem& item = items[i];
    if (item.public_key.size() != kEd25519PublicKeySize) continue;
    if (item.signature.size() != kEd25519SignatureSize) continue;
    const std::uint8_t* r_bytes = item.signature.data();
    const std::uint8_t* s_bytes = item.signature.data() + 32;
    if (!scalar_is_canonical(s_bytes)) continue;

    BatchTerm term;
    term.index = i;
    Ge a_point;
    if (!ge_decompress(a_point, item.public_key.data())) continue;
    Ge r_point;
    if (!ge_decompress(r_point, r_bytes)) continue;
    term.a_neg = ge_neg(a_point);
    term.r_neg = ge_neg(r_point);

    Sha512 hk;
    hk.update(BytesView(r_bytes, 32));
    hk.update(item.public_key);
    hk.update(item.message);
    const auto k_hash = hk.finish();
    std::uint8_t k_scalar[32];
    reduce_hash_to_scalar(k_scalar, BytesView(k_hash.data(), k_hash.size()));

    derive_coefficient(term.z, BytesView(seed.data(), seed.size()), i);
    scalar_mul(term.zk, term.z, k_scalar);
    scalar_mul(term.zs, term.z, s_bytes);
    terms.push_back(term);
  }

  if (!terms.empty()) {
    // Combined equation, rearranged to a single identity check:
    //   [sum z_i S_i] B + sum [z_i k_i] (-A_i) + sum [z_i] (-R_i) == O.
    std::uint8_t b_scalar[32] = {0};
    for (const BatchTerm& term : terms) scalar_add(b_scalar, b_scalar, term.zs);

    std::vector<MsmTerm> msm;
    msm.reserve(2 * terms.size());
    for (const BatchTerm& term : terms) {
      msm.push_back(MsmTerm{term.zk, term.a_neg});
      msm.push_back(MsmTerm{term.z, term.r_neg});
    }

    if (ge_is_identity(ge_mul_by_cofactor(ge_multiscalar_vartime(b_scalar, msm)))) {
      for (const BatchTerm& term : terms) result.valid[term.index] = true;
    } else {
      // One bad signature poisons the whole sum; isolate it by falling back
      // to per-message verification so honest requests in the same batch
      // still pass. The per-item verifies are already metered above.
      result.used_fallback = true;
      for (const BatchTerm& term : terms) {
        const BatchVerifyItem& item = items[term.index];
        result.valid[term.index] =
            ed25519_verify(item.public_key, item.message, item.signature);
      }
    }
  }

  result.all_valid = true;
  for (const bool ok : result.valid) result.all_valid = result.all_valid && ok;
  return result;
}

}  // namespace securestore::crypto
