// Batched Ed25519 verification.
//
// The server hot path is CPU-bound on per-message signature checks. Batch
// verification draws one small random coefficient z_i per signature and
// checks the single combined equation
//
//   [sum z_i * S_i] B  ==  sum [z_i] R_i  +  sum [z_i * k_i] A_i
//
// with the same multi-scalar core single verification uses
// (ge_multiscalar_vartime in ed25519_internal.h): one w-NAF Straus pass
// whose ~253 doublings and the B-side additions are shared by every term.
// Per signature that leaves the width-5 tables of A_i and R_i and their
// additions (the z_i are 128-bit, so R_i's chain is half length).
//
// Failure isolation: if the combined equation fails — one bad signature
// poisons the sum — every item is re-checked individually with
// ed25519_verify, so a Byzantine writer slipping a bad signature into a
// batch costs the server one wasted pass but never rejects (or accepts)
// an honest request. A batch that passes accepts every item.
//
// Coefficients are derived deterministically (Fiat-Shamir style) by hashing
// the whole batch, so verification is reproducible across runs and nodes —
// the deterministic simulator and the chaos replay assertion depend on
// that. Forging a batch that cancels requires choosing signatures whose
// defects are orthogonal to coefficients that depend on those very
// signatures, i.e. breaking the hash.
//
// Both this and ed25519_verify check the cofactored equation (multiplied
// through by 8, RFC 8032 §5.1.7). Without the factor 8 the two could
// disagree: two signatures whose defects are the same order-2 point cancel
// in any sum with odd coefficients, yet each fails alone. With it, a
// small-torsion defect (which only the key owner can produce) is ignored
// by both, and batch and single verification agree item by item.
#pragma once

#include <vector>

#include "util/bytes.h"

namespace securestore::crypto {

/// One signature to check. Views must stay valid for the duration of the
/// ed25519_batch_verify call; the caller owns the backing bytes.
struct BatchVerifyItem {
  BytesView public_key;  // 32 bytes
  BytesView message;
  BytesView signature;  // 64 bytes (R || S)
};

struct BatchVerifyResult {
  /// Per-item verdict, index-aligned with the input.
  std::vector<bool> valid;
  /// True iff every item verified.
  bool all_valid = false;
  /// True when the combined equation failed and items were re-checked
  /// one-by-one (at least one item is then invalid).
  bool used_fallback = false;
};

/// Verifies a batch of Ed25519 signatures. Agrees with ed25519_verify on
/// every item (malformed keys/points/scalars included); an empty batch is
/// trivially all-valid, and a batch of one is checked by ed25519_verify
/// itself (never `used_fallback`). Each checked signature is metered as one
/// verify on the CryptoMeter, same as the single-signature path.
BatchVerifyResult ed25519_batch_verify(const std::vector<BatchVerifyItem>& items);

}  // namespace securestore::crypto
