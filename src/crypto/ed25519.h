// Ed25519 signatures (RFC 8032), implemented from scratch.
//
// These are the paper's client signatures {data}_{K_i^{-1}}: every write
// record, context and dissemination message carries one, which is the
// mechanism that reduces quorum sizes to b+1 (a malicious server cannot
// forge, only omit or replay old-but-valid records).
//
// Implementation notes
//  * field arithmetic mod p = 2^255 - 19 in crypto/fe25519.h: five 51-bit
//    limbs, unsigned __int128 accumulators, additions without carries;
//  * group operations in extended twisted-Edwards coordinates
//    (Hisil-Wong-Carter-Dawson 2008 formulas, a = -1);
//  * two scalar multiplications (crypto/ed25519_internal.h):
//    - signing and key generation compute R = r*B and A = a*B with a
//      signed-radix-16 fixed-base table. The scalars are secret, so the
//      table lookups are constant-time: every entry of a row is read and
//      the wanted one selected with masks;
//    - verification (single and batch) computes [S]B - [k]A (and the
//      batch's combined sum) with one variable-time w-NAF Straus core. Its
//      inputs are public, so it branches on scalar digits and skips zero
//      ones;
//  * signing takes the key pair's cached public key instead of recomputing
//    A, so a signature costs one fixed-base multiplication;
//  * scalar arithmetic mod the group order L with Barrett reduction;
//  * verification (single and batch) checks the cofactored equation
//    [8][S]B = [8]R + [8][k]A of RFC 8032 §5.1.7, so both paths give the
//    same verdict on every input (see ed25519_batch.h);
//  * validated against the RFC 8032 test vectors in tests/crypto_test.cpp.
//
// Constant time: signing and key generation, over the secret scalar and
// nonce. The fixed-base lookups read every table entry, and the field and
// scalar arithmetic they run on have no secret-dependent branches; the
// only branch is on the sign of R's x, which R's encoding publishes.
// Variable time: verification, whose inputs (key, message, signature)
// are all public. Timing side channels are otherwise outside the paper's
// threat model (§4 assumes secure channels and sound cryptography).
#pragma once

#include "util/bytes.h"

namespace securestore::crypto {

struct KeyPair;  // crypto/keys.h

constexpr std::size_t kEd25519SeedSize = 32;
constexpr std::size_t kEd25519PublicKeySize = 32;
constexpr std::size_t kEd25519SignatureSize = 64;

/// Derives the 32-byte public key from a 32-byte secret seed.
Bytes ed25519_public_key(BytesView seed);

/// Signs `message` with `key`; returns 64 bytes (R||S). `key.public_key`
/// must be the one ed25519_public_key derives from `key.seed`, as
/// KeyPair::generate and KeyPair::from_seed guarantee: it is hashed into
/// S unchecked, and signatures of one message under two different public
/// keys would reveal the secret scalar.
Bytes ed25519_sign(const KeyPair& key, BytesView message);

/// Verifies `signature` over `message` under `public_key`.
/// Returns false for malformed points/scalars as well as wrong signatures.
bool ed25519_verify(BytesView public_key, BytesView message, BytesView signature);

}  // namespace securestore::crypto
