// Ed25519 internals shared by signing and single verify (ed25519.cpp) and
// batch verify (ed25519_batch.cpp); implemented in ed25519_internal.cpp.
//
// Batch and single verification must agree bit-for-bit on what a valid
// point or canonical scalar is, and on the arithmetic that checks the
// equation, so both run through the two scalar-multiplication routines
// declared here:
//  * ge_scalarmult_base: [a]B for a SECRET a (signing nonce, key
//    generation). Signed radix-16 fixed-base comb over a 32x8 table of
//    multiples of B (the ref10 technique, Bernstein et al. 2011); every
//    table lookup scans all 8 candidates with masks, so neither the memory
//    access pattern nor the branches depend on a.
//  * ge_multiscalar_vartime: [b]B + sum [s_i]P_i over PUBLIC inputs only
//    (verification). Straus' interleaving with width-8 w-NAF digits over a
//    static table of odd multiples of B and width-5 digits over a per-call
//    table for each P_i; it branches on the scalars' digits.
// Not part of the public crypto API: include only from crypto/*.cpp and
// crypto tests.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "util/bytes.h"

namespace securestore::crypto::ed25519_internal {

// ---------------------------------------------------------------------------
// Group: extended twisted-Edwards coordinates (X:Y:Z:T), a = -1, with
// x = X/Z, y = Y/Z and xy = T/Z.
// ---------------------------------------------------------------------------

struct Ge {
  fe25519::Fe x, y, z, t;
};

Ge ge_identity();
/// The base point B (y = 4/5, x positive; RFC 8032).
const Ge& ge_base();
Ge ge_add(const Ge& p, const Ge& q);
Ge ge_double(const Ge& p);
Ge ge_neg(const Ge& p);

void ge_compress(std::uint8_t out[32], const Ge& p);
/// Decompresses a point; false if the encoding is non-canonical (y >= p,
/// or x = 0 with the sign bit set) or not on the curve.
bool ge_decompress(Ge& out, const std::uint8_t in[32]);
/// True iff p is the group identity (projective check, no inversion).
bool ge_is_identity(const Ge& p);
/// [8]p: clears any small-torsion component (the curve has cofactor 8).
Ge ge_mul_by_cofactor(const Ge& p);

/// [a]B in constant time. `a` is 32 little-endian bytes with a[31] <= 127
/// (true of any scalar mod L and of a clamped secret scalar).
Ge ge_scalarmult_base(const std::uint8_t a[32]);

/// Width-w non-adjacent form of a scalar s < 2^255 (s[31] <= 127),
/// 2 <= w <= 8: s = sum naf[i] 2^i, every nonzero digit odd with
/// |digit| < 2^(w-1), and any w consecutive digits hold at most one
/// nonzero.
void wnaf(std::int8_t naf[256], const std::uint8_t s[32], int w);

/// One variable-base term [scalar]point of a multi-scalar multiplication.
/// `scalar` points at 32 little-endian bytes with scalar[31] <= 127.
struct MsmTerm {
  const std::uint8_t* scalar;
  Ge point;
};

/// [b]B + sum [t.scalar]t.point in variable time (public inputs only).
Ge ge_multiscalar_vartime(const std::uint8_t b[32], std::span<const MsmTerm> terms);

// ---------------------------------------------------------------------------
// Scalars mod L = 2^252 + 27742317777372353535851937790883648493, as 32
// little-endian bytes. Reduction is Barrett's with 64-bit words.
// ---------------------------------------------------------------------------

/// Reduces a 64-byte hash to a scalar mod L (RFC 8032 "interpret as
/// little-endian integer, reduce").
void reduce_hash_to_scalar(std::uint8_t out[32], BytesView hash64);

/// out = (a * b) mod L for 32-byte scalars.
void scalar_mul(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]);

/// out = (a + b) mod L for 32-byte scalars.
void scalar_add(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]);

/// out = (r + k*a) mod L for 32-byte scalars.
void scalar_muladd(std::uint8_t out[32], const std::uint8_t k[32], const std::uint8_t a[32],
                   const std::uint8_t r[32]);

/// True iff the 32 little-endian bytes encode an integer < L.
bool scalar_is_canonical(const std::uint8_t s[32]);

struct ExpandedKey {
  std::uint8_t scalar[32];  // clamped
  std::uint8_t prefix[32];
};

/// SHA-512 of the 32-byte seed, split and clamped (RFC 8032 §5.1.5).
ExpandedKey expand_seed(BytesView seed);

}  // namespace securestore::crypto::ed25519_internal
