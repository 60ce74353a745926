// Field arithmetic mod p = 2^255 - 19 (internal).
//
// Shared by Ed25519 (signatures) and X25519 (Diffie–Hellman): five 51-bit
// limbs and unsigned __int128 accumulators.
//
// Limb bounds. A "tight" element has every limb below 2^51 + 2^15; mul,
// sq, sub, mul_small and from_bytes return tight elements. add does no
// carrying at all, so a sum of a few tight elements has limbs below 2^53.
// The rules that keep every operation in range:
//  * mul and sq accept limbs below 2^54 (the 128-bit column sums and the
//    64-bit carries then cannot overflow);
//  * sub(a, b) adds 4p before subtracting, so b's limbs must stay below
//    2^53 - 76 (true for any sum of up to three tight elements); it ends
//    with one carry pass, so its result is tight again;
//  * to_bytes, is_zero, is_negative and equal fully reduce first and take
//    any element within the bounds above.
// The arithmetic (add, sub, mul, sq, mul_small, invert, pow22523) and the
// reductions behind to_bytes/is_zero/equal/is_negative have no
// data-dependent branches or memory accesses; whether a caller branches on
// their results is the caller's business (ed25519.h says which Ed25519
// paths are constant-time).
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace securestore::crypto::fe25519 {

struct Fe {
  std::uint64_t v[5];
};

inline constexpr Fe kZero = {{0, 0, 0, 0, 0}};
inline constexpr Fe kOne = {{1, 0, 0, 0, 0}};

/// Little-endian 32-byte load; bit 255 is ignored.
Fe from_bytes(const std::uint8_t s[32]);

/// Canonical little-endian 32-byte store (fully reduced mod p).
void to_bytes(std::uint8_t s[32], const Fe& f);

/// a + b without carrying (see the limb bounds above).
inline Fe add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3],
             a.v[4] + b.v[4]}};
}

Fe sub(const Fe& a, const Fe& b);
Fe neg(const Fe& a);
Fe mul(const Fe& a, const Fe& b);
/// a^2 with the symmetric cross products computed once (15 limb products
/// instead of mul's 25).
Fe sq(const Fe& a);
/// a^(2^n) by repeated squaring.
Fe sqn(Fe a, int n);
/// Multiplies by a small scalar (< 2^17, e.g. X25519's a24 = 121665).
Fe mul_small(const Fe& a, std::uint64_t small);
/// a^(p-2) = a^-1.
Fe invert(const Fe& a);
/// a^((p-5)/8), for square roots in point decompression.
Fe pow22523(const Fe& a);

bool is_zero(const Fe& a);
bool is_negative(const Fe& a);
bool equal(const Fe& a, const Fe& b);

}  // namespace securestore::crypto::fe25519
