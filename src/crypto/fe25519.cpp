#include "crypto/fe25519.h"

namespace securestore::crypto::fe25519 {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64{1} << 51) - 1;

// 4p limb by limb: large enough that a + 4p - b stays non-negative for any
// subtrahend allowed by the limb bounds in fe25519.h.
constexpr u64 k4P0 = 4 * ((u64{1} << 51) - 19);
constexpr u64 k4Pi = 4 * ((u64{1} << 51) - 1);

/// One carry pass: limbs 1..4 end below 2^51, limb 0 below 2^51 plus 19
/// times the top carry.
void carry_once(Fe& h) {
  for (int i = 0; i < 4; ++i) {
    h.v[i + 1] += h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  h.v[0] += 19 * (h.v[4] >> 51);
  h.v[4] &= kMask51;
}

/// Folds the five 128-bit column sums of a product into a tight element.
Fe reduce_columns(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe h;
  t1 += static_cast<u64>(t0 >> 51);
  h.v[0] = static_cast<u64>(t0) & kMask51;
  t2 += static_cast<u64>(t1 >> 51);
  h.v[1] = static_cast<u64>(t1) & kMask51;
  t3 += static_cast<u64>(t2 >> 51);
  h.v[2] = static_cast<u64>(t2) & kMask51;
  t4 += static_cast<u64>(t3 >> 51);
  h.v[3] = static_cast<u64>(t3) & kMask51;
  h.v[4] = static_cast<u64>(t4) & kMask51;
  h.v[0] += static_cast<u64>(t4 >> 51) * 19;
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  return h;
}

/// The unique representative in [0, p), limbs below 2^51.
Fe canonical(const Fe& f) {
  Fe h = f;
  carry_once(h);
  carry_once(h);
  // h < 2^255 + 19 < 2p now, so h >= p iff h + 19 carries out of bit 255.
  u64 q = (h.v[0] + 19) >> 51;
  q = (h.v[1] + q) >> 51;
  q = (h.v[2] + q) >> 51;
  q = (h.v[3] + q) >> 51;
  q = (h.v[4] + q) >> 51;
  h.v[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    h.v[i + 1] += h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  h.v[4] &= kMask51;  // drops the 2^255 that q accounted for
  return h;
}

}  // namespace

Fe from_bytes(const std::uint8_t s[32]) {
  auto load64 = [&](int offset) {
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(s[offset + i]) << (8 * i);
    return v;
  };
  Fe h;
  h.v[0] = load64(0) & kMask51;
  h.v[1] = (load64(6) >> 3) & kMask51;
  h.v[2] = (load64(12) >> 6) & kMask51;
  h.v[3] = (load64(19) >> 1) & kMask51;
  h.v[4] = (load64(24) >> 12) & kMask51;
  return h;
}

void to_bytes(std::uint8_t s[32], const Fe& f) {
  const Fe h = canonical(f);
  u64 packed[4];
  packed[0] = h.v[0] | (h.v[1] << 51);
  packed[1] = (h.v[1] >> 13) | (h.v[2] << 38);
  packed[2] = (h.v[2] >> 26) | (h.v[3] << 25);
  packed[3] = (h.v[3] >> 39) | (h.v[4] << 12);
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 8; ++i) s[8 * w + i] = static_cast<std::uint8_t>(packed[w] >> (8 * i));
  }
}

Fe sub(const Fe& a, const Fe& b) {
  Fe h;
  h.v[0] = a.v[0] + k4P0 - b.v[0];
  for (int i = 1; i < 5; ++i) h.v[i] = a.v[i] + k4Pi - b.v[i];
  carry_once(h);
  return h;
}

Fe neg(const Fe& a) { return sub(kZero, a); }

Fe mul(const Fe& a, const Fe& b) {
  const u128 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  return reduce_columns(a0 * b0 + a1 * b4_19 + a2 * b3_19 + a3 * b2_19 + a4 * b1_19,
                        a0 * b1 + a1 * b0 + a2 * b4_19 + a3 * b3_19 + a4 * b2_19,
                        a0 * b2 + a1 * b1 + a2 * b0 + a3 * b4_19 + a4 * b3_19,
                        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * b4_19,
                        a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0);
}

Fe sq(const Fe& a) {
  const u128 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 a0_2 = a.v[0] * 2, a1_2 = a.v[1] * 2;
  const u64 a1_38 = a.v[1] * 38, a2_38 = a.v[2] * 38, a3_38 = a.v[3] * 38;
  const u64 a3_19 = a.v[3] * 19, a4_19 = a.v[4] * 19;

  return reduce_columns(a0 * a0 + a1_38 * a4 + a2_38 * a3,
                        a0_2 * a1 + a2_38 * a4 + a3_19 * a3,
                        a0_2 * a2 + a1 * a1 + a3_38 * a4,
                        a0_2 * a3 + a1_2 * a2 + a4_19 * a4,
                        a0_2 * a4 + a1_2 * a3 + a2 * a2);
}

Fe sqn(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = sq(a);
  return a;
}

Fe mul_small(const Fe& a, std::uint64_t small) {
  Fe h;
  u128 c = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 t = static_cast<u128>(a.v[i]) * small + c;
    h.v[i] = static_cast<u64>(t) & kMask51;
    c = t >> 51;
  }
  h.v[0] += static_cast<u64>(c) * 19;
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  return h;
}

bool is_zero(const Fe& a) {
  const Fe h = canonical(a);
  return (h.v[0] | h.v[1] | h.v[2] | h.v[3] | h.v[4]) == 0;
}

bool equal(const Fe& a, const Fe& b) {
  const Fe x = canonical(a);
  const Fe y = canonical(b);
  return ((x.v[0] ^ y.v[0]) | (x.v[1] ^ y.v[1]) | (x.v[2] ^ y.v[2]) | (x.v[3] ^ y.v[3]) |
          (x.v[4] ^ y.v[4])) == 0;
}

bool is_negative(const Fe& a) { return (canonical(a).v[0] & 1) != 0; }

Fe invert(const Fe& a) {
  const Fe z2 = sq(a);
  const Fe z8 = sqn(z2, 2);
  const Fe z9 = mul(z8, a);
  const Fe z11 = mul(z9, z2);
  const Fe z22 = sq(z11);
  const Fe z_5_0 = mul(z22, z9);
  const Fe z_10_5 = sqn(z_5_0, 5);
  const Fe z_10_0 = mul(z_10_5, z_5_0);
  const Fe z_20_10 = sqn(z_10_0, 10);
  const Fe z_20_0 = mul(z_20_10, z_10_0);
  const Fe z_40_20 = sqn(z_20_0, 20);
  const Fe z_40_0 = mul(z_40_20, z_20_0);
  const Fe z_50_10 = sqn(z_40_0, 10);
  const Fe z_50_0 = mul(z_50_10, z_10_0);
  const Fe z_100_50 = sqn(z_50_0, 50);
  const Fe z_100_0 = mul(z_100_50, z_50_0);
  const Fe z_200_100 = sqn(z_100_0, 100);
  const Fe z_200_0 = mul(z_200_100, z_100_0);
  const Fe z_250_50 = sqn(z_200_0, 50);
  const Fe z_250_0 = mul(z_250_50, z_50_0);
  const Fe z_255_5 = sqn(z_250_0, 5);
  return mul(z_255_5, z11);
}

Fe pow22523(const Fe& a) {
  const Fe z2 = sq(a);
  const Fe z8 = sqn(z2, 2);
  const Fe z9 = mul(z8, a);
  const Fe z11 = mul(z9, z2);
  const Fe z22 = sq(z11);
  const Fe z_5_0 = mul(z22, z9);
  const Fe z_10_5 = sqn(z_5_0, 5);
  const Fe z_10_0 = mul(z_10_5, z_5_0);
  const Fe z_20_10 = sqn(z_10_0, 10);
  const Fe z_20_0 = mul(z_20_10, z_10_0);
  const Fe z_40_20 = sqn(z_20_0, 20);
  const Fe z_40_0 = mul(z_40_20, z_20_0);
  const Fe z_50_10 = sqn(z_40_0, 10);
  const Fe z_50_0 = mul(z_50_10, z_10_0);
  const Fe z_100_50 = sqn(z_50_0, 50);
  const Fe z_100_0 = mul(z_100_50, z_50_0);
  const Fe z_200_100 = sqn(z_100_0, 100);
  const Fe z_200_0 = mul(z_200_100, z_100_0);
  const Fe z_250_50 = sqn(z_200_0, 50);
  const Fe z_250_0 = mul(z_250_50, z_50_0);
  const Fe z_252_2 = sqn(z_250_0, 2);
  return mul(z_252_2, a);
}

}  // namespace securestore::crypto::fe25519
