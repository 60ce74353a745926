#include "crypto/ed25519_internal.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "crypto/sha2.h"

namespace securestore::crypto::ed25519_internal {

namespace {

using fe25519::Fe;
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Curve constants as canonical little-endian bytes (RFC 8032):
// d = -121665/121666 mod p, and sqrt(-1) mod p.
constexpr std::uint8_t kDBytes[32] = {
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41,
    0x41, 0x4d, 0x0a, 0x70, 0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40,
    0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52};
constexpr std::uint8_t kSqrtM1Bytes[32] = {
    0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f,
    0xad, 0x06, 0x18, 0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00,
    0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b};

const Fe& fe_d() {
  static const Fe d = fe25519::from_bytes(kDBytes);
  return d;
}

const Fe& fe_2d() {
  static const Fe two_d = fe25519::mul_small(fe_d(), 2);
  return two_d;
}

const Fe& fe_sqrtm1() {
  static const Fe s = fe25519::from_bytes(kSqrtM1Bytes);
  return s;
}

// Intermediate point forms (ref10 naming). A doubling or an addition
// yields a "completed" P1P1 point ((X:Z), (Y:T)); converting it to P2
// (X:Y:Z) costs three multiplications, to the extended Ge four, so the
// loops below convert to Ge only when an addition follows.
struct P2 {
  Fe x, y, z;
};
struct P1P1 {
  Fe x, y, z, t;
};
/// A point prepared as an addend: (Y+X, Y-X, Z, 2dT).
struct Cached {
  Fe yplusx, yminusx, z, t2d;
};
/// An affine point prepared as an addend: (y+x, y-x, 2dxy).
struct Precomp {
  Fe yplusx, yminusx, xy2d;
};

P2 to_p2(const P1P1& p) {
  return P2{fe25519::mul(p.x, p.t), fe25519::mul(p.y, p.z), fe25519::mul(p.z, p.t)};
}

Ge to_ge(const P1P1& p) {
  return Ge{fe25519::mul(p.x, p.t), fe25519::mul(p.y, p.z), fe25519::mul(p.z, p.t),
            fe25519::mul(p.x, p.y)};
}

Cached to_cached(const Ge& p) {
  return Cached{fe25519::add(p.y, p.x), fe25519::sub(p.y, p.x), p.z,
                fe25519::mul(p.t, fe_2d())};
}

Precomp to_precomp(const Ge& p) {
  const Fe zinv = fe25519::invert(p.z);
  const Fe x = fe25519::mul(p.x, zinv);
  const Fe y = fe25519::mul(p.y, zinv);
  return Precomp{fe25519::add(y, x), fe25519::sub(y, x),
                 fe25519::mul(fe25519::mul(x, y), fe_2d())};
}

/// 2p (dbl-2008-hwcd).
P1P1 dbl(const P2& p) {
  const Fe xx = fe25519::sq(p.x);
  const Fe yy = fe25519::sq(p.y);
  const Fe zz = fe25519::sq(p.z);
  const Fe xy2 = fe25519::sq(fe25519::add(p.x, p.y));
  P1P1 r;
  r.y = fe25519::add(yy, xx);
  r.z = fe25519::sub(yy, xx);
  r.x = fe25519::sub(xy2, r.y);
  r.t = fe25519::sub(fe25519::add(zz, zz), r.z);
  return r;
}

P1P1 dbl(const Ge& p) { return dbl(P2{p.x, p.y, p.z}); }

/// p + q or p - q (add-2008-hwcd-3, complete on Ed25519). `yplusx` and
/// `yminusx` are q's (swapped by the caller to subtract), `c` is
/// (+/-)2d*T_p*T_q, and `zz2` is 2*Z_p*Z_q.
P1P1 add_parts(const Ge& p, const Fe& yplusx, const Fe& yminusx, const Fe& c,
               const Fe& zz2, bool negate) {
  const Fe a = fe25519::mul(fe25519::sub(p.y, p.x), yminusx);
  const Fe b = fe25519::mul(fe25519::add(p.y, p.x), yplusx);
  P1P1 r;
  r.x = fe25519::sub(b, a);
  r.y = fe25519::add(b, a);
  r.z = negate ? fe25519::sub(zz2, c) : fe25519::add(zz2, c);
  r.t = negate ? fe25519::add(zz2, c) : fe25519::sub(zz2, c);
  return r;
}

P1P1 add(const Ge& p, const Cached& q, bool negate = false) {
  const Fe zz = fe25519::mul(p.z, q.z);
  return add_parts(p, negate ? q.yminusx : q.yplusx, negate ? q.yplusx : q.yminusx,
                   fe25519::mul(q.t2d, p.t), fe25519::add(zz, zz), negate);
}

P1P1 madd(const Ge& p, const Precomp& q, bool negate = false) {
  return add_parts(p, negate ? q.yminusx : q.yplusx, negate ? q.yplusx : q.yminusx,
                   fe25519::mul(q.xy2d, p.t), fe25519::add(p.z, p.z), negate);
}

// ---------------------------------------------------------------------------
// Fixed-base table for signing: base_comb()[i][j] = (j+1) * 256^i * B.
// ---------------------------------------------------------------------------

using CombTable = std::array<std::array<Precomp, 8>, 32>;

const CombTable& base_comb() {
  static const CombTable table = [] {
    CombTable t;
    Ge row_base = ge_base();
    for (auto& row : t) {
      Ge multiple = row_base;
      for (Precomp& entry : row) {
        entry = to_precomp(multiple);
        multiple = ge_add(multiple, row_base);
      }
      for (int k = 0; k < 8; ++k) row_base = ge_double(row_base);
    }
    return t;
  }();
  return table;
}

/// All-ones iff flag is 1; flag must be 0 or 1.
u64 mask_of(u64 flag) { return 0 - flag; }

void cmov(Fe& f, const Fe& g, u64 mask) {
  for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

void cmov(Precomp& t, const Precomp& u, u64 mask) {
  cmov(t.yplusx, u.yplusx, mask);
  cmov(t.yminusx, u.yminusx, mask);
  cmov(t.xy2d, u.xy2d, mask);
}

/// 1 iff a == b, for small non-negative ints, without a branch.
u64 ct_equal(int a, int b) {
  const u64 diff = static_cast<std::uint32_t>(a ^ b);
  return (diff - 1) >> 63;
}

/// digit * 256^row * B for a digit in [-8, 8], reading every entry of the
/// row whatever the digit.
Precomp comb_select(int row, int digit) {
  const u64 negative = static_cast<u64>(static_cast<std::int64_t>(digit)) >> 63;
  const int magnitude = digit - 2 * (digit & -static_cast<int>(negative));
  // Identity: y+x = y-x = 1, 2dxy = 0.
  Precomp t{fe25519::kOne, fe25519::kOne, fe25519::kZero};
  const auto& entries = base_comb()[static_cast<std::size_t>(row)];
  for (int j = 0; j < 8; ++j) cmov(t, entries[static_cast<std::size_t>(j)],
                                   mask_of(ct_equal(magnitude, j + 1)));
  const Precomp minus{t.yminusx, t.yplusx, fe25519::neg(t.xy2d)};
  cmov(t, minus, mask_of(negative));
  return t;
}

// ---------------------------------------------------------------------------
// Variable-time verification core.
// ---------------------------------------------------------------------------

constexpr int kBaseWindow = 8;  // 64 odd multiples of B, built once
constexpr int kPointWindow = 5;  // 8 odd multiples per variable point

const std::array<Precomp, 64>& base_odd_multiples() {
  static const std::array<Precomp, 64> table = [] {
    std::array<Precomp, 64> t;
    const Ge twice = ge_double(ge_base());
    Ge multiple = ge_base();
    for (Precomp& entry : t) {
      entry = to_precomp(multiple);
      multiple = ge_add(multiple, twice);
    }
    return t;
  }();
  return table;
}

struct PreparedTerm {
  std::int8_t naf[256];
  Cached odd[8];  // P, 3P, ..., 15P
};

void prepare(PreparedTerm& out, const MsmTerm& term) {
  wnaf(out.naf, term.scalar, kPointWindow);
  const Cached twice = to_cached(ge_double(term.point));
  Ge multiple = term.point;
  out.odd[0] = to_cached(multiple);
  for (int j = 1; j < 8; ++j) {
    multiple = to_ge(add(multiple, twice));
    out.odd[j] = to_cached(multiple);
  }
}

int top_digit(const std::int8_t naf[256]) {
  for (int i = 255; i >= 0; --i) {
    if (naf[i] != 0) return i;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L.
// ---------------------------------------------------------------------------

// L and floor(2^512 / L) as little-endian 64-bit words.
constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL};
constexpr u64 kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL, 0xffffffffffffffebULL,
                        0xffffffffffffffffULL, 0xfULL};

using Wide = std::array<u64, 8>;

Wide load_wide(BytesView bytes) {
  Wide x{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    x[i / 8] |= static_cast<u64>(bytes[i]) << (8 * (i % 8));
  }
  return x;
}

/// r = a - b over `n` words; returns the borrow out.
u64 sub_words(u64* r, const u64* a, const u64* b, int n) {
  u64 borrow = 0;
  for (int i = 0; i < n; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return borrow;
}

/// x mod L for any x < 2^512 (Barrett, HAC 14.42 with b = 2^64, k = 4).
void reduce_wide(std::uint8_t out[32], const Wide& x) {
  // q = floor(floor(x / b^3) * mu / b^5) undershoots x / L by at most 2.
  u64 q2[10] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 cur = static_cast<u128>(x[3 + i]) * kMu[j] + q2[i + j] + carry;
      q2[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    q2[i + 5] = carry;
  }
  const u64* q = q2 + 5;
  // r = (x - q*L) mod b^5, then at most two subtractions of L.
  u64 ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4 && i + j < 5; ++j) {
      const u128 cur = static_cast<u128>(q[i]) * kL[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    if (i + 4 < 5) ql[i + 4] = carry;
  }
  u64 r[5];
  sub_words(r, x.data(), ql, 5);
  const u64 l5[5] = {kL[0], kL[1], kL[2], kL[3], 0};
  for (int round = 0; round < 2; ++round) {
    // Keep r - L unless it borrowed; selected with a mask, since signing
    // reduces secret values here.
    u64 t[5];
    const u64 keep_r = 0 - sub_words(t, r, l5, 5);
    for (int i = 0; i < 5; ++i) r[i] = (r[i] & keep_r) | (t[i] & ~keep_r);
  }
  for (int i = 0; i < 32; ++i) out[i] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
}

Wide mul_wide(const std::uint8_t a[32], const std::uint8_t b[32]) {
  const Wide aa = load_wide(BytesView(a, 32));
  const Wide bb = load_wide(BytesView(b, 32));
  Wide r{};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(aa[i]) * bb[j] + r[i + j] + carry;
      r[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    r[i + 4] = carry;
  }
  return r;
}

/// x += 32-byte y; x must stay below 2^512.
void add_into(Wide& x, const std::uint8_t y[32]) {
  const Wide yy = load_wide(BytesView(y, 32));
  u64 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 sum = static_cast<u128>(x[i]) + yy[i] + carry;
    x[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Group operations
// ---------------------------------------------------------------------------

Ge ge_identity() { return Ge{fe25519::kZero, fe25519::kOne, fe25519::kOne, fe25519::kZero}; }

const Ge& ge_base() {
  static const Ge base = [] {
    std::uint8_t y_bytes[32];
    std::memset(y_bytes, 0x66, 32);
    y_bytes[0] = 0x58;
    Ge b;
    if (!ge_decompress(b, y_bytes)) throw std::logic_error("ed25519: bad base point");
    return b;
  }();
  return base;
}

Ge ge_add(const Ge& p, const Ge& q) { return to_ge(add(p, to_cached(q))); }

Ge ge_double(const Ge& p) { return to_ge(dbl(p)); }

Ge ge_neg(const Ge& p) { return Ge{fe25519::neg(p.x), p.y, p.z, fe25519::neg(p.t)}; }

void ge_compress(std::uint8_t out[32], const Ge& p) {
  const Fe zinv = fe25519::invert(p.z);
  const Fe x = fe25519::mul(p.x, zinv);
  const Fe y = fe25519::mul(p.y, zinv);
  fe25519::to_bytes(out, y);
  if (fe25519::is_negative(x)) out[31] |= 0x80;
}

bool ge_is_identity(const Ge& p) {
  return fe25519::is_zero(p.x) && fe25519::equal(p.y, p.z);
}

Ge ge_mul_by_cofactor(const Ge& p) { return to_ge(dbl(to_p2(dbl(to_p2(dbl(p)))))); }

bool ge_decompress(Ge& out, const std::uint8_t in[32]) {
  std::uint8_t y_bytes[32];
  std::memcpy(y_bytes, in, 32);
  const bool sign = (y_bytes[31] & 0x80) != 0;
  y_bytes[31] &= 0x7f;

  const Fe y = fe25519::from_bytes(y_bytes);
  // Reject non-canonical y (>= p). from_bytes reduces silently, so
  // re-serialize and compare.
  std::uint8_t canonical[32];
  fe25519::to_bytes(canonical, y);
  if (std::memcmp(canonical, y_bytes, 32) != 0) return false;

  // x^2 = (y^2 - 1) / (d*y^2 + 1)
  const Fe y2 = fe25519::sq(y);
  const Fe u = fe25519::sub(y2, fe25519::kOne);
  const Fe v = fe25519::add(fe25519::mul(fe_d(), y2), fe25519::kOne);

  // x = u*v^3 * (u*v^7)^((p-5)/8)  (RFC 8032 §5.1.3)
  const Fe v3 = fe25519::mul(fe25519::sq(v), v);
  const Fe v7 = fe25519::mul(fe25519::sq(v3), v);
  Fe x = fe25519::mul(fe25519::mul(u, v3), fe25519::pow22523(fe25519::mul(u, v7)));

  const Fe vx2 = fe25519::mul(v, fe25519::sq(x));
  if (!fe25519::equal(vx2, u)) {
    if (!fe25519::equal(vx2, fe25519::neg(u))) return false;
    x = fe25519::mul(x, fe_sqrtm1());
  }

  if (fe25519::is_zero(x) && sign) return false;  // -0 is not a valid encoding
  if (fe25519::is_negative(x) != sign) x = fe25519::neg(x);

  out.x = x;
  out.y = y;
  out.z = fe25519::kOne;
  out.t = fe25519::mul(x, y);
  return true;
}

// ---------------------------------------------------------------------------
// Fixed-base multiplication (secret scalar, constant time)
// ---------------------------------------------------------------------------

Ge ge_scalarmult_base(const std::uint8_t a[32]) {
  // Signed radix 16: a = sum e[i] 16^i with every e[i] in [-8, 8].
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>((a[i] >> 4) & 15);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int digit = e[i] + carry;
    carry = (digit + 8) >> 4;
    e[i] = static_cast<std::int8_t>(digit - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  // Odd digits first (row i/2 holds 256^(i/2) multiples), times 16, then
  // the even digits: sum e[i] 16^i B = 16 * sum_odd + sum_even.
  Ge h = ge_identity();
  for (int i = 1; i < 64; i += 2) h = to_ge(madd(h, comb_select(i / 2, e[i])));
  P1P1 r = dbl(h);
  for (int k = 0; k < 3; ++k) r = dbl(to_p2(r));
  h = to_ge(r);
  for (int i = 0; i < 64; i += 2) h = to_ge(madd(h, comb_select(i / 2, e[i])));
  return h;
}

// ---------------------------------------------------------------------------
// Variable-time multi-scalar multiplication (public inputs)
// ---------------------------------------------------------------------------

void wnaf(std::int8_t naf[256], const std::uint8_t s[32], int w) {
  u64 words[5] = {};
  for (int i = 0; i < 32; ++i) words[i / 8] |= static_cast<u64>(s[i]) << (8 * (i % 8));
  std::memset(naf, 0, 256);
  const u64 width = u64{1} << w;
  const u64 window_mask = width - 1;
  u64 carry = 0;
  int pos = 0;
  while (pos < 256) {
    const int word = pos / 64;
    const int bit = pos % 64;
    u64 bits = words[word] >> bit;
    if (bit > 64 - w) bits |= words[word + 1] << (64 - bit);
    const u64 window = carry + (bits & window_mask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<std::int8_t>(static_cast<int>(window) - static_cast<int>(width));
    }
    pos += w;
  }
}

Ge ge_multiscalar_vartime(const std::uint8_t b[32], std::span<const MsmTerm> terms) {
  std::int8_t b_naf[256];
  wnaf(b_naf, b, kBaseWindow);
  int top = top_digit(b_naf);
  std::vector<PreparedTerm> prepared(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    prepare(prepared[i], terms[i]);
    top = std::max(top, top_digit(prepared[i].naf));
  }
  if (top < 0) return ge_identity();

  const auto& base_odd = base_odd_multiples();
  P2 r{fe25519::kZero, fe25519::kOne, fe25519::kOne};
  P1P1 t{};
  for (int i = top; i >= 0; --i) {
    t = dbl(r);
    if (const int digit = b_naf[i]; digit != 0) {
      t = madd(to_ge(t), base_odd[static_cast<std::size_t>((digit < 0 ? -digit : digit) / 2)],
               digit < 0);
    }
    for (const PreparedTerm& term : prepared) {
      if (const int digit = term.naf[i]; digit != 0) {
        t = add(to_ge(t), term.odd[(digit < 0 ? -digit : digit) / 2], digit < 0);
      }
    }
    r = to_p2(t);
  }
  return to_ge(t);
}

// ---------------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------------

void reduce_hash_to_scalar(std::uint8_t out[32], BytesView hash64) {
  if (hash64.size() != 64) throw std::invalid_argument("reduce_hash_to_scalar: need 64 bytes");
  reduce_wide(out, load_wide(hash64));
}

void scalar_mul(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]) {
  reduce_wide(out, mul_wide(a, b));
}

void scalar_add(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]) {
  Wide sum = load_wide(BytesView(a, 32));
  add_into(sum, b);
  reduce_wide(out, sum);
}

void scalar_muladd(std::uint8_t out[32], const std::uint8_t k[32], const std::uint8_t a[32],
                   const std::uint8_t r[32]) {
  Wide sum = mul_wide(k, a);
  add_into(sum, r);
  reduce_wide(out, sum);
}

bool scalar_is_canonical(const std::uint8_t s[32]) {
  const Wide x = load_wide(BytesView(s, 32));
  u64 diff[4];
  return sub_words(diff, x.data(), kL, 4) != 0;  // borrow iff s < L
}

ExpandedKey expand_seed(BytesView seed) {
  if (seed.size() != kEd25519SeedSize) {
    throw std::invalid_argument("ed25519: seed must be 32 bytes");
  }
  const auto h = [&] {
    Sha512 hash;
    hash.update(seed);
    return hash.finish();
  }();
  ExpandedKey key;
  std::memcpy(key.scalar, h.data(), 32);
  std::memcpy(key.prefix, h.data() + 32, 32);
  key.scalar[0] &= 248;
  key.scalar[31] &= 127;
  key.scalar[31] |= 64;
  return key;
}

}  // namespace securestore::crypto::ed25519_internal
