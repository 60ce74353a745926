#include "crypto/sha2.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "crypto/sha2_internal.h"

namespace securestore::crypto {

namespace {

constexpr std::uint32_t kK256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint64_t kK512[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL,
    0xe9b5dba58189dbbcULL, 0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL,
    0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL, 0xd807aa98a3030242ULL,
    0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL,
    0xc19bf174cf692694ULL, 0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL,
    0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL, 0x2de92c6f592b0275ULL,
    0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL,
    0xbf597fc7beef0ee4ULL, 0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL,
    0x06ca6351e003826fULL, 0x142929670a0e6e70ULL, 0x27b70a8546d22ffcULL,
    0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL,
    0x92722c851482353bULL, 0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL,
    0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL, 0xd192e819d6ef5218ULL,
    0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL,
    0x34b0bcb5e19b48a8ULL, 0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL,
    0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL, 0x748f82ee5defb2fcULL,
    0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL,
    0xc67178f2e372532bULL, 0xca273eceea26619cULL, 0xd186b8c721c0c207ULL,
    0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL, 0x06f067aa72176fbaULL,
    0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL,
    0x431d67c49c100d4cULL, 0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL,
    0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

std::uint32_t rotr32(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
std::uint64_t rotr64(std::uint64_t x, int n) { return (x >> n) | (x << (64 - n)); }

std::uint32_t load32_be(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 | static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

std::uint64_t load64_be(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void store32_be(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

void store64_be(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

/// Portable SHA-256 compression (FIPS 180-4 §6.2.2).
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load32_be(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK256[i] + w[i];
      const std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)
/// SHA-256 compression on the SHA-NI instructions. The state lives in two
/// registers as (A,B,E,F) and (C,D,G,H); each sha256rnds2 runs two rounds,
/// and sha256msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void sha256_blocks_sha_ni(std::uint32_t* state,
                                                                const std::uint8_t* blocks,
                                                                std::size_t count) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g % 4] holds message words 4g..4g+3 while rounds 4g..4g+3 run.
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), byte_swap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i current = msg[g % 4];
      __m128i wk = _mm_add_epi32(
          current, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK256 + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        // Words 4(g+1).. = msg2(msg1(W[4g-12..]) + W[4g-3..4g], W[4g..]).
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(current, msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, current);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        __m128i& previous = msg[(g + 3) % 4];
        previous = _mm_sha256msg1_epu32(previous, current);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#endif

/// The compression function plain Sha256 uses: SHA-NI when the CPU has it
/// (checked once, on first use), the portable code otherwise.
auto default_blocks() {
  static const auto blocks = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
      return &sha256_blocks_sha_ni;
    }
#endif
    return &sha256_blocks_portable;
  }();
  return blocks;
}

}  // namespace

Sha256::Sha256() : Sha256(default_blocks()) {}

Sha256::Sha256(BlockFn process_blocks)
    : process_blocks_(process_blocks),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(BytesView data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), kBlockSize - buffered_);
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
              buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_));
    buffered_ += take;
    offset = take;
    if (buffered_ == kBlockSize) {
      process_blocks_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / kBlockSize;
  if (whole > 0) {
    process_blocks_(state_.data(), data.data() + offset, whole);
    offset += whole * kBlockSize;
  }
  if (offset < data.size()) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(offset), data.end(), buffer_.begin());
    buffered_ = data.size() - offset;
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finish() {
  // Padding: 0x80, zeros up to 56 mod 64, then the bit length (big-endian).
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_), buffer_.end(), 0);
    process_blocks_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_), buffer_.begin() + 56, 0);
  store64_be(buffer_.data() + 56, total_bytes_ * 8);
  process_blocks_(state_.data(), buffer_.data(), 1);
  std::array<std::uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) store32_be(digest.data() + 4 * i, state_[i]);
  return digest;
}

namespace sha2_internal {

Sha256 portable_sha256() { return Sha256(&sha256_blocks_portable); }

bool sha256_uses_sha_ni() { return default_blocks() != &sha256_blocks_portable; }

}  // namespace sha2_internal

Sha512::Sha512()
    : state_{0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
             0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
             0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL} {}

void Sha512::process_block(const std::uint8_t* block) {
  std::uint64_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = load64_be(block + 8 * i);
  for (int i = 16; i < 80; ++i) {
    const std::uint64_t s0 = rotr64(w[i - 15], 1) ^ rotr64(w[i - 15], 8) ^ (w[i - 15] >> 7);
    const std::uint64_t s1 = rotr64(w[i - 2], 19) ^ rotr64(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint64_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint64_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 80; ++i) {
    const std::uint64_t s1 = rotr64(e, 14) ^ rotr64(e, 18) ^ rotr64(e, 41);
    const std::uint64_t ch = (e & f) ^ (~e & g);
    const std::uint64_t t1 = h + s1 + ch + kK512[i] + w[i];
    const std::uint64_t s0 = rotr64(a, 28) ^ rotr64(a, 34) ^ rotr64(a, 39);
    const std::uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint64_t t2 = s0 + maj;
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  state_[0] += a; state_[1] += b; state_[2] += c; state_[3] += d;
  state_[4] += e; state_[5] += f; state_[6] += g; state_[7] += h;
}

void Sha512::update(BytesView data) {
  const std::uint64_t n = data.size();
  total_low_ += n;
  if (total_low_ < n) ++total_high_;  // carry into the high word
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), kBlockSize - buffered_);
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
              buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_));
    buffered_ += take;
    offset = take;
    if (buffered_ == kBlockSize) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    process_block(data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(offset), data.end(), buffer_.begin());
    buffered_ = data.size() - offset;
  }
}

std::array<std::uint8_t, Sha512::kDigestSize> Sha512::finish() {
  // Message length in bits as a 128-bit big-endian quantity.
  const std::uint64_t bits_high = (total_high_ << 3) | (total_low_ >> 61);
  const std::uint64_t bits_low = total_low_ << 3;
  // Padding: 0x80, zeros up to 112 mod 128, then the length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 112) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_), buffer_.end(), 0);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_), buffer_.begin() + 112, 0);
  store64_be(buffer_.data() + 112, bits_high);
  store64_be(buffer_.data() + 120, bits_low);
  process_block(buffer_.data());
  std::array<std::uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) store64_be(digest.data() + 8 * i, state_[i]);
  return digest;
}

Bytes sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  const auto digest = h.finish();
  return Bytes(digest.begin(), digest.end());
}

Bytes sha512(BytesView data) {
  Sha512 h;
  h.update(data);
  const auto digest = h.finish();
  return Bytes(digest.begin(), digest.end());
}

}  // namespace securestore::crypto
