// Unit tests for the util substrate: bytes/hex, RNG determinism,
// serialization roundtrips and malformed-input rejection, ids, results.
#include <gtest/gtest.h>

#include <unordered_set>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/ids.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/time.h"

namespace securestore {
namespace {

TEST(Bytes, HexRoundtrip) {
  const Bytes data = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(data), "0001deadbeefff");
  EXPECT_EQ(from_hex("0001deadbeefff"), data);
  EXPECT_EQ(from_hex("0001DEADBEEFFF"), data);
}

TEST(Bytes, FromHexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Crc32, KnownAnswers) {
  // IEEE 802.3 reflected polynomial — the zlib/PNG checksum.
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(Bytes{}), 0x00000000u);
  EXPECT_EQ(crc32(to_bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, SeedChainingMatchesConcatenation) {
  const Bytes a = to_bytes("write-ahead ");
  const Bytes b = to_bytes("log frame");
  Bytes joined = a;
  joined.insert(joined.end(), b.begin(), b.end());
  EXPECT_EQ(crc32(b, crc32(a)), crc32(joined));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes frame = to_bytes("frame body with a payload");
  const std::uint32_t good = crc32(frame);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] ^= 0x01;
    EXPECT_NE(crc32(frame), good) << "flip at byte " << i;
    frame[i] ^= 0x01;
  }
}

/// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
/// table-driven implementation must match byte for byte.
std::uint32_t reference_crc32(BytesView data, std::uint32_t seed) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBytewiseReferenceAcrossLengthsAlignmentsAndSeeds) {
  EXPECT_EQ(reference_crc32(to_bytes("123456789"), 0), 0xCBF43926u);
  Rng rng(0xC0C32);
  Bytes buffer(600);
  rng.fill(buffer);
  for (int trial = 0; trial < 400; ++trial) {
    // Random length (0..520, so short tails and many 8-byte strides both
    // occur), random start offset (every alignment), random chained seed.
    const std::size_t length = static_cast<std::size_t>(rng.next_below(521));
    const std::size_t offset = static_cast<std::size_t>(rng.next_below(buffer.size() - length + 1));
    const BytesView slice(buffer.data() + offset, length);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    ASSERT_EQ(crc32(slice, seed), reference_crc32(slice, seed))
        << "length " << length << " offset " << offset << " seed " << seed;
    // Chaining at a random split point agrees with the one-shot checksum.
    const std::size_t split = static_cast<std::size_t>(rng.next_below(length + 1));
    ASSERT_EQ(crc32(slice.subspan(split), crc32(slice.subspan(0, split), seed)),
              reference_crc32(slice, seed));
  }
}

TEST(Bytes, TextRoundtrip) {
  EXPECT_EQ(to_string(to_bytes("hello")), "hello");
  EXPECT_TRUE(to_bytes("").empty());
}

TEST(Bytes, Concat) {
  const Bytes a = {1, 2};
  const Bytes b = {};
  const Bytes c = {3};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3}));
  EXPECT_EQ(concat({}), Bytes{});
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(constant_time_equal(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(constant_time_equal(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(constant_time_equal(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(constant_time_equal(Bytes{}, Bytes{}));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_in_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(12);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_exponential(10.0);
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 10.0, 0.5);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, FillCoversAllLengths) {
  Rng rng(14);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 16u, 33u}) {
    const Bytes b = rng.bytes(n);
    EXPECT_EQ(b.size(), n);
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng a(15);
  Rng fork1 = a.fork();
  // Draw from parent; the fork must be unaffected compared to a replay.
  Rng b(15);
  Rng fork2 = b.fork();
  (void)a.next_u64();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fork1.next_u64(), fork2.next_u64());
}

TEST(Serial, PrimitiveRoundtrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.str("context");
  w.bytes(Bytes{9, 8, 7});

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.str(), "context");
  EXPECT_EQ(r.bytes(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Serial, TruncatedInputThrows) {
  Writer w;
  w.u64(7);
  const Bytes& full = w.data();
  Reader r(BytesView(full.data(), 4));
  EXPECT_THROW(r.u64(), DecodeError);
}

TEST(Serial, TruncatedLengthPrefixedThrows) {
  Writer w;
  w.bytes(Bytes(100, 1));
  Bytes truncated = w.take();
  truncated.resize(50);
  Reader r(truncated);
  EXPECT_THROW(r.bytes(), DecodeError);
}

TEST(Serial, TrailingGarbageDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  (void)r.u8();
  EXPECT_THROW(r.expect_end(), DecodeError);
}

TEST(Serial, CanonicalEncoding) {
  // Two writers producing the same logical content yield identical bytes —
  // the property signatures rely on.
  Writer w1, w2;
  w1.u32(5);
  w1.str("x");
  w2.u32(5);
  w2.str("x");
  EXPECT_EQ(w1.data(), w2.data());
}

TEST(Ids, DistinctTypesHashAndCompare) {
  std::unordered_set<ItemId> items{ItemId{1}, ItemId{2}, ItemId{1}};
  EXPECT_EQ(items.size(), 2u);
  EXPECT_LT(NodeId{1}, NodeId{2});
  EXPECT_EQ(to_string(ClientId{3}), "C3");
  EXPECT_EQ(to_string(ItemId{4}), "x4");
  EXPECT_EQ(to_string(NodeId{5}), "S5");
  EXPECT_EQ(to_string(GroupId{6}), "G6");
}

TEST(Result, ValueAndError) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(0), 42);

  Result<int> bad(Error::kStale, "older than context");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Error::kStale);
  EXPECT_EQ(bad.detail(), "older than context");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Result, VoidResult) {
  VoidResult ok;
  EXPECT_TRUE(ok.ok());
  VoidResult fail(Error::kTimeout);
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.error(), Error::kTimeout);
}

TEST(Result, ErrorNames) {
  EXPECT_STREQ(error_name(Error::kNone), "ok");
  EXPECT_STREQ(error_name(Error::kBadSignature), "bad-signature");
  EXPECT_STREQ(error_name(Error::kNoAgreement), "no-agreement");
}

TEST(Time, Conversions) {
  EXPECT_EQ(milliseconds(5), 5000u);
  EXPECT_EQ(seconds(2), 2000000u);
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(2500)), 2.5);
}

}  // namespace
}  // namespace securestore
