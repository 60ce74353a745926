// Validates the from-scratch crypto substrate against published test
// vectors (FIPS 180-4 / RFC 4231 / RFC 8439 / RFC 8032) and with
// property-style roundtrip sweeps.
#include <gtest/gtest.h>

#include "crypto/chacha20.h"
#include "crypto/ed25519.h"
#include "crypto/ed25519_batch.h"
#include "crypto/ed25519_internal.h"
#include "crypto/fe25519.h"
#include "crypto/gf256.h"
#include "crypto/hmac.h"
#include "crypto/ida.h"
#include "crypto/keys.h"
#include "crypto/multisig.h"
#include "crypto/sha2.h"
#include "crypto/sha2_internal.h"
#include "crypto/x25519.h"
#include "crypto/shamir.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace securestore::crypto {
namespace {

// ---------------------------------------------------------------------------
// SHA-2
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(to_hex(sha256(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finish();
  EXPECT_EQ(to_hex(BytesView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(7);
  for (std::size_t total : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    const Bytes data = rng.bytes(total);
    Sha256 h;
    std::size_t offset = 0;
    std::size_t step = 1;
    while (offset < data.size()) {
      const std::size_t take = std::min(step, data.size() - offset);
      h.update(BytesView(data.data() + offset, take));
      offset += take;
      step = step * 2 + 1;
    }
    const auto digest = h.finish();
    EXPECT_EQ(Bytes(digest.begin(), digest.end()), sha256(data)) << "size=" << total;
  }
}

TEST(Sha256, HardwareAndPortablePathsAgree) {
  // Plain Sha256 runs on SHA-NI where the CPU has it; the portable path is
  // reachable only through the internal hook.
  RecordProperty("sha_ni", sha2_internal::sha256_uses_sha_ni() ? "yes" : "no");
  Rng rng(8);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes data = rng.bytes(rng.next_below(1025));
    Sha256 fast;
    Sha256 portable = sha2_internal::portable_sha256();
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t take = std::min<std::size_t>(rng.next_below(200), data.size() - offset);
      const BytesView piece(data.data() + offset, take);
      fast.update(piece);
      portable.update(piece);
      offset += take;
    }
    const auto fast_digest = fast.finish();
    const auto portable_digest = portable.finish();
    EXPECT_EQ(fast_digest, portable_digest) << "length " << data.size();
    EXPECT_EQ(Bytes(portable_digest.begin(), portable_digest.end()), sha256(data));
  }
}

TEST(Sha512, EmptyMessage) {
  EXPECT_EQ(to_hex(sha512(to_bytes(""))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(to_hex(sha512(to_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha512(to_bytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

// ---------------------------------------------------------------------------
// HMAC / HKDF (RFC 4231, RFC 5869)
// ---------------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  EXPECT_EQ(to_hex(hkdf_sha256(ikm, salt, info, 42)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ZeroSaltCase3) {
  const Bytes ikm(22, 0x0b);
  EXPECT_EQ(to_hex(hkdf_sha256(ikm, {}, {}, 42)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// ---------------------------------------------------------------------------
// ChaCha20 / Poly1305 / AEAD (RFC 8439)
// ---------------------------------------------------------------------------

TEST(ChaCha20, Rfc8439Encryption) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = from_hex("000000000000004a00000000");
  const Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  const Bytes ciphertext = chacha20_xor(key, nonce, 1, plaintext);
  EXPECT_EQ(to_hex(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
  // XOR is an involution.
  EXPECT_EQ(chacha20_xor(key, nonce, 1, ciphertext), plaintext);
}

TEST(Poly1305, Rfc8439Tag) {
  const Bytes key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const auto tag = poly1305(key, to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(to_hex(BytesView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Aead, Rfc8439SealVector) {
  const Bytes key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = from_hex("070000004041424344454647");
  const Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  const Bytes sealed = aead_seal(key, nonce, aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + kPolyTagSize);
  EXPECT_EQ(to_hex(BytesView(sealed.data() + plaintext.size(), kPolyTagSize)),
            "1ae10b594f09e26a7e902ecbd0600691");

  const auto opened = aead_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aead, TamperedCiphertextRejected) {
  Rng rng(11);
  const Bytes key = rng.bytes(kChaChaKeySize);
  const Bytes nonce = rng.bytes(kChaChaNonceSize);
  const Bytes plaintext = rng.bytes(100);
  Bytes sealed = aead_seal(key, nonce, {}, plaintext);
  sealed[5] ^= 0x01;
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, WrongAadRejected) {
  Rng rng(12);
  const Bytes key = rng.bytes(kChaChaKeySize);
  const Bytes nonce = rng.bytes(kChaChaNonceSize);
  const Bytes sealed = aead_seal(key, nonce, to_bytes("context-a"), to_bytes("secret"));
  EXPECT_FALSE(aead_open(key, nonce, to_bytes("context-b"), sealed).has_value());
  EXPECT_TRUE(aead_open(key, nonce, to_bytes("context-a"), sealed).has_value());
}

// ---------------------------------------------------------------------------
// Ed25519 (RFC 8032 §7.1)
// ---------------------------------------------------------------------------

struct Ed25519Vector {
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

const Ed25519Vector kRfc8032Vectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

class Ed25519Rfc : public ::testing::TestWithParam<Ed25519Vector> {};

TEST_P(Ed25519Rfc, PublicKeyDerivation) {
  const auto& v = GetParam();
  EXPECT_EQ(to_hex(ed25519_public_key(from_hex(v.seed))), v.public_key);
}

TEST_P(Ed25519Rfc, Signature) {
  const auto& v = GetParam();
  EXPECT_EQ(to_hex(ed25519_sign(KeyPair::from_seed(from_hex(v.seed)), from_hex(v.message))),
            v.signature);
}

TEST_P(Ed25519Rfc, Verifies) {
  const auto& v = GetParam();
  EXPECT_TRUE(ed25519_verify(from_hex(v.public_key), from_hex(v.message),
                             from_hex(v.signature)));
}

INSTANTIATE_TEST_SUITE_P(Rfc8032, Ed25519Rfc, ::testing::ValuesIn(kRfc8032Vectors));

TEST(Ed25519, SignVerifyRoundtripRandomKeys) {
  Rng rng(42);
  for (int i = 0; i < 8; ++i) {
    const KeyPair pair = KeyPair::generate(rng);
    const Bytes message = rng.bytes(rng.next_below(200));
    const Bytes signature = ed25519_sign(pair, message);
    EXPECT_TRUE(ed25519_verify(pair.public_key, message, signature));
  }
}

TEST(Ed25519, FlippedMessageBitRejected) {
  Rng rng(43);
  const KeyPair pair = KeyPair::generate(rng);
  Bytes message = to_bytes("the medical record of resident 7");
  const Bytes signature = ed25519_sign(pair, message);
  message[3] ^= 0x20;
  EXPECT_FALSE(ed25519_verify(pair.public_key, message, signature));
}

TEST(Ed25519, FlippedSignatureBitRejected) {
  Rng rng(44);
  const KeyPair pair = KeyPair::generate(rng);
  const Bytes message = to_bytes("hello");
  Bytes signature = ed25519_sign(pair, message);
  for (std::size_t position : {0u, 31u, 32u, 63u}) {
    Bytes tampered = signature;
    tampered[position] ^= 0x01;
    EXPECT_FALSE(ed25519_verify(pair.public_key, message, tampered))
        << "flipped byte " << position;
  }
}

TEST(Ed25519, WrongKeyRejected) {
  Rng rng(45);
  const KeyPair alice = KeyPair::generate(rng);
  const KeyPair bob = KeyPair::generate(rng);
  const Bytes message = to_bytes("signed by alice");
  const Bytes signature = ed25519_sign(alice, message);
  EXPECT_FALSE(ed25519_verify(bob.public_key, message, signature));
}

TEST(Ed25519, MalformedInputsRejected) {
  Rng rng(46);
  const KeyPair pair = KeyPair::generate(rng);
  const Bytes message = to_bytes("m");
  const Bytes signature = ed25519_sign(pair, message);
  EXPECT_FALSE(ed25519_verify(pair.public_key, message, Bytes(63, 0)));
  EXPECT_FALSE(ed25519_verify(Bytes(31, 0), message, signature));
  // All-0xff "public key" is not a canonical curve point.
  EXPECT_FALSE(ed25519_verify(Bytes(32, 0xff), message, signature));
  // Non-canonical S scalar (>= L) must be rejected even if otherwise valid.
  Bytes high_s = signature;
  for (std::size_t i = 32; i < 64; ++i) high_s[i] = 0xff;
  EXPECT_FALSE(ed25519_verify(pair.public_key, message, high_s));
}

// ---------------------------------------------------------------------------
// Ed25519 batch verification
// ---------------------------------------------------------------------------

struct SignedBatch {
  std::vector<KeyPair> pairs;
  std::vector<Bytes> messages;
  std::vector<Bytes> signatures;

  std::vector<BatchVerifyItem> items() const {
    std::vector<BatchVerifyItem> out;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      out.push_back({pairs[i].public_key, messages[i], signatures[i]});
    }
    return out;
  }
};

SignedBatch make_signed_batch(Rng& rng, std::size_t count) {
  SignedBatch batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.pairs.push_back(KeyPair::generate(rng));
    batch.messages.push_back(rng.bytes(1 + rng.next_below(120)));
    batch.signatures.push_back(ed25519_sign(batch.pairs.back(), batch.messages.back()));
  }
  return batch;
}

TEST(Ed25519Batch, AllValidBatchAccepts) {
  Rng rng(500);
  for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    const SignedBatch batch = make_signed_batch(rng, count);
    const BatchVerifyResult result = ed25519_batch_verify(batch.items());
    EXPECT_TRUE(result.all_valid);
    EXPECT_FALSE(result.used_fallback);
    for (const bool ok : result.valid) EXPECT_TRUE(ok);
  }
}

TEST(Ed25519Batch, EmptyBatchTriviallyValid) {
  const BatchVerifyResult result = ed25519_batch_verify({});
  EXPECT_TRUE(result.all_valid);
  EXPECT_TRUE(result.valid.empty());
}

TEST(Ed25519Batch, SingleBadSignatureIsolated) {
  Rng rng(501);
  SignedBatch batch = make_signed_batch(rng, 8);
  batch.signatures[3][10] ^= 0x40;  // corrupt R of one signature
  const BatchVerifyResult result = ed25519_batch_verify(batch.items());
  EXPECT_FALSE(result.all_valid);
  EXPECT_TRUE(result.used_fallback);
  for (std::size_t i = 0; i < result.valid.size(); ++i) {
    EXPECT_EQ(result.valid[i], i != 3) << "item " << i;
  }
}

TEST(Ed25519Batch, WrongMessageIsolated) {
  Rng rng(502);
  SignedBatch batch = make_signed_batch(rng, 6);
  batch.messages[0][0] ^= 1;
  batch.messages[5][0] ^= 1;
  const BatchVerifyResult result = ed25519_batch_verify(batch.items());
  EXPECT_FALSE(result.all_valid);
  for (std::size_t i = 0; i < result.valid.size(); ++i) {
    EXPECT_EQ(result.valid[i], i != 0 && i != 5) << "item " << i;
  }
}

TEST(Ed25519Batch, MalformedItemsRejectedWithoutPoisoningBatch) {
  Rng rng(503);
  SignedBatch batch = make_signed_batch(rng, 4);
  // Structurally bad items: truncated signature, non-point public key,
  // non-canonical S. None of them may affect the healthy items' verdicts.
  batch.signatures[0] = Bytes(63, 0);
  batch.pairs[1].public_key = Bytes(32, 0xff);
  for (std::size_t i = 32; i < 64; ++i) batch.signatures[2][i] = 0xff;
  const BatchVerifyResult result = ed25519_batch_verify(batch.items());
  EXPECT_FALSE(result.all_valid);
  EXPECT_FALSE(result.valid[0]);
  EXPECT_FALSE(result.valid[1]);
  EXPECT_FALSE(result.valid[2]);
  EXPECT_TRUE(result.valid[3]);
  // Structural rejects never enter the combined equation, so a clean
  // remainder needs no per-message fallback pass.
  EXPECT_FALSE(result.used_fallback);
}

TEST(Ed25519Batch, AgreesWithSingleVerifyOnRandomTampering) {
  Rng rng(504);
  for (int trial = 0; trial < 6; ++trial) {
    SignedBatch batch = make_signed_batch(rng, 5);
    // Tamper a random subset in random ways.
    std::vector<bool> expected(5);
    for (std::size_t i = 0; i < 5; ++i) {
      if (rng.next_below(2) == 0) {
        const std::size_t which = rng.next_below(3);
        if (which == 0) batch.messages[i].push_back(0x01);
        if (which == 1) batch.signatures[i][rng.next_below(64)] ^= 0x80;
        if (which == 2) batch.pairs[i].public_key[5] ^= 0x02;
      }
      expected[i] =
          ed25519_verify(batch.pairs[i].public_key, batch.messages[i], batch.signatures[i]);
    }
    const BatchVerifyResult result = ed25519_batch_verify(batch.items());
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(result.valid[i], expected[i]) << "trial " << trial << " item " << i;
    }
  }
}

TEST(Ed25519Batch, DeterministicAcrossCalls) {
  Rng rng(505);
  SignedBatch batch = make_signed_batch(rng, 7);
  batch.signatures[2][40] ^= 0x10;
  const BatchVerifyResult first = ed25519_batch_verify(batch.items());
  const BatchVerifyResult second = ed25519_batch_verify(batch.items());
  EXPECT_EQ(first.valid, second.valid);
  EXPECT_EQ(first.used_fallback, second.used_fallback);
}

TEST(Ed25519Batch, MetersOneVerifyPerItem) {
  Rng rng(506);
  const SignedBatch batch = make_signed_batch(rng, 9);
  auto& meter = CryptoMeter::instance();
  const std::uint64_t before = meter.verifies;
  ed25519_batch_verify(batch.items());
  EXPECT_EQ(meter.verifies - before, 9u);
}

// ---------------------------------------------------------------------------
// Ed25519 internals: the fixed-base and w-NAF scalar multiplications, the
// scalar arithmetic mod L, and batch/single agreement on hostile encodings
// ---------------------------------------------------------------------------

namespace ed = ed25519_internal;

using Scalar = std::array<std::uint8_t, 32>;

// L = 2^252 + 27742317777372353535851937790883648493, little-endian.
constexpr Scalar kOrderL = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
                            0xa2, 0xde, 0xf9, 0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};

/// Plain MSB-first double-and-add over all 256 bits: the reference the
/// fast routines are checked against.
ed::Ge reference_mul(const ed::Ge& p, const std::uint8_t scalar[32]) {
  ed::Ge r = ed::ge_identity();
  for (int i = 255; i >= 0; --i) {
    r = ed::ge_double(r);
    if ((scalar[i / 8] >> (i % 8)) & 1) r = ed::ge_add(r, p);
  }
  return r;
}

Bytes encode(const ed::Ge& p) {
  Bytes out(32);
  ed::ge_compress(out.data(), p);
  return out;
}

Scalar random_scalar(Rng& rng) {
  const Bytes wide = rng.bytes(64);
  Scalar s;
  ed::reduce_hash_to_scalar(s.data(), wide);
  return s;
}

TEST(Ed25519Internal, FixedBaseMatchesDoubleAndAdd) {
  Scalar zero{};
  Scalar one{};
  one[0] = 1;
  Scalar l_minus_1 = kOrderL;
  l_minus_1[0] -= 1;
  Scalar clamped_max;
  clamped_max.fill(0xff);
  clamped_max[0] &= 248;
  clamped_max[31] &= 127;
  clamped_max[31] |= 64;
  std::vector<Scalar> scalars = {zero, one, l_minus_1, clamped_max, kOrderL};
  Rng rng(700);
  for (int i = 0; i < 24; ++i) scalars.push_back(random_scalar(rng));
  for (int i = 0; i < 8; ++i) {
    const Bytes raw = rng.bytes(32);
    Scalar s;
    std::copy(raw.begin(), raw.end(), s.begin());
    s[31] &= 0x7f;  // the documented input bound: any value below 2^255
    scalars.push_back(s);
  }
  for (const Scalar& s : scalars) {
    EXPECT_EQ(encode(ed::ge_scalarmult_base(s.data())),
              encode(reference_mul(ed::ge_base(), s.data())))
        << "scalar " << to_hex(BytesView(s.data(), s.size()));
  }
  EXPECT_TRUE(ed::ge_is_identity(ed::ge_scalarmult_base(zero.data())));
  EXPECT_TRUE(ed::ge_is_identity(ed::ge_scalarmult_base(kOrderL.data())));
  EXPECT_EQ(encode(ed::ge_scalarmult_base(l_minus_1.data())), encode(ed::ge_neg(ed::ge_base())));
}

/// A 320-bit little-endian integer, for test-local scalar arithmetic.
using Limbs = std::array<std::uint64_t, 5>;

/// acc += magnitude * 2^shift.
void add_shifted(Limbs& acc, std::uint64_t magnitude, std::size_t shift) {
  unsigned __int128 carry = static_cast<unsigned __int128>(magnitude) << (shift % 64);
  for (std::size_t i = shift / 64; i < acc.size() && carry != 0; ++i) {
    carry += acc[i];
    acc[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
}

Limbs to_limbs(const Scalar& s) {
  Limbs out{};
  for (std::size_t byte = 0; byte < s.size(); ++byte) add_shifted(out, s[byte], 8 * byte);
  return out;
}

TEST(Ed25519Internal, WnafDigitsAreOddBoundedSparseAndRebuildTheScalar) {
  Rng rng(701);
  std::vector<Scalar> scalars = {Scalar{}, kOrderL};
  for (int i = 0; i < 40; ++i) scalars.push_back(random_scalar(rng));
  Scalar top{};
  top.fill(0xff);
  top[31] = 0x7f;  // 2^255 - 1, the largest admissible scalar
  scalars.push_back(top);
  for (const Scalar& s : scalars) {
    for (const int w : {2, 5, 8}) {
      std::int8_t naf[256];
      ed::wnaf(naf, s.data(), w);
      Limbs positive{};
      Limbs negative{};
      int last_nonzero = -w;
      for (int i = 0; i < 256; ++i) {
        const int digit = naf[i];
        if (digit == 0) continue;
        EXPECT_EQ(digit & 1, 1) << "even digit at " << i << " w=" << w;
        EXPECT_LT(std::abs(digit), 1 << (w - 1)) << "digit out of bounds at " << i;
        EXPECT_GE(i - last_nonzero, w) << "two nonzero digits within a window at " << i;
        last_nonzero = i;
        add_shifted(digit > 0 ? positive : negative, static_cast<std::uint64_t>(std::abs(digit)),
                    static_cast<std::size_t>(i));
      }
      // positive - negative == s, i.e. positive == s + negative.
      Limbs expected = to_limbs(s);
      for (std::size_t i = 0; i < negative.size(); ++i) add_shifted(expected, negative[i], 64 * i);
      EXPECT_EQ(positive, expected) << "w=" << w << " scalar "
                                    << to_hex(BytesView(s.data(), s.size()));
    }
  }
}

TEST(Ed25519Internal, MultiScalarMatchesDoubleAndAdd) {
  Rng rng(702);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    const Scalar b = random_scalar(rng);
    std::vector<Scalar> scalars;
    std::vector<ed::MsmTerm> terms;
    ed::Ge expected = reference_mul(ed::ge_base(), b.data());
    scalars.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      scalars.push_back(random_scalar(rng));
      const Scalar point_scalar = random_scalar(rng);
      const ed::Ge point = ed::ge_scalarmult_base(point_scalar.data());
      terms.push_back(ed::MsmTerm{scalars.back().data(), point});
      expected = ed::ge_add(expected, reference_mul(point, scalars.back().data()));
    }
    EXPECT_EQ(encode(ed::ge_multiscalar_vartime(b.data(), terms)), encode(expected)) << "n=" << n;
  }
}

/// Reference x mod L by binary long division over a little-endian byte string.
Scalar reference_mod_l(const Bytes& x) {
  // Horner's rule, one bit at a time: r = 2r + bit, r < L throughout.
  const Limbs l = to_limbs(kOrderL);
  Limbs r{};
  for (std::size_t bit = x.size() * 8; bit-- > 0;) {
    for (std::size_t i = r.size() - 1; i > 0; --i) r[i] = (r[i] << 1) | (r[i - 1] >> 63);
    r[0] = (r[0] << 1) | ((x[bit / 8] >> (bit % 8)) & 1);
    // std::array compares lexicographically from index 0, the low limb, so
    // compare reversed copies.
    if (!std::lexicographical_compare(r.rbegin(), r.rend(), l.rbegin(), l.rend())) {
      std::uint64_t borrow = 0;
      for (std::size_t i = 0; i < r.size(); ++i) {
        const unsigned __int128 d = static_cast<unsigned __int128>(r[i]) - l[i] - borrow;
        r[i] = static_cast<std::uint64_t>(d);
        borrow = static_cast<std::uint64_t>(d >> 64) & 1;
      }
    }
  }
  Scalar out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

TEST(Ed25519Internal, ScalarReductionMatchesLongDivision) {
  Rng rng(703);
  std::vector<Bytes> inputs = {Bytes(64, 0x00), Bytes(64, 0xff)};
  Bytes l_wide(64, 0);
  std::copy(kOrderL.begin(), kOrderL.end(), l_wide.begin());
  inputs.push_back(l_wide);
  for (int i = 0; i < 64; ++i) inputs.push_back(rng.bytes(64));
  for (const Bytes& x : inputs) {
    Scalar got;
    ed::reduce_hash_to_scalar(got.data(), x);
    EXPECT_EQ(got, reference_mod_l(x)) << to_hex(x);
  }
  for (int i = 0; i < 32; ++i) {
    const Scalar a = random_scalar(rng);
    const Scalar b = random_scalar(rng);
    const Scalar c = random_scalar(rng);
    Scalar product, sum, muladd;
    ed::scalar_mul(product.data(), a.data(), b.data());
    ed::scalar_add(sum.data(), a.data(), b.data());
    ed::scalar_muladd(muladd.data(), a.data(), b.data(), c.data());
    Scalar expected_sum;
    ed::scalar_add(expected_sum.data(), product.data(), c.data());
    EXPECT_EQ(muladd, expected_sum);
    // a + b < 2L, so the sum reduces by at most one L.
    Bytes wide_sum(64, 0);
    unsigned carry = 0;
    for (std::size_t j = 0; j < 32; ++j) {
      carry += static_cast<unsigned>(a[j]) + b[j];
      wide_sum[j] = static_cast<std::uint8_t>(carry);
      carry >>= 8;
    }
    wide_sum[32] = static_cast<std::uint8_t>(carry);
    EXPECT_EQ(sum, reference_mod_l(wide_sum));
  }
  Scalar l_minus_1 = kOrderL;
  l_minus_1[0] -= 1;
  EXPECT_TRUE(ed::scalar_is_canonical(l_minus_1.data()));
  EXPECT_FALSE(ed::scalar_is_canonical(kOrderL.data()));
}

/// The 8 points of the curve's cofactor subgroup, as encodings: the
/// multiples of [L]P for a point P whose torsion component has order 8.
std::vector<Bytes> small_order_encodings() {
  for (int y0 = 2;; ++y0) {
    std::uint8_t y[32] = {};
    y[0] = static_cast<std::uint8_t>(y0);
    ed::Ge p;
    if (!ed::ge_decompress(p, y)) continue;
    const ed::Ge torsion = reference_mul(p, kOrderL.data());
    if (ed::ge_is_identity(ed::ge_double(ed::ge_double(torsion)))) continue;  // order < 8
    std::vector<Bytes> out;
    ed::Ge multiple = ed::ge_identity();
    for (int k = 0; k < 8; ++k) {
      out.push_back(encode(multiple));
      multiple = ed::ge_add(multiple, torsion);
    }
    return out;
  }
}

Scalar challenge(BytesView r, BytesView a, BytesView message) {
  Sha512 h;
  h.update(r);
  h.update(a);
  h.update(message);
  const auto digest = h.finish();
  Scalar k;
  ed::reduce_hash_to_scalar(k.data(), BytesView(digest.data(), digest.size()));
  return k;
}

struct HostileItem {
  Bytes public_key;
  Bytes message;
  Bytes signature;
};

Bytes signature_of(const Bytes& r, const Scalar& s) {
  Bytes out = r;
  out.insert(out.end(), s.begin(), s.end());
  return out;
}

/// Signatures built around small-order A or R, and non-canonical encodings
/// of y (in A and in R) and of S. Some verify, some do not.
std::vector<HostileItem> hostile_items(Rng& rng) {
  std::vector<HostileItem> items;
  const std::vector<Bytes> small = small_order_encodings();
  EXPECT_EQ(small.size(), 8u);
  for (const Bytes& torsion : small) {
    // A small-order: [S]B = R + [k]A holds up to torsion when R = [r]B, S = r.
    const Scalar r = random_scalar(rng);
    const Bytes r_enc = encode(ed::ge_scalarmult_base(r.data()));
    items.push_back({torsion, rng.bytes(12), signature_of(r_enc, r)});
    items.push_back({torsion, rng.bytes(12), signature_of(r_enc, random_scalar(rng))});

    // R small-order under an honest key: S = k*a satisfies the equation up
    // to torsion; a random S does not.
    const KeyPair pair = KeyPair::generate(rng);
    const ed::ExpandedKey key = ed::expand_seed(pair.seed);
    const Bytes message = rng.bytes(12);
    const Scalar k = challenge(torsion, pair.public_key, message);
    Scalar s;
    ed::scalar_mul(s.data(), k.data(), key.scalar);
    items.push_back({pair.public_key, message, signature_of(torsion, s)});
    items.push_back({pair.public_key, message, signature_of(torsion, random_scalar(rng))});
  }

  const KeyPair pair = KeyPair::generate(rng);
  const Bytes message = rng.bytes(20);
  const Bytes honest = ed25519_sign(pair, message);
  // Non-canonical S: S + L encodes the same residue.
  Scalar s_plus_l;
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    carry += static_cast<unsigned>(honest[32 + i]) + kOrderL[i];
    s_plus_l[i] = static_cast<std::uint8_t>(carry);
    carry >>= 8;
  }
  items.push_back({pair.public_key, message,
                   signature_of(Bytes(honest.begin(), honest.begin() + 32), s_plus_l)});

  // Non-canonical y: p + 1 (the identity's y) and p (y = 0), plus the
  // identity with its x sign bit set ("-0").
  Bytes y_p_plus_1(32, 0xff);
  y_p_plus_1[0] = 0xee;
  y_p_plus_1[31] = 0x7f;
  Bytes y_p(32, 0xff);
  y_p[0] = 0xed;
  y_p[31] = 0x7f;
  Bytes minus_zero(32, 0);
  minus_zero[0] = 1;
  minus_zero[31] = 0x80;
  const Scalar r = random_scalar(rng);
  const Bytes r_enc = encode(ed::ge_scalarmult_base(r.data()));
  for (const Bytes& bad : {y_p_plus_1, y_p, minus_zero}) {
    // As A, with a signature that would verify under the identity key.
    items.push_back({bad, message, signature_of(r_enc, r)});
    // As R.
    items.push_back({pair.public_key, message,
                     signature_of(bad, Scalar{})});
  }
  return items;
}

TEST(Ed25519Batch, AgreesWithSingleVerifyOnSmallOrderAndNonCanonicalInputs) {
  Rng rng(704);
  const std::vector<HostileItem> hostile = hostile_items(rng);
  std::vector<bool> single;
  std::size_t accepted = 0;
  for (const HostileItem& item : hostile) {
    single.push_back(ed25519_verify(item.public_key, item.message, item.signature));
    accepted += single.back() ? 1 : 0;
  }
  // The constructed equations hold up to torsion for every small-order A
  // and R (16 items); every random-S and non-canonical item fails.
  EXPECT_EQ(accepted, 16u);

  const SignedBatch honest = make_signed_batch(rng, 3);
  auto check = [&](const std::vector<std::size_t>& picks, const std::string& label) {
    std::vector<BatchVerifyItem> items = honest.items();
    for (const std::size_t i : picks) {
      items.push_back({hostile[i].public_key, hostile[i].message, hostile[i].signature});
    }
    const BatchVerifyResult result = ed25519_batch_verify(items);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_TRUE(result.valid[j]) << label;
    for (std::size_t j = 0; j < picks.size(); ++j) {
      EXPECT_EQ(result.valid[3 + j], single[picks[j]]) << label << " hostile item " << picks[j];
    }
  };
  // Each hostile item alone among honest ones, then all of them at once
  // (where torsion defects could cancel each other), then random subsets.
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    check({i}, "alone");
    all.push_back(i);
  }
  check(all, "all together");
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < hostile.size(); ++i) {
      if (rng.next_below(3) == 0) picks.push_back(i);
    }
    check(picks, "subset " + std::to_string(trial));
  }
}

TEST(Ed25519Batch, BatchOfOneIsTheSingleVerify) {
  // Callers hand every record gate's survivors to the batch verifier, one
  // or many: a batch of one must give ed25519_verify's verdict, meter one
  // verify and never take the fallback pass.
  Rng rng(705);
  std::vector<HostileItem> cases = hostile_items(rng);
  const SignedBatch honest = make_signed_batch(rng, 2);
  cases.push_back({honest.pairs[0].public_key, honest.messages[0], honest.signatures[0]});
  HostileItem tampered{honest.pairs[1].public_key, honest.messages[1], honest.signatures[1]};
  tampered.signature[7] ^= 0x20;
  cases.push_back(tampered);

  auto& meter = CryptoMeter::instance();
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const HostileItem& item = cases[i];
    const bool single = ed25519_verify(item.public_key, item.message, item.signature);
    const std::uint64_t before = meter.verifies;
    const BatchVerifyResult result =
        ed25519_batch_verify({{item.public_key, item.message, item.signature}});
    EXPECT_EQ(meter.verifies - before, 1u) << "case " << i;
    ASSERT_EQ(result.valid.size(), 1u);
    EXPECT_EQ(result.valid[0], single) << "case " << i;
    EXPECT_EQ(result.all_valid, single) << "case " << i;
    EXPECT_FALSE(result.used_fallback) << "case " << i;
    accepted += single ? 1 : 0;
  }
  // 16 small-order items and the honest one verify; the rest do not.
  EXPECT_EQ(accepted, 17u);
}

// ---------------------------------------------------------------------------
// curve25519 field arithmetic (shared by Ed25519 and X25519)
// ---------------------------------------------------------------------------

namespace fe = fe25519;

fe::Fe random_fe(Rng& rng) {
  std::uint8_t bytes[32];
  Bytes random = rng.bytes(32);
  std::copy(random.begin(), random.end(), bytes);
  bytes[31] &= 0x7f;
  return fe::from_bytes(bytes);
}

TEST(Fe25519, FieldAxiomsSampled) {
  Rng rng(600);
  for (int trial = 0; trial < 100; ++trial) {
    const fe::Fe a = random_fe(rng);
    const fe::Fe b = random_fe(rng);
    const fe::Fe c = random_fe(rng);

    EXPECT_TRUE(fe::equal(fe::add(a, b), fe::add(b, a)));
    EXPECT_TRUE(fe::equal(fe::mul(a, b), fe::mul(b, a)));
    EXPECT_TRUE(fe::equal(fe::mul(fe::mul(a, b), c), fe::mul(a, fe::mul(b, c))));
    // Distributivity.
    EXPECT_TRUE(fe::equal(fe::mul(a, fe::add(b, c)),
                          fe::add(fe::mul(a, b), fe::mul(a, c))));
    // Identities.
    EXPECT_TRUE(fe::equal(fe::add(a, fe::kZero), a));
    EXPECT_TRUE(fe::equal(fe::mul(a, fe::kOne), a));
    EXPECT_TRUE(fe::equal(fe::add(a, fe::neg(a)), fe::kZero));
    EXPECT_TRUE(fe::equal(fe::sub(a, b), fe::add(a, fe::neg(b))));
    // Squaring is self-multiplication; small-scalar multiply agrees.
    EXPECT_TRUE(fe::equal(fe::sq(a), fe::mul(a, a)));
    fe::Fe three = fe::add(fe::add(fe::kOne, fe::kOne), fe::kOne);
    EXPECT_TRUE(fe::equal(fe::mul_small(a, 3), fe::mul(a, three)));
  }
}

TEST(Fe25519, InverseAndSqrtExponent) {
  Rng rng(601);
  for (int trial = 0; trial < 25; ++trial) {
    const fe::Fe a = random_fe(rng);
    if (fe::is_zero(a)) continue;
    EXPECT_TRUE(fe::equal(fe::mul(a, fe::invert(a)), fe::kOne));
    // pow22523 obeys a^((p-5)/8 * 8 + 5) = a^(p) = a (Fermat).
    const fe::Fe e = fe::pow22523(a);                 // a^((p-5)/8)
    const fe::Fe e8 = fe::sqn(e, 3);                  // a^(p-5)
    const fe::Fe a5 = fe::mul(fe::mul(fe::sq(fe::sq(a)), a), fe::kOne);  // a^5
    EXPECT_TRUE(fe::equal(fe::mul(e8, a5), a));       // a^(p-5) * a^5 = a^p = a
  }
}

TEST(Fe25519, BytesRoundtripCanonical) {
  Rng rng(602);
  for (int trial = 0; trial < 50; ++trial) {
    const fe::Fe a = random_fe(rng);
    std::uint8_t first[32], second[32];
    fe::to_bytes(first, a);
    fe::to_bytes(second, fe::from_bytes(first));
    EXPECT_EQ(Bytes(first, first + 32), Bytes(second, second + 32));
  }
  // Non-canonical input (p <= x < 2^255) reduces: p encodes as zero.
  std::uint8_t p_bytes[32];
  for (int i = 0; i < 32; ++i) p_bytes[i] = 0xff;
  p_bytes[0] = 0xed;
  p_bytes[31] = 0x7f;
  EXPECT_TRUE(fe::is_zero(fe::from_bytes(p_bytes)));
}

// ---------------------------------------------------------------------------
// X25519 (RFC 7748 §5.2, §6.1)
// ---------------------------------------------------------------------------

TEST(X25519, Rfc7748Vector1) {
  const Bytes scalar =
      from_hex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const Bytes u = from_hex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(to_hex(x25519(scalar, u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  const Bytes scalar =
      from_hex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const Bytes u = from_hex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(to_hex(x25519(scalar, u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  const Bytes alice_private =
      from_hex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const Bytes bob_private =
      from_hex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  const Bytes alice_public = x25519_public_key(alice_private);
  const Bytes bob_public = x25519_public_key(bob_private);
  EXPECT_EQ(to_hex(alice_public),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(bob_public),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  const Bytes alice_shared = x25519_shared_secret(alice_private, bob_public);
  const Bytes bob_shared = x25519_shared_secret(bob_private, alice_public);
  EXPECT_EQ(alice_shared, bob_shared);
  EXPECT_EQ(to_hex(alice_shared),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, RandomPairsAgree) {
  Rng rng(70);
  for (int i = 0; i < 5; ++i) {
    const DhKeyPair a = DhKeyPair::generate(rng);
    const DhKeyPair b = DhKeyPair::generate(rng);
    EXPECT_EQ(x25519_shared_secret(a.private_scalar, b.public_key),
              x25519_shared_secret(b.private_scalar, a.public_key));
  }
}

TEST(X25519, LowOrderPointRejected) {
  Rng rng(71);
  const DhKeyPair pair = DhKeyPair::generate(rng);
  const Bytes zero_point(32, 0);  // order-1 point u=0
  EXPECT_THROW(x25519_shared_secret(pair.private_scalar, zero_point),
               std::invalid_argument);
  EXPECT_THROW(x25519(Bytes(31, 0), zero_point), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GF(256)
// ---------------------------------------------------------------------------

TEST(Gf256, MulMatchesKnownValues) {
  // 0x53 * 0xca = 0x01 in AES's field (classic example).
  EXPECT_EQ(gf256::mul(0x53, 0xca), 0x01);
  EXPECT_EQ(gf256::mul(0x02, 0x80), 0x1b);
  EXPECT_EQ(gf256::mul(0x00, 0x7f), 0x00);
  EXPECT_EQ(gf256::mul(0x01, 0x7f), 0x7f);
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto element = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(element, gf256::inv(element)), 1) << "a=" << a;
  }
}

TEST(Gf256, MulIsCommutativeAndAssociativeSample) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_u64());
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    const auto c = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
    EXPECT_EQ(gf256::mul(gf256::mul(a, b), c), gf256::mul(a, gf256::mul(b, c)));
    // Distributivity over XOR.
    EXPECT_EQ(gf256::mul(a, gf256::add(b, c)),
              gf256::add(gf256::mul(a, b), gf256::mul(a, c)));
  }
}

TEST(Gf256, InterpolateRecoversPolynomial) {
  // p(x) = 3x^2 + 5x + 7 over GF(256).
  const std::uint8_t coefficients[] = {7, 5, 3};
  std::uint8_t xs[] = {1, 2, 3};
  std::uint8_t ys[3];
  for (int i = 0; i < 3; ++i) ys[i] = gf256::poly_eval(coefficients, xs[i]);
  EXPECT_EQ(gf256::interpolate(xs, ys, 0), 7);
  EXPECT_EQ(gf256::interpolate(xs, ys, 5), gf256::poly_eval(coefficients, 5));
}

// ---------------------------------------------------------------------------
// Shamir
// ---------------------------------------------------------------------------

struct ThresholdParams {
  unsigned k;
  unsigned n;
};

class ShamirSweep : public ::testing::TestWithParam<ThresholdParams> {};

TEST_P(ShamirSweep, AnyKSharesReconstruct) {
  const auto [k, n] = GetParam();
  Rng rng(1000 + k * 31 + n);
  const Bytes secret = rng.bytes(48);
  const auto shares = shamir_split(secret, k, n, rng);
  ASSERT_EQ(shares.size(), n);

  // First k shares.
  EXPECT_EQ(shamir_combine(std::span(shares).first(k), k), secret);
  // Last k shares.
  EXPECT_EQ(shamir_combine(std::span(shares).last(k), k), secret);
  // A random subset of k shares.
  std::vector<ShamirShare> subset(shares.begin(), shares.end());
  for (std::size_t i = subset.size(); i > 1; --i) {
    std::swap(subset[i - 1], subset[rng.next_below(i)]);
  }
  subset.resize(k);
  EXPECT_EQ(shamir_combine(subset, k), secret);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ShamirSweep,
                         ::testing::Values(ThresholdParams{1, 1}, ThresholdParams{1, 4},
                                           ThresholdParams{2, 3}, ThresholdParams{3, 5},
                                           ThresholdParams{4, 7}, ThresholdParams{5, 9},
                                           ThresholdParams{7, 10}));

TEST(Shamir, FewerThanKSharesRevealNothingStructural) {
  // With k-1 shares the remaining degree of freedom makes every secret byte
  // equally consistent: interpolating the k-1 shares plus a guessed share
  // yields different "secrets" for different guesses.
  Rng rng(77);
  const Bytes secret = rng.bytes(16);
  const auto shares = shamir_split(secret, 3, 5, rng);

  std::vector<ShamirShare> partial(shares.begin(), shares.begin() + 2);
  ShamirShare forged;
  forged.index = shares[2].index;
  forged.data = rng.bytes(16);
  partial.push_back(forged);
  const Bytes candidate = shamir_combine(partial, 3);
  EXPECT_NE(candidate, secret);  // astronomically unlikely to match
}

TEST(Shamir, ProactiveRefreshPreservesSecret) {
  Rng rng(80);
  const Bytes secret = rng.bytes(32);
  const auto original = shamir_split(secret, 3, 5, rng);

  const auto refreshed = shamir_refresh(original, 3, rng);
  ASSERT_EQ(refreshed.size(), original.size());

  // Same secret from any k refreshed shares...
  EXPECT_EQ(shamir_combine(std::span(refreshed).first(3), 3), secret);
  EXPECT_EQ(shamir_combine(std::span(refreshed).last(3), 3), secret);

  // ...but every individual share changed...
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NE(refreshed[i].data, original[i].data) << "share " << i;
  }

  // ...and shares from different epochs do not mix.
  std::vector<ShamirShare> mixed = {original[0], original[1], refreshed[2]};
  EXPECT_NE(shamir_combine(mixed, 3), secret);
}

TEST(Shamir, RepeatedRefreshStaysCorrect) {
  Rng rng(81);
  const Bytes secret = rng.bytes(16);
  auto shares = shamir_split(secret, 4, 7, rng);
  for (int epoch = 0; epoch < 10; ++epoch) {
    shares = shamir_refresh(shares, 4, rng);
    EXPECT_EQ(shamir_combine(std::span(shares).subspan(2, 4), 4), secret)
        << "epoch " << epoch;
  }
}

TEST(Shamir, RefreshRejectsMalformedInput) {
  Rng rng(82);
  const auto shares = shamir_split(to_bytes("s"), 2, 3, rng);
  EXPECT_THROW(shamir_refresh({}, 2, rng), std::invalid_argument);
  EXPECT_THROW(shamir_refresh(shares, 4, rng), std::invalid_argument);
  auto inconsistent = shares;
  inconsistent[1].data.push_back(0);
  EXPECT_THROW(shamir_refresh(inconsistent, 2, rng), std::invalid_argument);
}

TEST(Shamir, RejectsMalformedShares) {
  Rng rng(78);
  const auto shares = shamir_split(to_bytes("s"), 2, 3, rng);
  std::vector<ShamirShare> duplicate = {shares[0], shares[0]};
  EXPECT_THROW(shamir_combine(duplicate, 2), std::invalid_argument);
  EXPECT_THROW(shamir_combine(std::span(shares).first(1), 2), std::invalid_argument);
  EXPECT_THROW(shamir_split(to_bytes("s"), 4, 3, rng), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// IDA
// ---------------------------------------------------------------------------

class IdaSweep : public ::testing::TestWithParam<ThresholdParams> {};

TEST_P(IdaSweep, AnyMFragmentsReconstruct) {
  const auto [m, n] = GetParam();
  Rng rng(2000 + m * 17 + n);
  for (const std::size_t size : {0u, 1u, 10u, 100u, 1000u}) {
    const Bytes data = rng.bytes(size);
    const auto fragments = ida_disperse(data, m, n);
    ASSERT_EQ(fragments.size(), n);

    EXPECT_EQ(ida_reconstruct(std::span(fragments).first(m), m), data) << "size=" << size;
    EXPECT_EQ(ida_reconstruct(std::span(fragments).last(m), m), data) << "size=" << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, IdaSweep,
                         ::testing::Values(ThresholdParams{1, 3}, ThresholdParams{2, 4},
                                           ThresholdParams{3, 5}, ThresholdParams{4, 7},
                                           ThresholdParams{5, 9}, ThresholdParams{8, 12}));

TEST(Ida, FragmentsAreSpaceEfficient) {
  Rng rng(90);
  const Bytes data = rng.bytes(1200);
  const auto fragments = ida_disperse(data, 4, 7);
  // Each fragment is |data|/m (up to padding), not |data| — the whole point
  // of dispersal vs replication.
  EXPECT_EQ(fragments[0].data.size(), 300u);
}

TEST(Ida, RejectsMalformedFragments) {
  Rng rng(91);
  const Bytes data = rng.bytes(64);
  auto fragments = ida_disperse(data, 3, 5);
  EXPECT_THROW(ida_reconstruct(std::span(fragments).first(2), 3), std::invalid_argument);
  std::vector<IdaFragment> duplicated = {fragments[0], fragments[0], fragments[1]};
  EXPECT_THROW(ida_reconstruct(duplicated, 3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Multisig certificates
// ---------------------------------------------------------------------------

TEST(Multisig, ThresholdSatisfaction) {
  Rng rng(55);
  std::unordered_map<NodeId, Bytes> keys;
  std::vector<KeyPair> pairs;
  for (std::uint32_t i = 0; i < 5; ++i) {
    pairs.push_back(KeyPair::generate(rng));
    keys[NodeId{i}] = pairs.back().public_key;
  }

  MultisigCertificate cert(to_bytes("value v at timestamp 7 is stable"));
  EXPECT_FALSE(cert.satisfies(1, keys));

  cert.add_share(NodeId{0}, ed25519_sign(pairs[0], cert.statement()));
  cert.add_share(NodeId{1}, ed25519_sign(pairs[1], cert.statement()));
  EXPECT_TRUE(cert.satisfies(2, keys));
  EXPECT_FALSE(cert.satisfies(3, keys));

  // A forged share from a compromised server adds nothing.
  cert.add_share(NodeId{2}, Bytes(64, 0xab));
  EXPECT_FALSE(cert.satisfies(3, keys));

  // Duplicate signer is not double counted.
  cert.add_share(NodeId{0}, ed25519_sign(pairs[0], cert.statement()));
  EXPECT_EQ(cert.count_valid(keys), 2u);

  cert.add_share(NodeId{3}, ed25519_sign(pairs[3], cert.statement()));
  EXPECT_TRUE(cert.satisfies(3, keys));
}

TEST(Multisig, SerializationRoundtrip) {
  Rng rng(56);
  const KeyPair pair = KeyPair::generate(rng);
  MultisigCertificate cert(to_bytes("statement"));
  cert.add_share(NodeId{9}, ed25519_sign(pair, cert.statement()));

  const MultisigCertificate parsed = MultisigCertificate::deserialize(cert.serialize());
  EXPECT_EQ(parsed.statement(), cert.statement());
  ASSERT_EQ(parsed.shares().size(), 1u);
  EXPECT_EQ(parsed.shares()[0].signer, NodeId{9});

  std::unordered_map<NodeId, Bytes> keys{{NodeId{9}, pair.public_key}};
  EXPECT_TRUE(parsed.satisfies(1, keys));
}

// ---------------------------------------------------------------------------
// CryptoMeter
// ---------------------------------------------------------------------------

TEST(CryptoMeter, CountsOperations) {
  Rng rng(60);
  const KeyPair pair = KeyPair::generate(rng);
  auto& meter = CryptoMeter::instance();
  meter.reset();

  const Bytes message = to_bytes("metered");
  const Bytes signature = meter_sign(pair, message);
  EXPECT_TRUE(meter_verify(pair.public_key, message, signature));
  (void)meter_digest(message);
  (void)meter_mac(to_bytes("key"), message);

  EXPECT_EQ(meter.signs, 1u);
  EXPECT_EQ(meter.verifies, 1u);
  EXPECT_EQ(meter.digests, 1u);
  EXPECT_EQ(meter.macs, 1u);

  meter.reset();
  EXPECT_EQ(meter.signs, 0u);
}

}  // namespace
}  // namespace securestore::crypto
