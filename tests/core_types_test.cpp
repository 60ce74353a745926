// Unit tests for the core data types: timestamps, contexts, signed records,
// protocol messages, authorization tokens, confidentiality codec.
#include <gtest/gtest.h>

#include "core/auth.h"
#include "core/confidential.h"
#include "core/context.h"
#include "core/messages.h"
#include "core/record.h"
#include "core/timestamp.h"
#include "crypto/keys.h"

namespace securestore::core {
namespace {

constexpr GroupId kGroup{3};
constexpr ItemId kX{10};
constexpr ItemId kY{11};

// ------------------------------- Timestamp ---------------------------------

TEST(Timestamp, OrderByTimeThenUid) {
  Timestamp a{1, ClientId{5}, {}};
  Timestamp b{2, ClientId{1}, {}};
  EXPECT_LT(a, b);  // time dominates

  Timestamp c{2, ClientId{2}, {}};
  EXPECT_LT(b, c);  // uid breaks ties
}

TEST(Timestamp, DigestDoesNotOrder) {
  Timestamp a{1, ClientId{1}, to_bytes("da")};
  Timestamp b{1, ClientId{1}, to_bytes("db")};
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.equivocates(b));
  EXPECT_FALSE(a.equivocates(a));
}

TEST(Timestamp, EncodingRoundtrip) {
  Timestamp ts{123456789, ClientId{42}, to_bytes("digest bytes")};
  Writer w;
  ts.encode(w);
  Reader r(w.data());
  const Timestamp decoded = Timestamp::decode(r);
  EXPECT_EQ(decoded, ts);
  EXPECT_TRUE(r.at_end());
}

TEST(Timestamp, ZeroDetection) {
  EXPECT_TRUE(Timestamp{}.is_zero());
  EXPECT_FALSE((Timestamp{1, {}, {}}).is_zero());
}

// -------------------------------- Context ----------------------------------

TEST(Context, AdvanceOnlyMovesForward) {
  Context context(kGroup);
  context.advance(kX, Timestamp{5, {}, {}});
  context.advance(kX, Timestamp{3, {}, {}});  // no-op
  EXPECT_EQ(context.get(kX).time, 5u);
  context.advance(kX, Timestamp{9, {}, {}});
  EXPECT_EQ(context.get(kX).time, 9u);
}

TEST(Context, MergeIsPointwiseMax) {
  Context a(kGroup);
  a.set(kX, Timestamp{5, {}, {}});
  a.set(kY, Timestamp{1, {}, {}});

  Context b(kGroup);
  b.set(kX, Timestamp{2, {}, {}});
  b.set(kY, Timestamp{7, {}, {}});
  b.set(ItemId{12}, Timestamp{4, {}, {}});

  a.merge(b);
  EXPECT_EQ(a.get(kX).time, 5u);
  EXPECT_EQ(a.get(kY).time, 7u);
  EXPECT_EQ(a.get(ItemId{12}).time, 4u);
}

TEST(Context, Dominates) {
  Context newer(kGroup);
  newer.set(kX, Timestamp{5, {}, {}});
  newer.set(kY, Timestamp{5, {}, {}});

  Context older(kGroup);
  older.set(kX, Timestamp{3, {}, {}});

  EXPECT_TRUE(newer.dominates(older));
  EXPECT_FALSE(older.dominates(newer));
  EXPECT_TRUE(newer.dominates(newer));
  EXPECT_TRUE(newer.dominates(Context(kGroup)));  // empty is dominated by all
}

TEST(Context, SerializationIsCanonical) {
  // Insertion order must not affect the bytes (signatures depend on this).
  Context a(kGroup);
  a.set(kX, Timestamp{1, {}, {}});
  a.set(kY, Timestamp{2, {}, {}});

  Context b(kGroup);
  b.set(kY, Timestamp{2, {}, {}});
  b.set(kX, Timestamp{1, {}, {}});

  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(Context::deserialize(a.serialize()), a);
}

TEST(Context, MissingItemIsZero) {
  Context context(kGroup);
  EXPECT_TRUE(context.get(ItemId{404}).is_zero());
}

// ------------------------------ WriteRecord --------------------------------

WriteRecord sample_record(const crypto::KeyPair& keys) {
  WriteRecord record;
  record.item = kX;
  record.group = kGroup;
  record.model = ConsistencyModel::kCC;
  record.writer = ClientId{1};
  record.value = to_bytes("the value");
  record.ts = Timestamp{10, {}, {}};
  Context context(kGroup);
  context.set(kX, record.ts);
  record.writer_context = context;
  record.sign(keys);
  return record;
}

TEST(WriteRecord, SignVerifyRoundtrip) {
  Rng rng(1);
  const crypto::KeyPair keys = crypto::KeyPair::generate(rng);
  const WriteRecord record = sample_record(keys);
  EXPECT_TRUE(record.verify(keys.public_key));
  EXPECT_TRUE(record.verify_meta(keys.public_key));
}

TEST(WriteRecord, TamperedValueDetected) {
  Rng rng(2);
  const crypto::KeyPair keys = crypto::KeyPair::generate(rng);
  WriteRecord record = sample_record(keys);
  record.value[0] ^= 1;
  // Meta still verifies (signature covers the digest), but the value check
  // fails — exactly the split servers rely on.
  EXPECT_TRUE(record.verify_meta(keys.public_key));
  EXPECT_FALSE(record.verify(keys.public_key));
}

TEST(WriteRecord, TamperedMetaDetected) {
  Rng rng(3);
  const crypto::KeyPair keys = crypto::KeyPair::generate(rng);

  WriteRecord bumped_ts = sample_record(keys);
  bumped_ts.ts.time += 1;
  EXPECT_FALSE(bumped_ts.verify_meta(keys.public_key));

  WriteRecord changed_item = sample_record(keys);
  changed_item.item = kY;
  EXPECT_FALSE(changed_item.verify_meta(keys.public_key));

  WriteRecord changed_context = sample_record(keys);
  Context poisoned(kGroup);
  poisoned.set(kY, Timestamp{999999, {}, {}});
  changed_context.writer_context = poisoned;
  EXPECT_FALSE(changed_context.verify_meta(keys.public_key));
}

TEST(WriteRecord, MetaOnlyStripsValueButStaysVerifiable) {
  Rng rng(4);
  const crypto::KeyPair keys = crypto::KeyPair::generate(rng);
  const WriteRecord meta = sample_record(keys).meta_only();
  EXPECT_TRUE(meta.value.empty());
  EXPECT_TRUE(meta.verify_meta(keys.public_key));
}

TEST(WriteRecord, SerializationRoundtrip) {
  Rng rng(5);
  const crypto::KeyPair keys = crypto::KeyPair::generate(rng);
  const WriteRecord record = sample_record(keys);
  const WriteRecord decoded = WriteRecord::deserialize(record.serialize());
  EXPECT_EQ(decoded, record);
  EXPECT_TRUE(decoded.verify(keys.public_key));
}

TEST(WriteRecord, MismatchedTsDigestRejectedAtSignTime) {
  Rng rng(6);
  const crypto::KeyPair keys = crypto::KeyPair::generate(rng);
  WriteRecord record;
  record.item = kX;
  record.value = to_bytes("v");
  record.ts = Timestamp{1, ClientId{1}, to_bytes("not the digest")};
  EXPECT_THROW(record.sign(keys), std::invalid_argument);
}

TEST(StoredContext, SignVerifyRoundtrip) {
  Rng rng(7);
  const crypto::KeyPair keys = crypto::KeyPair::generate(rng);
  Context context(kGroup);
  context.set(kX, Timestamp{3, {}, {}});
  StoredContext stored{ClientId{2}, context, {}};
  stored.sign(keys);
  EXPECT_TRUE(stored.verify(keys.public_key));

  stored.context.set(kX, Timestamp{4, {}, {}});
  EXPECT_FALSE(stored.verify(keys.public_key));
}

// ------------------------------- Messages ----------------------------------

TEST(Messages, AllRoundtrip) {
  Rng rng(8);
  const crypto::KeyPair keys = crypto::KeyPair::generate(rng);
  const WriteRecord record = sample_record(keys);

  {
    ContextReadReq req{ClientId{1}, kGroup};
    const auto decoded = ContextReadReq::deserialize(req.serialize());
    EXPECT_EQ(decoded.owner, req.owner);
    EXPECT_EQ(decoded.group, req.group);
  }
  {
    StoredContext stored{ClientId{1}, Context(kGroup), to_bytes("s")};
    ContextReadResp resp{stored};
    const auto decoded = ContextReadResp::deserialize(resp.serialize());
    ASSERT_TRUE(decoded.stored.has_value());
    EXPECT_EQ(*decoded.stored, stored);

    ContextReadResp empty;
    EXPECT_FALSE(ContextReadResp::deserialize(empty.serialize()).stored.has_value());
  }
  {
    MetaReq req;
    req.item = kX;
    req.requester = ClientId{2};
    const auto decoded = MetaReq::deserialize(req.serialize());
    EXPECT_EQ(decoded.item, kX);
    EXPECT_FALSE(decoded.token.has_value());
  }
  {
    MetaResp resp;
    resp.faulty_writer = true;
    resp.meta = record.meta_only();
    const auto decoded = MetaResp::deserialize(resp.serialize());
    EXPECT_TRUE(decoded.faulty_writer);
    ASSERT_TRUE(decoded.meta.has_value());
    EXPECT_EQ(*decoded.meta, record.meta_only());
  }
  {
    WriteReq req;
    req.record = record;
    const auto decoded = WriteReq::deserialize(req.serialize());
    EXPECT_EQ(decoded.record, record);
  }
  {
    WriteResp resp;
    resp.ok = true;
    resp.stability_share = to_bytes("share");
    const auto decoded = WriteResp::deserialize(resp.serialize());
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.stability_share, to_bytes("share"));
  }
  {
    LogReadResp resp;
    resp.records = {record, record};
    const auto decoded = LogReadResp::deserialize(resp.serialize());
    EXPECT_EQ(decoded.records.size(), 2u);
    EXPECT_EQ(decoded.records[0], record);
  }
  {
    ReconstructResp resp;
    resp.metas = {record.meta_only()};
    const auto decoded = ReconstructResp::deserialize(resp.serialize());
    ASSERT_EQ(decoded.metas.size(), 1u);
    EXPECT_EQ(decoded.metas[0], record.meta_only());
  }
}

TEST(Messages, TrailingGarbageRejected) {
  ContextReadReq req{ClientId{1}, kGroup};
  Bytes bytes = req.serialize();
  bytes.push_back(0xff);
  EXPECT_THROW(ContextReadReq::deserialize(bytes), DecodeError);
}

// --------------------------------- Auth ------------------------------------

TEST(Auth, TokenLifecycle) {
  Rng rng(9);
  const crypto::KeyPair authority = crypto::KeyPair::generate(rng);
  const Authorizer authorizer(authority);
  const TokenVerifier verifier(authority.public_key);

  const AuthToken token = authorizer.issue(ClientId{1}, kGroup, Rights::kReadWrite);
  EXPECT_TRUE(verifier.check(token, ClientId{1}, kGroup, Rights::kRead, 0));
  EXPECT_TRUE(verifier.check(token, ClientId{1}, kGroup, Rights::kWrite, 0));

  // Wrong principal / group / missing token all fail.
  EXPECT_FALSE(verifier.check(token, ClientId{2}, kGroup, Rights::kRead, 0));
  EXPECT_FALSE(verifier.check(token, ClientId{1}, GroupId{99}, Rights::kRead, 0));
  EXPECT_FALSE(verifier.check(std::nullopt, ClientId{1}, kGroup, Rights::kRead, 0));

  // Read-only token cannot write.
  const AuthToken read_only = authorizer.issue(ClientId{1}, kGroup, Rights::kRead);
  EXPECT_TRUE(verifier.check(read_only, ClientId{1}, kGroup, Rights::kRead, 0));
  EXPECT_FALSE(verifier.check(read_only, ClientId{1}, kGroup, Rights::kWrite, 0));
}

TEST(Auth, ExpiryEnforced) {
  Rng rng(10);
  const crypto::KeyPair authority = crypto::KeyPair::generate(rng);
  const Authorizer authorizer(authority);
  const TokenVerifier verifier(authority.public_key);

  const AuthToken token = authorizer.issue(ClientId{1}, kGroup, Rights::kRead,
                                           /*expiry=*/seconds(10));
  EXPECT_TRUE(verifier.check(token, ClientId{1}, kGroup, Rights::kRead, seconds(5)));
  EXPECT_FALSE(verifier.check(token, ClientId{1}, kGroup, Rights::kRead, seconds(10)));
}

TEST(Auth, ForgedTokenRejected) {
  Rng rng(11);
  const crypto::KeyPair authority = crypto::KeyPair::generate(rng);
  const crypto::KeyPair impostor = crypto::KeyPair::generate(rng);
  const TokenVerifier verifier(authority.public_key);

  const Authorizer fake(impostor);
  const AuthToken token = fake.issue(ClientId{1}, kGroup, Rights::kReadWrite);
  EXPECT_FALSE(verifier.check(token, ClientId{1}, kGroup, Rights::kRead, 0));
}

TEST(Auth, TokenEncodingRoundtrip) {
  Rng rng(12);
  const crypto::KeyPair authority = crypto::KeyPair::generate(rng);
  const AuthToken token =
      Authorizer(authority).issue(ClientId{7}, kGroup, Rights::kWrite, seconds(99));
  Writer w;
  token.encode(w);
  Reader r(w.data());
  const AuthToken decoded = AuthToken::decode(r);
  EXPECT_EQ(decoded.client, token.client);
  EXPECT_EQ(decoded.group, token.group);
  EXPECT_EQ(decoded.rights, token.rights);
  EXPECT_EQ(decoded.expiry, token.expiry);
  EXPECT_EQ(decoded.signature, token.signature);
}

// ----------------------------- Confidentiality -----------------------------

TEST(Confidential, AeadRoundtrip) {
  AeadValueCodec codec(to_bytes("master key"), Rng(13));
  const Bytes plaintext = to_bytes("private medical data");
  const Bytes stored = codec.encode(kX, plaintext);
  EXPECT_NE(stored, plaintext);
  const auto decoded = codec.decode(kX, stored);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, plaintext);
}

TEST(Confidential, PerItemKeysDiffer) {
  AeadValueCodec codec(to_bytes("master key"), Rng(14));
  const Bytes for_x = codec.encode(kX, to_bytes("data"));
  // A ciphertext moved to a different item fails (aad binds the item).
  EXPECT_FALSE(codec.decode(kY, for_x).has_value());
}

TEST(Confidential, WrongKeyFails) {
  AeadValueCodec writer(to_bytes("right key"), Rng(15));
  AeadValueCodec attacker(to_bytes("wrong key"), Rng(16));
  const Bytes stored = writer.encode(kX, to_bytes("secret"));
  EXPECT_FALSE(attacker.decode(kX, stored).has_value());
}

TEST(Confidential, TamperDetected) {
  AeadValueCodec codec(to_bytes("key"), Rng(17));
  Bytes stored = codec.encode(kX, to_bytes("secret"));
  stored[stored.size() / 2] ^= 1;
  EXPECT_FALSE(codec.decode(kX, stored).has_value());
}

TEST(Confidential, RekeyCycle) {
  AeadValueCodec old_codec(to_bytes("old key"), Rng(18));
  AeadValueCodec new_codec(to_bytes("new key"), Rng(19));

  const Bytes stored = old_codec.encode(kX, to_bytes("long-lived record"));
  const auto reencrypted = old_codec.rekey(kX, stored, new_codec);
  ASSERT_TRUE(reencrypted.has_value());

  EXPECT_FALSE(old_codec.decode(kX, *reencrypted).has_value());
  const auto decoded = new_codec.decode(kX, *reencrypted);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(securestore::to_string(*decoded), "long-lived record");
}

TEST(Confidential, PlainCodecPassesThrough) {
  PlainValueCodec codec;
  const Bytes data = to_bytes("public data");
  EXPECT_EQ(codec.encode(kX, data), data);
  EXPECT_EQ(*codec.decode(kX, data), data);
}

}  // namespace
}  // namespace securestore::core
