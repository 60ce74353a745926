#include "core/record.h"

#include <stdexcept>

#include "crypto/keys.h"

namespace securestore::core {

Bytes WriteRecord::signed_payload() const {
  Writer w;
  w.str("securestore.write.v1");  // domain separation
  w.u64(item.value);
  w.u64(group.value);
  w.u8(static_cast<std::uint8_t>(model));
  w.u8(flags);
  w.u32(writer.value);
  ts.encode(w);
  writer_context.encode(w);
  w.bytes(value_digest);
  return w.take();
}

void WriteRecord::sign(const crypto::KeyPair& writer) {
  value_digest = crypto::meter_digest(value);
  if (!ts.digest.empty() && ts.digest != value_digest) {
    throw std::invalid_argument("WriteRecord::sign: ts.digest does not match d(v)");
  }
  signature = crypto::meter_sign(writer, signed_payload());
}

bool WriteRecord::verify(BytesView writer_public_key) const {
  if (!verify_meta(writer_public_key)) return false;
  // One digest recomputation; counted so E3's totals reflect it.
  return crypto::meter_digest(value) == value_digest;
}

bool WriteRecord::verify_meta(BytesView writer_public_key) const {
  if (!ts.digest.empty() && ts.digest != value_digest) return false;
  return crypto::meter_verify(writer_public_key, signed_payload(), signature);
}

WriteRecord WriteRecord::meta_only() const {
  WriteRecord meta = *this;
  meta.value.clear();
  return meta;
}

void WriteRecord::encode(Writer& w) const {
  w.u64(item.value);
  w.u64(group.value);
  w.u8(static_cast<std::uint8_t>(model));
  w.u8(flags);
  w.u32(writer.value);
  ts.encode(w);
  writer_context.encode(w);
  w.bytes(value);
  w.bytes(value_digest);
  w.bytes(signature);
}

WriteRecord WriteRecord::decode(Reader& r) {
  WriteRecord record;
  record.item = ItemId{r.u64()};
  record.group = GroupId{r.u64()};
  record.model = static_cast<ConsistencyModel>(r.u8());
  record.flags = r.u8();
  record.writer = ClientId{r.u32()};
  record.ts = Timestamp::decode(r);
  record.writer_context = Context::decode(r);
  record.value = r.bytes();
  record.value_digest = r.bytes();
  record.signature = r.bytes();
  return record;
}

Bytes WriteRecord::serialize() const {
  Writer w;
  encode(w);
  return w.take();
}

WriteRecord WriteRecord::deserialize(BytesView data) {
  Reader r(data);
  WriteRecord record = decode(r);
  r.expect_end();
  return record;
}

Bytes StoredContext::signed_payload() const {
  Writer w;
  w.str("securestore.context.v1");
  w.u32(owner.value);
  context.encode(w);
  return w.take();
}

void StoredContext::sign(const crypto::KeyPair& owner) {
  signature = crypto::meter_sign(owner, signed_payload());
}

bool StoredContext::verify(BytesView owner_public_key) const {
  return crypto::meter_verify(owner_public_key, signed_payload(), signature);
}

void StoredContext::encode(Writer& w) const {
  w.u32(owner.value);
  context.encode(w);
  w.bytes(signature);
}

StoredContext StoredContext::decode(Reader& r) {
  StoredContext stored;
  stored.owner = ClientId{r.u32()};
  stored.context = Context::decode(r);
  stored.signature = r.bytes();
  return stored;
}

}  // namespace securestore::core
