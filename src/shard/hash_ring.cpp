#include "shard/hash_ring.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/ed25519.h"
#include "crypto/keys.h"
#include "crypto/sha2.h"

namespace securestore::shard {

namespace {

// Placement hashing uses raw (unmetered) SHA-256: it is a routing
// computation, not protocol cryptography, and must not perturb the crypto
// cost accounting the benches report.
std::uint64_t point_of(BytesView preimage) {
  crypto::Sha256 h;
  h.update(preimage);
  const auto digest = h.finish();
  std::uint64_t point = 0;
  for (int i = 7; i >= 0; --i) point = (point << 8) | digest[static_cast<std::size_t>(i)];
  return point;
}

Bytes ring_statement(const RingState& ring) {
  Writer w;
  w.str("securestore.ring.v1");
  ring.encode(w);
  return w.take();
}

}  // namespace

void ShardMembers::encode(Writer& w) const {
  w.u32(shard_id);
  w.u32(static_cast<std::uint32_t>(servers.size()));
  for (const NodeId server : servers) w.u32(server.value);
  w.u32(static_cast<std::uint32_t>(server_keys.size()));
  for (const Bytes& key : server_keys) w.bytes(key);
}

ShardMembers ShardMembers::decode(Reader& r) {
  ShardMembers m;
  m.shard_id = r.u32();
  const std::uint32_t server_count = r.u32();
  // No reserve: counts are attacker-controlled, decode throws on underrun.
  for (std::uint32_t i = 0; i < server_count; ++i) m.servers.push_back(NodeId{r.u32()});
  const std::uint32_t key_count = r.u32();
  for (std::uint32_t i = 0; i < key_count; ++i) m.server_keys.push_back(r.bytes());
  return m;
}

void RingState::encode(Writer& w) const {
  w.u64(version);
  w.u32(vnodes_per_shard);
  w.u64(placement_seed);
  w.u32(static_cast<std::uint32_t>(shards.size()));
  for (const ShardMembers& shard : shards) shard.encode(w);
}

RingState RingState::decode(Reader& r) {
  RingState ring;
  ring.version = r.u64();
  ring.vnodes_per_shard = r.u32();
  ring.placement_seed = r.u64();
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) ring.shards.push_back(ShardMembers::decode(r));
  return ring;
}

Bytes RingState::serialize() const {
  Writer w;
  encode(w);
  return w.take();
}

RingState RingState::deserialize(BytesView data) {
  Reader r(data);
  RingState ring = decode(r);
  r.expect_end();
  return ring;
}

SignedRingState SignedRingState::sign(RingState ring, const crypto::KeyPair& authority) {
  SignedRingState signed_ring;
  signed_ring.signature = crypto::ed25519_sign(authority, ring_statement(ring));
  signed_ring.ring = std::move(ring);
  return signed_ring;
}

bool SignedRingState::verify(BytesView authority_public_key) const {
  if (authority_public_key.empty()) return false;
  return crypto::ed25519_verify(authority_public_key, ring_statement(ring), signature);
}

Bytes SignedRingState::serialize() const {
  Writer w;
  ring.encode(w);
  w.bytes(signature);
  return w.take();
}

SignedRingState SignedRingState::deserialize(BytesView data) {
  Reader r(data);
  SignedRingState signed_ring;
  signed_ring.ring = RingState::decode(r);
  signed_ring.signature = r.bytes();
  r.expect_end();
  return signed_ring;
}

HashRing::HashRing(RingState state) : state_(std::move(state)) {
  if (state_.shards.empty()) throw std::invalid_argument("HashRing: no shards");
  if (state_.vnodes_per_shard == 0) {
    throw std::invalid_argument("HashRing: vnodes_per_shard == 0");
  }
  points_.reserve(static_cast<std::size_t>(state_.shards.size()) * state_.vnodes_per_shard);
  for (const ShardMembers& shard : state_.shards) {
    for (std::uint32_t v = 0; v < state_.vnodes_per_shard; ++v) {
      points_.emplace_back(vnode_point(shard.shard_id, v, state_.placement_seed),
                           shard.shard_id);
    }
  }
  // Sorting by (point, shard) makes collisions — astronomically unlikely at
  // 64 bits — resolve deterministically for every holder of this state.
  std::sort(points_.begin(), points_.end());
}

std::uint32_t HashRing::shard_for(GroupId group) const {
  const std::uint64_t point = key_point(group, state_.placement_seed);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), point,
      [](const std::pair<std::uint64_t, std::uint32_t>& p, std::uint64_t key) {
        return p.first < key;
      });
  return it == points_.end() ? points_.front().second : it->second;
}

std::uint64_t HashRing::key_point(GroupId group, std::uint64_t placement_seed) {
  Writer w;
  w.str("ring-key");
  w.u64(placement_seed);
  w.u64(group.value);
  return point_of(w.data());
}

std::uint64_t HashRing::vnode_point(std::uint32_t shard_id, std::uint32_t vnode,
                                    std::uint64_t placement_seed) {
  Writer w;
  w.str("ring-vnode");
  w.u64(placement_seed);
  w.u32(shard_id);
  w.u32(vnode);
  return point_of(w.data());
}

}  // namespace securestore::shard
