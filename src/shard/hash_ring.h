// Consistent-hashing ring with virtual nodes (DESIGN.md §11).
//
// The paper's SecureStore replicates every item on all n servers, so
// capacity never grows with the cluster. This layer partitions the key
// space across independent (n, b) replica groups — shards — Dynamo-style:
// every shard owns `vnodes_per_shard` pseudo-random points on a 64-bit
// ring, and a group key is served by the shard whose vnode point is the
// key's clockwise successor. Placement is a pure function of
// (placement_seed, shard ids, vnode counts): every party that holds the
// same RingState computes the same owner for every key, with no
// coordination.
//
// The *group* (not the item) is the placement unit: a group is the paper's
// consistency and session boundary (§4 — "consistency is only required
// within a group"), so all items of a group land on one shard and P1–P6
// keep their single-group quorum arithmetic unchanged inside it.
//
// Ring states are versioned and signed by a deployment ring authority
// (Ed25519). Servers and client routers install a candidate ring only when
// the signature verifies and the version is strictly newer, so a Byzantine
// server can replay an old ring (harmless: version check) but never forge
// a new one.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/ids.h"
#include "util/serial.h"

namespace securestore::shard {

/// One shard's membership: the replica-group id and its server nodes with
/// their well-known public keys (index-aligned with `servers`). Carrying
/// the keys in the signed ring lets a router build a full StoreConfig for
/// a shard it has never contacted — rebalance adds shards at runtime.
struct ShardMembers {
  std::uint32_t shard_id = 0;
  std::vector<NodeId> servers;
  std::vector<Bytes> server_keys;

  void encode(Writer& w) const;
  static ShardMembers decode(Reader& r);
};

/// The versioned placement function plus membership.
struct RingState {
  std::uint64_t version = 0;
  std::uint32_t vnodes_per_shard = 64;
  std::uint64_t placement_seed = 0;
  std::vector<ShardMembers> shards;

  void encode(Writer& w) const;
  static RingState decode(Reader& r);
  Bytes serialize() const;
  static RingState deserialize(BytesView data);
};

/// A ring state under the ring authority's signature. This is what travels
/// over gossip (kGossipRing) and inside kWrongShard responses.
struct SignedRingState {
  RingState ring;
  Bytes signature;  // Ed25519 over the domain-separated serialized ring

  static SignedRingState sign(RingState ring, const crypto::KeyPair& authority);
  bool verify(BytesView authority_public_key) const;

  Bytes serialize() const;
  static SignedRingState deserialize(BytesView data);
};

/// The lookup structure: vnode points precomputed and sorted once.
class HashRing {
 public:
  explicit HashRing(RingState state);

  /// The shard that owns `group`: the clockwise successor vnode's shard.
  std::uint32_t shard_for(GroupId group) const;

  const RingState& state() const { return state_; }
  std::uint64_t version() const { return state_.version; }
  std::size_t shard_count() const { return state_.shards.size(); }

  /// Placement primitives, exposed so tests can pin them: both are SHA-256
  /// based (first 8 digest bytes, little-endian) with distinct domain tags.
  static std::uint64_t key_point(GroupId group, std::uint64_t placement_seed);
  static std::uint64_t vnode_point(std::uint32_t shard_id, std::uint32_t vnode,
                                   std::uint64_t placement_seed);

 private:
  RingState state_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;  // sorted (point, shard)
};

}  // namespace securestore::shard
