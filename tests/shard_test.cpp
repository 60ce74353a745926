// Sharding layer tests (DESIGN.md §11).
//
// Ring mechanics first — codec round-trips, signature discipline,
// known-answer balance and golden placement lookups (the placement function
// is a wire-compatibility surface: every party must compute identical
// owners) — then the router's update rules, then live-cluster integration:
// a stale-ring client healing through kWrongShard, forged rings bouncing
// off the signature check, and ring dissemination over gossip.
#include <gtest/gtest.h>

#include <string>

#include "net/rpc.h"
#include "shard/hash_ring.h"
#include "shard/router.h"
#include "shard/sharded_client.h"
#include "testkit/sharded_cluster.h"

namespace securestore {
namespace {

using shard::HashRing;
using shard::RingState;
using shard::ShardMembers;
using shard::ShardRouter;
using shard::SignedRingState;
using testkit::ShardedCluster;
using testkit::ShardedClusterOptions;

/// A ring over `shards` groups of 4 placeholder servers each.
RingState make_ring_state(std::uint32_t shards, std::uint32_t vnodes,
                          std::uint64_t version = 1, std::uint64_t seed = 7) {
  RingState state;
  state.version = version;
  state.vnodes_per_shard = vnodes;
  state.placement_seed = seed;
  for (std::uint32_t s = 0; s < shards; ++s) {
    ShardMembers members;
    members.shard_id = s;
    for (std::uint32_t i = 0; i < 4; ++i) {
      members.servers.push_back(NodeId{s * 100 + i});
      members.server_keys.push_back(Bytes(32, static_cast<std::uint8_t>(s + i)));
    }
    state.shards.push_back(std::move(members));
  }
  return state;
}

// ---------------------------------------------------------------------------
// Codec + signatures.
// ---------------------------------------------------------------------------

TEST(RingCodec, StateRoundTrips) {
  const RingState state = make_ring_state(3, 64, /*version=*/9, /*seed=*/123);
  const RingState back = RingState::deserialize(state.serialize());
  EXPECT_EQ(back.version, 9u);
  EXPECT_EQ(back.vnodes_per_shard, 64u);
  EXPECT_EQ(back.placement_seed, 123u);
  ASSERT_EQ(back.shards.size(), 3u);
  EXPECT_EQ(back.shards[2].shard_id, 2u);
  EXPECT_EQ(back.shards[2].servers, state.shards[2].servers);
  EXPECT_EQ(back.shards[2].server_keys, state.shards[2].server_keys);
}

TEST(RingCodec, SignedRoundTripVerifiesAndTamperFails) {
  Rng rng(5);
  const crypto::KeyPair authority = crypto::KeyPair::generate(rng);
  const crypto::KeyPair attacker = crypto::KeyPair::generate(rng);

  const SignedRingState signed_ring =
      SignedRingState::sign(make_ring_state(2, 64), authority);
  EXPECT_TRUE(signed_ring.verify(authority.public_key));
  EXPECT_FALSE(signed_ring.verify(attacker.public_key));
  EXPECT_FALSE(signed_ring.verify(Bytes{}));

  SignedRingState back = SignedRingState::deserialize(signed_ring.serialize());
  EXPECT_TRUE(back.verify(authority.public_key));

  back.ring.version = 99;  // content tamper: signature no longer covers it
  EXPECT_FALSE(back.verify(authority.public_key));

  EXPECT_THROW(SignedRingState::deserialize(to_bytes("not a ring")), DecodeError);
}

TEST(RingCodec, HashRingRejectsDegenerateStates) {
  RingState empty = make_ring_state(2, 64);
  empty.shards.clear();
  EXPECT_THROW(HashRing ring(empty), std::invalid_argument);

  RingState zero_vnodes = make_ring_state(2, 64);
  zero_vnodes.vnodes_per_shard = 0;
  EXPECT_THROW(HashRing ring(zero_vnodes), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Placement: known-answer balance and golden lookups.
// ---------------------------------------------------------------------------

TEST(HashRingPlacement, BalanceKnownAnswer) {
  // 8 shards, 100k sequential group keys, fixed placement seed. The
  // max/mean key-load ratio must stay under a fixed bound at every vnode
  // count, and the max itself is pinned: placement is a pure function of
  // the RingState, so any change to the hash layout is a wire break and
  // must show up here.
  struct Case {
    std::uint32_t vnodes;
    double max_ratio;
    std::uint64_t pinned_max;
  };
  const Case cases[] = {{64, 1.25, 14411}, {128, 1.20, 14132}, {256, 1.20, 14501}};
  for (const Case& c : cases) {
    const HashRing ring(make_ring_state(8, c.vnodes));
    std::vector<std::uint64_t> load(8, 0);
    for (std::uint64_t k = 1; k <= 100000; ++k) {
      const std::uint32_t shard = ring.shard_for(GroupId{k});
      ASSERT_LT(shard, 8u);
      ++load[shard];
    }
    std::uint64_t max_load = 0;
    for (const std::uint64_t l : load) max_load = std::max(max_load, l);
    const double mean = 100000.0 / 8.0;
    EXPECT_LE(static_cast<double>(max_load) / mean, c.max_ratio)
        << "vnodes=" << c.vnodes;
    EXPECT_EQ(max_load, c.pinned_max) << "placement drifted at vnodes=" << c.vnodes;
  }
}

TEST(HashRingPlacement, GoldenLookups) {
  EXPECT_EQ(HashRing::key_point(GroupId{1}, 7), 9281914914035571503ull);
  EXPECT_EQ(HashRing::key_point(GroupId{42}, 7), 10995025515421811534ull);
  EXPECT_EQ(HashRing::key_point(GroupId{1000}, 7), 3753859024894447038ull);
  EXPECT_EQ(HashRing::vnode_point(3, 5, 7), 5384124486287107229ull);

  const HashRing ring(make_ring_state(8, 64));
  EXPECT_EQ(ring.shard_for(GroupId{1}), 5u);
  EXPECT_EQ(ring.shard_for(GroupId{2}), 3u);
  EXPECT_EQ(ring.shard_for(GroupId{3}), 5u);
  EXPECT_EQ(ring.shard_for(GroupId{42}), 5u);
  EXPECT_EQ(ring.shard_for(GroupId{999}), 2u);
  EXPECT_EQ(ring.shard_for(GroupId{100000}), 6u);
}

TEST(HashRingPlacement, SeedChangesPlacement) {
  const HashRing a(make_ring_state(8, 64, 1, /*seed=*/7));
  const HashRing b(make_ring_state(8, 64, 1, /*seed=*/8));
  int moved = 0;
  for (std::uint64_t k = 1; k <= 512; ++k) {
    if (a.shard_for(GroupId{k}) != b.shard_for(GroupId{k})) ++moved;
  }
  EXPECT_GT(moved, 256) << "placement seed barely affects the layout";
}

// ---------------------------------------------------------------------------
// Router update rules.
// ---------------------------------------------------------------------------

core::StoreConfig router_template(const Bytes& authority_key) {
  core::StoreConfig config;
  config.n = 4;
  config.b = 1;
  config.ring_authority_key = authority_key;
  config.client_keys[1] = Bytes(32, 0x11);
  return config;
}

TEST(Router, AcceptsOnlyStrictlyNewerVerifiedRings) {
  Rng rng(6);
  const crypto::KeyPair authority = crypto::KeyPair::generate(rng);
  const crypto::KeyPair attacker = crypto::KeyPair::generate(rng);

  ShardRouter router(SignedRingState::sign(make_ring_state(2, 64, /*version=*/1),
                                           authority),
                     router_template(authority.public_key));
  EXPECT_EQ(router.version(), 1u);
  EXPECT_EQ(router.shard_count(), 2u);

  // Same version: replay, refused.
  EXPECT_FALSE(router.update(
      SignedRingState::sign(make_ring_state(3, 64, /*version=*/1), authority)));
  // Older: refused.
  EXPECT_FALSE(router.update(
      SignedRingState::sign(make_ring_state(3, 64, /*version=*/0), authority)));
  // Newer but forged: refused, version unchanged.
  EXPECT_FALSE(router.update(
      SignedRingState::sign(make_ring_state(3, 64, /*version=*/5), attacker)));
  EXPECT_EQ(router.version(), 1u);
  // Newer and authentic: installed.
  EXPECT_TRUE(router.update(
      SignedRingState::sign(make_ring_state(3, 64, /*version=*/2), authority)));
  EXPECT_EQ(router.version(), 2u);
  EXPECT_EQ(router.shard_count(), 3u);
}

TEST(Router, DerivesShardConfigFromRing) {
  Rng rng(6);
  const crypto::KeyPair authority = crypto::KeyPair::generate(rng);
  const RingState state = make_ring_state(2, 64);
  ShardRouter router(SignedRingState::sign(state, authority),
                     router_template(authority.public_key));

  const core::StoreConfig config = router.config_for(1);
  EXPECT_EQ(config.n, 4u);
  EXPECT_EQ(config.b, 1u);
  EXPECT_EQ(config.servers, state.shards[1].servers);
  for (std::size_t i = 0; i < state.shards[1].servers.size(); ++i) {
    EXPECT_EQ(config.server_keys.at(state.shards[1].servers[i]),
              state.shards[1].server_keys[i]);
  }
  EXPECT_EQ(config.client_keys.at(1), Bytes(32, 0x11));
  EXPECT_THROW(router.config_for(7), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Live-cluster integration.
// ---------------------------------------------------------------------------

core::GroupPolicy single_writer(GroupId group) {
  return core::GroupPolicy{group, core::ConsistencyModel::kMRC,
                           core::SharingMode::kSingleWriter, core::ClientTrust::kHonest};
}

std::uint64_t counter_sum_with_prefix(const obs::MetricsSnapshot& snapshot,
                                      const std::string& prefix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind(prefix, 0) == 0) sum += value;
  }
  return sum;
}

TEST(ShardedDeployment, StaleRingClientHealsThroughWrongShard) {
  ShardedClusterOptions options;
  options.groups = 2;
  options.seed = 11;
  ShardedCluster cluster(options);
  for (std::uint64_t g = 1; g <= 32; ++g) {
    cluster.set_group_policy(single_writer(GroupId{g}));
  }

  // Record pre-rebalance owners, then build the client on ring v1.
  std::vector<std::uint32_t> old_shard(33, 0);
  for (std::uint64_t g = 1; g <= 32; ++g) old_shard[g] = cluster.shard_for(GroupId{g});

  core::SecureStoreClient::Options client_options;
  auto client = cluster.make_client(ClientId{1}, std::move(client_options));
  shard::SyncShardedClient sync(*client, cluster.scheduler());

  // Write every group once under ring v1 so sessions and data exist.
  for (std::uint64_t g = 1; g <= 32; ++g) {
    ASSERT_TRUE(sync.connect(GroupId{g}).ok()) << "g=" << g;
    ASSERT_TRUE(sync.write(GroupId{g}, ItemId{g * 100}, to_bytes("v1")).ok()) << "g=" << g;
  }

  // Rebalance: one more group, full protocol. The client is NOT told.
  cluster.add_group();
  EXPECT_EQ(cluster.ring().ring.version, 2u);

  GroupId moved{0};
  for (std::uint64_t g = 1; g <= 32; ++g) {
    if (cluster.shard_for(GroupId{g}) != old_shard[g]) {
      moved = GroupId{g};
      break;
    }
  }
  ASSERT_NE(moved.value, 0u) << "no group moved to the new shard — widen the key range";

  // The stale client writes the moved group: the old owner rejects with
  // kWrongShard + its new ring; the client absorbs it, rebuilds the session
  // at the new owner (merging its context), retries, and succeeds.
  ASSERT_TRUE(sync.write(moved, ItemId{moved.value * 100}, to_bytes("v2")).ok());
  EXPECT_EQ(client->router().version(), 2u);
  EXPECT_EQ(client->shard_for(moved), cluster.shard_for(moved));

  // The write landed at the NEW owner, visible to a fresh post-ring client.
  auto fresh = cluster.make_client(ClientId{2}, core::SecureStoreClient::Options{});
  shard::SyncShardedClient fresh_sync(*fresh, cluster.scheduler());
  ASSERT_TRUE(fresh_sync.reconstruct_context(moved).ok());
  const auto read_back = fresh_sync.read_value(moved, ItemId{moved.value * 100});
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), to_bytes("v2"));

  // §8 counters: the rejection, the refresh and the reroute all counted.
  const obs::MetricsSnapshot snapshot = cluster.registry().snapshot();
  EXPECT_GE(counter_sum_with_prefix(snapshot, "shard.wrong_shard"), 1u);
  const auto refresh = snapshot.counters.find("shard.ring_refresh");
  ASSERT_NE(refresh, snapshot.counters.end());
  EXPECT_GE(refresh->second, 1u);
  const auto reroute = snapshot.counters.find("shard.reroute");
  ASSERT_NE(reroute, snapshot.counters.end());
  EXPECT_GE(reroute->second, 1u);
}

TEST(ShardedDeployment, ForgedRingIsIgnored) {
  ShardedClusterOptions options;
  options.groups = 2;
  options.seed = 12;
  ShardedCluster cluster(options);

  // A Byzantine peer forges a "newer" ring signed by its own key and
  // gossips it straight at a server. The signature check drops it.
  Rng rng(99);
  const crypto::KeyPair attacker = crypto::KeyPair::generate(rng);
  RingState forged = cluster.ring().ring;
  forged.version = 1000;
  forged.shards.resize(1);  // the attack: collapse everything onto shard 0
  const SignedRingState forged_signed = SignedRingState::sign(forged, attacker);

  net::RpcNode byzantine(cluster.endpoint_transport(), NodeId{9999});
  byzantine.send_oneway(cluster.group(0).server_node(0), net::MsgType::kGossipRing,
                        forged_signed.serialize());
  cluster.run_for(seconds(1));

  EXPECT_EQ(cluster.group(0).server(0).ring_version(), cluster.ring().ring.version);
  const obs::MetricsSnapshot snapshot = cluster.registry().snapshot();
  EXPECT_GE(counter_sum_with_prefix(snapshot, "shard.ring_rejected"), 1u);

  // Direct install of the same forgery is refused too.
  EXPECT_FALSE(cluster.group(0).server(0).install_ring(forged_signed));
}

TEST(ShardedDeployment, RingSpreadsOverGossipWithinGroup) {
  ShardedClusterOptions options;
  options.groups = 2;
  options.seed = 13;
  options.gossip.period = milliseconds(50);
  ShardedCluster cluster(options);

  // Hand ring v2 to ONE server of group 0; gossip must carry it to the
  // group's peers (dissemination is per-group: gossip peers are the
  // group's own servers).
  const SignedRingState v2 = cluster.next_ring();
  ASSERT_TRUE(cluster.group(0).server(0).install_ring(v2));
  cluster.run_for(seconds(2));

  for (std::size_t s = 0; s < cluster.group(0).server_count(); ++s) {
    EXPECT_EQ(cluster.group(0).server(s).ring_version(), 2u) << "server " << s;
  }
  for (std::size_t s = 0; s < cluster.group(1).server_count(); ++s) {
    EXPECT_EQ(cluster.group(1).server(s).ring_version(), 1u) << "server " << s;
  }

  const obs::MetricsSnapshot snapshot = cluster.registry().snapshot();
  EXPECT_GE(counter_sum_with_prefix(snapshot, "shard.ring_installed"), 1u);
}

TEST(ShardedDeployment, PerShardMetricSuffixSeparatesGroups) {
  ShardedClusterOptions options;
  options.groups = 2;
  options.seed = 14;
  ShardedCluster cluster(options);
  cluster.set_group_policy(single_writer(GroupId{1}));

  auto client = cluster.make_client(ClientId{1}, core::SecureStoreClient::Options{});
  shard::SyncShardedClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(GroupId{1}).ok());
  ASSERT_TRUE(sync.write(GroupId{1}, ItemId{100}, to_bytes("x")).ok());

  // Both groups' servers fold into ONE registry, distinguished by the
  // {shard=<id>} suffix (satellite: shared registry across groups).
  const obs::MetricsSnapshot snapshot = cluster.registry().snapshot();
  std::uint64_t suffixed = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.find("{shard=0}") != std::string::npos ||
        name.find("{shard=1}") != std::string::npos) {
      ++suffixed;
    }
  }
  EXPECT_GT(suffixed, 0u) << "no per-shard suffixed series in the shared registry";
}

}  // namespace
}  // namespace securestore
