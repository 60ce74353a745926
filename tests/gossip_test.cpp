// Tests for the epidemic dissemination engine: convergence, tunable
// period, push-on-write rumor mongering, and resistance to forged updates.
#include <gtest/gtest.h>

#include "core/sync.h"
#include "crypto/keys.h"
#include "testkit/cluster.h"
#include "testkit/sharded_cluster.h"
#include "util/serial.h"

namespace securestore {
namespace {

using core::ConsistencyModel;
using core::GroupPolicy;
using core::SecureStoreClient;
using core::SharingMode;
using core::SyncClient;
using testkit::Cluster;
using testkit::ClusterOptions;

constexpr GroupId kGroup{1};
constexpr ItemId kX1{101};

GroupPolicy mrc_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

SecureStoreClient::Options client_options() {
  SecureStoreClient::Options options;
  options.policy = mrc_policy();
  return options;
}

std::size_t servers_with_item(Cluster& cluster, ItemId item) {
  std::size_t count = 0;
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    if (cluster.server(s).store().current(item) != nullptr) ++count;
  }
  return count;
}

TEST(Gossip, WriteConvergesToAllServers) {
  ClusterOptions options;
  options.n = 8;
  options.b = 2;
  options.gossip.period = milliseconds(200);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.write(kX1, to_bytes("spread me")).ok());

  // Written to b+1 = 3 servers; anti-entropy carries it to all 8.
  EXPECT_LT(servers_with_item(cluster, kX1), cluster.server_count());
  cluster.run_for(seconds(10));
  EXPECT_EQ(servers_with_item(cluster, kX1), cluster.server_count());
}

TEST(Gossip, NewerVersionOvertakesOlderEverywhere) {
  ClusterOptions options;
  options.n = 6;
  options.gossip.period = milliseconds(200);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.write(kX1, to_bytes("v1")).ok());
  cluster.run_for(seconds(10));  // v1 everywhere
  ASSERT_TRUE(sync.write(kX1, to_bytes("v2")).ok());
  cluster.run_for(seconds(10));

  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    const core::WriteRecord* record = cluster.server(s).store().current(kX1);
    ASSERT_NE(record, nullptr) << "server " << s;
    EXPECT_EQ(to_string(record->value), "v2") << "server " << s;
  }
}

TEST(Gossip, ShorterPeriodConvergesFaster) {
  auto time_to_converge = [](SimDuration period) {
    ClusterOptions options;
    options.n = 8;
    options.b = 2;
    options.gossip.period = period;
    options.seed = 42;
    Cluster cluster(options);
    cluster.set_group_policy(mrc_policy());

    auto client = cluster.make_client(ClientId{1}, client_options());
    SyncClient sync(*client, cluster.scheduler());
    EXPECT_TRUE(sync.write(kX1, to_bytes("race")).ok());

    const SimTime start = cluster.scheduler().now();
    while (servers_with_item(cluster, kX1) < cluster.server_count()) {
      cluster.run_for(milliseconds(50));
      if (cluster.scheduler().now() - start > seconds(120)) break;  // safety
    }
    return cluster.scheduler().now() - start;
  };

  const SimDuration fast = time_to_converge(milliseconds(100));
  const SimDuration slow = time_to_converge(seconds(2));
  EXPECT_LT(fast, slow);
}

TEST(Gossip, PushOnWriteSpreadsWithoutWaitingForTick) {
  ClusterOptions options;
  options.n = 6;
  options.gossip.period = seconds(60);  // ticks effectively never fire
  options.gossip.push_on_write = true;
  options.gossip.fanout = 2;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  // push_on_write is wired through the server's write handler only when the
  // engine is configured for it; writes land on b+1 servers which then push
  // to fanout peers immediately.
  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.write(kX1, to_bytes("rumor")).ok());
  cluster.run_for(seconds(2));  // far less than the 60 s tick period

  EXPECT_GT(servers_with_item(cluster, kX1), cluster.config().data_quorum_honest());
}

TEST(Gossip, EngineStartStop) {
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto& engine = cluster.server(0).gossip();
  EXPECT_FALSE(engine.running());
  engine.start();
  EXPECT_TRUE(engine.running());
  cluster.run_for(seconds(3));
  EXPECT_GT(engine.ticks(), 0u);

  engine.stop();
  const std::uint64_t ticks_at_stop = engine.ticks();
  cluster.run_for(seconds(3));
  EXPECT_EQ(engine.ticks(), ticks_at_stop);
}

TEST(Gossip, DigestExchangeIsBidirectional) {
  // Server 0 knows item A, server 1 knows item B; a single digest from 0 to
  // 1 must reconcile BOTH directions (push B's absence, pull A).
  ClusterOptions options;
  options.n = 2;
  options.b = 0;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());

  client->set_server_preference({NodeId{0}, NodeId{1}});
  ASSERT_TRUE(sync.write(ItemId{1}, to_bytes("item A")).ok());
  client->set_server_preference({NodeId{1}, NodeId{0}});
  ASSERT_TRUE(sync.write(ItemId{2}, to_bytes("item B")).ok());

  ASSERT_EQ(cluster.server(0).store().current(ItemId{2}), nullptr);
  ASSERT_EQ(cluster.server(1).store().current(ItemId{1}), nullptr);

  cluster.server(0).gossip().start();  // only one side gossips
  cluster.run_for(seconds(5));

  EXPECT_NE(cluster.server(0).store().current(ItemId{2}), nullptr);
  EXPECT_NE(cluster.server(1).store().current(ItemId{1}), nullptr);
}

// ---------------------------------------------------------------------------
// The record gate: a gossiped record is judged the same way whatever the
// size of the message it arrives in. Every rejection kind is sent alone and
// between two honest records; the verdicts, the counters and the crypto
// spent must match, and a record failing a cheap check costs no signature
// check.
// ---------------------------------------------------------------------------

enum class Defect { kScattered, kForeignShard, kUnknownWriter, kBadStructure, kBadDigest,
                    kBadSignature };

struct GateCase {
  Defect defect;
  std::size_t records;  // 1: the bad record alone; 3: between two honest ones
};

std::string defect_name(Defect defect) {
  switch (defect) {
    case Defect::kScattered: return "Scattered";
    case Defect::kForeignShard: return "ForeignShard";
    case Defect::kUnknownWriter: return "UnknownWriter";
    case Defect::kBadStructure: return "BadStructure";
    case Defect::kBadDigest: return "BadDigest";
    case Defect::kBadSignature: return "BadSignature";
  }
  return "?";
}

class GossipGate : public ::testing::TestWithParam<GateCase> {};

TEST_P(GossipGate, BadRecordIsRejectedAloneAtEveryMessageSize) {
  const GateCase param = GetParam();
  // Two shards of two servers, so a record can belong to a foreign shard.
  testkit::ShardedClusterOptions options;
  options.groups = 2;
  options.n = 2;
  options.b = 0;
  options.start_gossip = false;
  testkit::ShardedCluster cluster(options);
  GroupId own{};
  GroupId foreign{};
  for (std::uint64_t g = 1; own.value == 0 || foreign.value == 0; ++g) {
    (cluster.shard_for(GroupId{g}) == 0 ? own : foreign) = GroupId{g};
  }
  for (const GroupId group : {own, foreign}) {
    cluster.set_group_policy(
        GroupPolicy{group, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                    core::ClientTrust::kHonest});
  }
  const crypto::KeyPair& writer = cluster.client_keys(ClientId{1});
  const auto make = [&](ItemId item, const char* value) {
    core::WriteRecord record;
    record.item = item;
    record.group = own;
    record.writer = ClientId{1};
    record.ts.time = 1;
    record.value = to_bytes(value);
    return record;
  };

  core::WriteRecord bad = make(ItemId{2}, "bad");
  switch (param.defect) {
    case Defect::kScattered:
      bad.flags = core::kScattered;
      break;
    case Defect::kForeignShard:
      bad.group = foreign;
      break;
    case Defect::kUnknownWriter:
      bad.writer = ClientId{77};  // not in the deployment's key directory
      break;
    case Defect::kBadStructure:
      bad.model = ConsistencyModel::kCC;  // the group's policy is MRC
      break;
    default:
      break;
  }
  bad.sign(writer);
  if (param.defect == Defect::kBadDigest) bad.value = to_bytes("swapped after signing");
  if (param.defect == Defect::kBadSignature) bad.signature[0] ^= 0x01;

  std::vector<core::WriteRecord> records;
  if (param.records == 3) records.push_back(make(ItemId{1}, "good one"));
  records.push_back(bad);
  if (param.records == 3) records.push_back(make(ItemId{3}, "good two"));
  for (core::WriteRecord& record : records) {
    if (record.item != bad.item) record.sign(writer);
  }
  Writer w;
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const core::WriteRecord& record : records) {
    record.encode(w);
    w.u8(0);  // no origin trace context
  }
  const Bytes body = w.take();

  auto& received = cluster.registry().counter("gossip.records_received{shard=0}");
  auto& rejected = cluster.registry().counter("gossip.records_rejected{shard=0}");
  const std::uint64_t received_before = received.value();
  const std::uint64_t rejected_before = rejected.value();
  const crypto::CryptoMeter meter_before = crypto::CryptoMeter::instance();

  core::SecureStoreServer& server = cluster.group(0).server(0);
  server.gossip().handle(NodeId{100}, net::MsgType::kGossipUpdates, body);

  EXPECT_EQ(server.store().current(bad.item), nullptr);
  for (const core::WriteRecord& record : records) {
    if (record.item == bad.item) continue;
    const core::WriteRecord* stored = server.store().current(record.item);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(stored->value, record.value);
  }
  EXPECT_EQ(received.value() - received_before, param.records);
  EXPECT_EQ(rejected.value() - rejected_before, 1u);
  // The gate's order: only a record that passed the key, structure and
  // digest checks reaches the signature check, and only one that passed
  // the filters in front reaches the digest.
  const crypto::CryptoMeter& meter = crypto::CryptoMeter::instance();
  const bool digested =
      param.defect == Defect::kBadDigest || param.defect == Defect::kBadSignature;
  EXPECT_EQ(meter.verifies - meter_before.verifies,
            param.records - 1 + (param.defect == Defect::kBadSignature ? 1 : 0));
  EXPECT_EQ(meter.digests - meter_before.digests, param.records - 1 + (digested ? 1 : 0));
}

std::vector<GateCase> gate_cases() {
  std::vector<GateCase> cases;
  for (const Defect defect :
       {Defect::kScattered, Defect::kForeignShard, Defect::kUnknownWriter,
        Defect::kBadStructure, Defect::kBadDigest, Defect::kBadSignature}) {
    for (const std::size_t records : {std::size_t{1}, std::size_t{3}}) {
      cases.push_back({defect, records});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Gossip, GossipGate, ::testing::ValuesIn(gate_cases()),
                         [](const ::testing::TestParamInfo<GateCase>& info) {
                           return defect_name(info.param.defect) + "In" +
                                  std::to_string(info.param.records);
                         });

TEST(Gossip, DuplicatedDigestItemIsJudgedByItsFirstEntry) {
  // A digest that names an item twice (a faulty or Byzantine peer) is read
  // by its first entry for that item: "up to date, then behind" pushes
  // nothing, "behind, then up to date" pushes the record once.
  ClusterOptions options;
  options.n = 2;
  options.b = 0;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  client->set_server_preference({NodeId{0}, NodeId{1}});
  ASSERT_TRUE(sync.write(ItemId{1}, to_bytes("only one")).ok());
  const core::WriteRecord* record = cluster.server(0).store().current(ItemId{1});
  ASSERT_NE(record, nullptr);
  const core::Timestamp current = record->ts;

  const auto digest = [](const std::vector<core::Timestamp>& entries) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const core::Timestamp& ts : entries) {
      w.u64(1);
      ts.encode(w);
    }
    return w.take();
  };
  auto& sent = cluster.registry().counter("gossip.records_sent");
  const std::uint64_t before = sent.value();
  auto& gossip = cluster.server(0).gossip();
  gossip.handle(NodeId{1}, net::MsgType::kGossipDigest, digest({current, core::Timestamp{}}));
  EXPECT_EQ(sent.value(), before);
  gossip.handle(NodeId{1}, net::MsgType::kGossipDigest, digest({core::Timestamp{}, current}));
  EXPECT_EQ(sent.value(), before + 1);
}

}  // namespace
}  // namespace securestore
