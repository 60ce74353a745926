// Tests for the epidemic dissemination engine: convergence, tunable
// period, push-on-write rumor mongering, and resistance to forged updates.
#include <gtest/gtest.h>

#include "core/sync.h"
#include "testkit/cluster.h"
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

TEST(Gossip, BadSignatureInBatchRejectsOnlyThatRecord) {
  // Byzantine peer slips one forged record into a multi-record update. The
  // batch verify path must fall back per-record: honest records apply, the
  // forged one is rejected and counted — one bad signature cannot poison
  // the batch (or sneak through under its cover).
  ClusterOptions options;
  options.n = 2;
  options.b = 0;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  client->set_server_preference({NodeId{0}, NodeId{1}});
  ASSERT_TRUE(sync.write(ItemId{1}, to_bytes("good one")).ok());
  ASSERT_TRUE(sync.write(ItemId{2}, to_bytes("to be forged")).ok());
  ASSERT_TRUE(sync.write(ItemId{3}, to_bytes("good two")).ok());
  // b = 0: the writes land only on the preferred server 0.
  ASSERT_EQ(cluster.server(1).store().current(ItemId{1}), nullptr);

  std::vector<core::WriteRecord> records;
  for (const ItemId item : {ItemId{1}, ItemId{2}, ItemId{3}}) {
    const core::WriteRecord* record = cluster.server(0).store().current(item);
    ASSERT_NE(record, nullptr);
    records.push_back(*record);
  }
  records[1].signature[0] ^= 0x01;

  Writer w;
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const core::WriteRecord& record : records) {
    record.encode(w);
    w.u8(0);  // no origin trace context
  }
  const Bytes body = w.take();

  auto& received = cluster.registry().counter("gossip.records_received");
  auto& rejected = cluster.registry().counter("gossip.records_rejected");
  const std::uint64_t received_before = received.value();
  const std::uint64_t rejected_before = rejected.value();

  cluster.server(1).gossip().handle(NodeId{0}, net::MsgType::kGossipUpdates, body);

  const core::WriteRecord* good_one = cluster.server(1).store().current(ItemId{1});
  const core::WriteRecord* forged = cluster.server(1).store().current(ItemId{2});
  const core::WriteRecord* good_two = cluster.server(1).store().current(ItemId{3});
  ASSERT_NE(good_one, nullptr);
  EXPECT_EQ(to_string(good_one->value), "good one");
  EXPECT_EQ(forged, nullptr);
  ASSERT_NE(good_two, nullptr);
  EXPECT_EQ(to_string(good_two->value), "good two");
  EXPECT_EQ(received.value() - received_before, 3u);
  EXPECT_EQ(rejected.value() - rejected_before, 1u);
}

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
