// Integration tests for the single-writer secure store protocols: session
// management (Fig. 1), reads/writes (Fig. 2), context reconstruction,
// confidentiality and authorization — over the full simulated stack.
#include <gtest/gtest.h>

#include "core/sync.h"
#include "crypto/keys.h"
#include "testkit/cluster.h"

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
constexpr ItemId kX2{102};

GroupPolicy mrc_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

GroupPolicy cc_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kCC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

SecureStoreClient::Options client_options(const GroupPolicy& policy) {
  SecureStoreClient::Options options;
  options.policy = policy;
  return options;
}

TEST(SecureStore, WriteThenReadRoundtrip) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());

  ASSERT_TRUE(sync.connect(kGroup).ok());
  ASSERT_TRUE(sync.write(kX1, to_bytes("medical record v1")).ok());

  const auto result = sync.read_value(kX1);
  ASSERT_TRUE(result.ok()) << error_name(result.error());
  EXPECT_EQ(to_string(*result), "medical record v1");
}

TEST(SecureStore, ReadOfUnknownItemFails) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());

  const auto result = sync.read_value(ItemId{999});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), Error::kNotFound);
}

TEST(SecureStore, SuccessiveWritesAdvanceVersions) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());

  std::uint64_t last_time = 0;
  for (int version = 1; version <= 5; ++version) {
    ASSERT_TRUE(sync.write(kX1, to_bytes("v" + std::to_string(version))).ok());
    const auto result = sync.read(kX1);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(to_string(result->value), "v" + std::to_string(version));
    EXPECT_GT(result->ts.time, last_time);
    last_time = result->ts.time;
  }
}

TEST(SecureStore, SessionCycleCarriesContext) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  {
    auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
    SyncClient sync(*client, cluster.scheduler());
    ASSERT_TRUE(sync.connect(kGroup).ok());
    ASSERT_TRUE(sync.write(kX1, to_bytes("session-1 value")).ok());
    ASSERT_TRUE(sync.disconnect().ok());
  }

  // Let gossip spread the write everywhere before the next session.
  cluster.run_for(seconds(5));

  {
    auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
    SyncClient sync(*client, cluster.scheduler());
    ASSERT_TRUE(sync.connect(kGroup).ok());
    // The acquired context demands at least the session-1 timestamp.
    EXPECT_FALSE(client->context().get(kX1).is_zero());
    const auto result = sync.read_value(kX1);
    ASSERT_TRUE(result.ok()) << error_name(result.error());
    EXPECT_EQ(to_string(*result), "session-1 value");
  }
}

TEST(SecureStore, SingleWriterManyReaders) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto writer = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());
  ASSERT_TRUE(writer_sync.write(kX1, to_bytes("school newsletter #1")).ok());

  cluster.run_for(seconds(5));  // dissemination

  for (std::uint32_t reader_id = 2; reader_id <= 4; ++reader_id) {
    auto reader = cluster.make_client(ClientId{reader_id}, client_options(mrc_policy()));
    SyncClient reader_sync(*reader, cluster.scheduler());
    ASSERT_TRUE(reader_sync.connect(kGroup).ok());
    const auto result = reader_sync.read_value(kX1);
    ASSERT_TRUE(result.ok()) << "reader " << reader_id;
    EXPECT_EQ(to_string(*result), "school newsletter #1");
  }
}

TEST(SecureStore, MonotonicReadsAcrossStaleServers) {
  // A reader that has seen version 2 must never accept version 1 again,
  // even when the servers it prefers only hold version 1.
  ClusterOptions options;
  options.start_gossip = false;  // freeze dissemination: staleness persists
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto writer = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  writer->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());

  // v1 lands on servers {0,1}; v2 on servers {2,3} via changed preference.
  ASSERT_TRUE(writer_sync.write(kX1, to_bytes("v1")).ok());
  writer->set_server_preference({NodeId{2}, NodeId{3}, NodeId{0}, NodeId{1}});
  ASSERT_TRUE(writer_sync.write(kX1, to_bytes("v2")).ok());

  // Reader prefers the stale servers {0,1} but carries no context yet: MRC
  // allows v1 on first contact...
  auto reader = cluster.make_client(ClientId{2}, client_options(mrc_policy()));
  reader->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient reader_sync(*reader, cluster.scheduler());
  ASSERT_TRUE(reader_sync.connect(kGroup).ok());
  auto first = reader_sync.read_value(kX1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(to_string(*first), "v1");

  // ...then it reads from fresh servers and sees v2...
  reader->set_server_preference({NodeId{2}, NodeId{3}, NodeId{0}, NodeId{1}});
  auto second = reader_sync.read_value(kX1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(to_string(*second), "v2");

  // ...after which the stale servers can never drag it back to v1: the
  // read escalates past them and returns v2 again.
  reader->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  auto third = reader_sync.read_value(kX1);
  ASSERT_TRUE(third.ok()) << error_name(third.error());
  EXPECT_EQ(to_string(*third), "v2");
}

TEST(SecureStore, CausalConsistencyAcrossItems) {
  // C1 reads x1, writes x2 based on it. A client that reads C1's x2 must
  // not subsequently accept a pre-causal value of x1 — the CC context merge
  // forces escalation past servers that only have the old x1.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(cc_policy());

  // Writer A seeds x1=old everywhere, then x1=new on servers {2,3} only.
  auto writer = cluster.make_client(ClientId{1}, client_options(cc_policy()));
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());
  writer->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  ASSERT_TRUE(writer_sync.write(kX1, to_bytes("x1 old")).ok());
  cluster.run_for(seconds(1));
  writer->set_server_preference({NodeId{2}, NodeId{3}, NodeId{0}, NodeId{1}});
  ASSERT_TRUE(writer_sync.write(kX1, to_bytes("x1 new")).ok());
  // Write x2 after (and causally dependent on) x1=new; lands on {2,3}.
  ASSERT_TRUE(writer_sync.write(kX2, to_bytes("x2 derived from new x1")).ok());

  // Reader reads x2 from the fresh servers, then is pointed at the stale
  // ones for x1: CC must refuse "x1 old".
  auto reader = cluster.make_client(ClientId{2}, client_options(cc_policy()));
  SyncClient reader_sync(*reader, cluster.scheduler());
  ASSERT_TRUE(reader_sync.connect(kGroup).ok());
  reader->set_server_preference({NodeId{2}, NodeId{3}, NodeId{0}, NodeId{1}});
  auto x2 = reader_sync.read_value(kX2);
  ASSERT_TRUE(x2.ok());
  EXPECT_EQ(to_string(*x2), "x2 derived from new x1");

  reader->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  auto x1 = reader_sync.read_value(kX1);
  ASSERT_TRUE(x1.ok()) << error_name(x1.error());
  EXPECT_EQ(to_string(*x1), "x1 new");  // never "x1 old"
}

TEST(SecureStore, StaleEverywhereFailsInsteadOfRegressing) {
  // If no reachable server can satisfy the context, the read fails (kStale)
  // rather than returning an older value — Fig. 2's "contact additional
  // servers or try later".
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto writer = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());
  writer->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  ASSERT_TRUE(writer_sync.write(kX1, to_bytes("v1")).ok());

  // The writer's own context now demands v1's timestamp... simulate a
  // context demanding a FUTURE write by advancing it artificially.
  core::Timestamp future;
  future.time = writer->context().get(kX1).time + 1000;
  writer->mutable_context().set(kX1, future);

  auto result = writer_sync.read_value(kX1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), Error::kStale);
}

TEST(SecureStore, ContextReconstructionAfterCrash) {
  // Session 1 writes but never disconnects (client crash): the stored
  // context is missing, yet reconstruction from item meta-data recovers the
  // timestamps (§5.1's expensive path).
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  core::Timestamp written_ts;
  {
    auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
    SyncClient sync(*client, cluster.scheduler());
    ASSERT_TRUE(sync.connect(kGroup).ok());
    ASSERT_TRUE(sync.write(kX1, to_bytes("unsaved session")).ok());
    written_ts = client->context().get(kX1);
    // no disconnect: context never stored
  }

  cluster.run_for(seconds(5));

  auto recovered = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*recovered, cluster.scheduler());

  // A plain connect "succeeds" (quorum reached) but yields an empty context.
  ASSERT_TRUE(sync.connect(kGroup).ok());
  EXPECT_TRUE(recovered->context().get(kX1).is_zero());

  // Reconstruction recovers the lost timestamp from the servers' meta-data.
  ASSERT_TRUE(sync.reconstruct_context(kGroup).ok());
  EXPECT_EQ(recovered->context().get(kX1).time, written_ts.time);

  const auto result = sync.read_value(kX1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result), "unsaved session");
}

TEST(SecureStore, EncryptedValuesOpaqueToServers) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto options = client_options(mrc_policy());
  options.codec = std::make_shared<core::AeadValueCodec>(to_bytes("owner master key"),
                                                         Rng(99));
  auto client = cluster.make_client(ClientId{1}, options);
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());

  const std::string secret = "tax return 2026: total income ...";
  ASSERT_TRUE(sync.write(kX1, to_bytes(secret)).ok());

  // Every stored copy is ciphertext: the plaintext appears nowhere.
  cluster.run_for(seconds(5));
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    const core::WriteRecord* record = cluster.server(s).store().current(kX1);
    if (record == nullptr) continue;
    const std::string stored = to_string(record->value);
    EXPECT_EQ(stored.find("tax return"), std::string::npos) << "server " << s;
  }

  // The owner still reads it back.
  const auto result = sync.read_value(kX1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result), secret);

  // A reader without the key gets an authenticated-decryption failure, not
  // garbage.
  auto stranger = cluster.make_client(ClientId{2}, client_options(mrc_policy()));
  auto stranger_options = client_options(mrc_policy());
  stranger_options.codec =
      std::make_shared<core::AeadValueCodec>(to_bytes("wrong key"), Rng(100));
  auto stranger2 = cluster.make_client(ClientId{3}, stranger_options);
  SyncClient stranger_sync(*stranger2, cluster.scheduler());
  ASSERT_TRUE(stranger_sync.connect(kGroup).ok());
  const auto denied = stranger_sync.read_value(kX1);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error(), Error::kBadSignature);
}

TEST(SecureStore, RandomTimestampIncrementsStayMonotonic) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto options = client_options(mrc_policy());
  options.random_ts_increment = true;
  auto client = cluster.make_client(ClientId{1}, options);
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());

  std::uint64_t previous = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sync.write(kX1, to_bytes("v")).ok());
    const std::uint64_t current = client->context().get(kX1).time;
    EXPECT_GT(current, previous);
    previous = current;
  }
}

TEST(SecureStore, LargeValuesRoundtrip) {
  // Values the size of real documents (1 MB) flow through serialization,
  // signing (digest-based, so cost is one hash), dissemination and reads.
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());

  Rng rng(2024);
  const Bytes megabyte = rng.bytes(1024 * 1024);
  ASSERT_TRUE(sync.write(kX1, megabyte).ok());

  const auto result = sync.read_value(kX1);
  ASSERT_TRUE(result.ok()) << error_name(result.error());
  EXPECT_EQ(*result, megabyte);

  // And it disseminates intact.
  cluster.run_for(seconds(10));
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    const core::WriteRecord* record = cluster.server(s).store().current(kX1);
    ASSERT_NE(record, nullptr) << "server " << s;
    EXPECT_EQ(record->value.size(), megabyte.size());
  }
}

TEST(SecureStore, EmptyValueIsValid) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());
  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.write(kX1, Bytes{}).ok());
  const auto result = sync.read_value(kX1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(SecureStore, ListGroupEnumeratesItems) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());
  ASSERT_TRUE(sync.write(kX1, to_bytes("alpha")).ok());
  ASSERT_TRUE(sync.write(kX2, to_bytes("beta")).ok());
  cluster.run_for(seconds(5));

  const auto listing = sync.list_group(kGroup);
  ASSERT_TRUE(listing.ok()) << error_name(listing.error());
  ASSERT_EQ(listing->size(), 2u);
  EXPECT_EQ((*listing)[0].item, kX1);
  EXPECT_EQ((*listing)[1].item, kX2);
  EXPECT_EQ((*listing)[0].writer, ClientId{1});
  EXPECT_FALSE((*listing)[0].ts.is_zero());

  // Empty/unknown group lists empty.
  const auto empty = sync.list_group(GroupId{555});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(SecureStore, ReadRepairHealsLaggingServers) {
  ClusterOptions options;
  options.start_gossip = false;  // only read repair can spread data
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto writer_opts = client_options(mrc_policy());
  auto writer = cluster.make_client(ClientId{1}, writer_opts);
  writer->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.write(kX1, to_bytes("repair me")).ok());
  ASSERT_EQ(cluster.server(2).store().current(kX1), nullptr);
  ASSERT_EQ(cluster.server(3).store().current(kX1), nullptr);

  // A repairing reader that contacts a mixed fresh/stale set.
  auto reader_opts = client_options(mrc_policy());
  reader_opts.read_repair = true;
  auto reader = cluster.make_client(ClientId{2}, reader_opts);
  reader->set_server_preference({NodeId{0}, NodeId{2}, NodeId{1}, NodeId{3}});
  SyncClient reader_sync(*reader, cluster.scheduler());
  ASSERT_TRUE(reader_sync.read_value(kX1).ok());
  cluster.run_for(seconds(1));

  // Server 2 (contacted, lagging) was repaired; server 3 (never contacted)
  // was not.
  EXPECT_NE(cluster.server(2).store().current(kX1), nullptr);
  EXPECT_EQ(cluster.server(3).store().current(kX1), nullptr);
}

TEST(SecureStore, MidSimulationRestart) {
  ClusterOptions options;
  options.gossip.period = milliseconds(200);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());
  ASSERT_TRUE(sync.write(kX1, to_bytes("survives reboot")).ok());
  cluster.run_for(seconds(5));  // everywhere via gossip

  // Reboot with state: immediately serves the item again.
  cluster.restart_server(1, /*restore_state=*/true);
  ASSERT_NE(cluster.server(1).store().current(kX1), nullptr);

  // Reboot WITHOUT state (disk lost): empty at first, re-learns via gossip.
  cluster.restart_server(2, /*restore_state=*/false);
  EXPECT_EQ(cluster.server(2).store().current(kX1), nullptr);
  cluster.run_for(seconds(10));
  ASSERT_NE(cluster.server(2).store().current(kX1), nullptr);
  EXPECT_EQ(to_string(cluster.server(2).store().current(kX1)->value), "survives reboot");

  // The store kept working throughout.
  const auto result = sync.read_value(kX1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result), "survives reboot");
}

TEST(SecureStore, PeriodicSnapshotToDisk) {
  // A server configured with a snapshot path persists periodically; a new
  // server booted from that path has the data.
  const std::string path = "/tmp/securestore_server_snap_test.bin";
  std::remove(path.c_str());

  sim::Scheduler scheduler;
  net::SimTransport transport(scheduler, sim::NetworkModel(Rng(1), sim::lan_profile()));
  core::StoreConfig config;
  config.n = 1;
  config.b = 0;
  config.servers = {NodeId{0}};
  Rng rng(2);
  const crypto::KeyPair client_pair = crypto::KeyPair::generate(rng);
  config.client_keys[1] = client_pair.public_key;
  const crypto::KeyPair server_pair = crypto::KeyPair::generate(rng);
  config.server_keys[NodeId{0}] = server_pair.public_key;

  core::SecureStoreServer::Options server_options;
  server_options.start_gossip = false;
  server_options.snapshot_path = path;
  server_options.snapshot_period = seconds(1);

  {
    core::SecureStoreServer server(transport, NodeId{0}, config, server_pair,
                                   server_options, rng.fork());
    server.set_group_policy(mrc_policy());

    core::SecureStoreClient::Options client_opts;
    client_opts.policy = mrc_policy();
    core::SecureStoreClient client(transport, NodeId{1000}, ClientId{1}, client_pair,
                                   config, client_opts, rng.fork());
    core::SyncClient sync(client, scheduler);
    ASSERT_TRUE(sync.write(kX1, to_bytes("periodically persisted")).ok());
    scheduler.run_until(scheduler.now() + seconds(3));  // >= one snapshot tick
  }

  {
    core::SecureStoreServer rebooted(transport, NodeId{0}, config, server_pair,
                                     server_options, rng.fork());
    ASSERT_NE(rebooted.store().current(kX1), nullptr);
    EXPECT_EQ(to_string(rebooted.store().current(kX1)->value), "periodically persisted");
  }
  std::remove(path.c_str());
}

TEST(SecureStore, ServerRestartFromSnapshot) {
  // Long-term safe keeping (§1): a server's state survives restart via a
  // checksummed snapshot. Two clusters built from the same seed share the
  // key directory, so cluster B models "the same deployment, after reboot".
  ClusterOptions options;
  options.seed = 77;
  options.start_gossip = false;

  Bytes snapshot;
  {
    Cluster cluster(options);
    cluster.set_group_policy(mrc_policy());
    auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
    client->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
    SyncClient sync(*client, cluster.scheduler());
    ASSERT_TRUE(sync.connect(kGroup).ok());
    ASSERT_TRUE(sync.write(kX1, to_bytes("durable value")).ok());
    ASSERT_TRUE(sync.disconnect().ok());
    snapshot = cluster.server(0).snapshot();
  }

  {
    Cluster rebooted(options);
    rebooted.set_group_policy(mrc_policy());
    rebooted.server(0).restore(snapshot);

    const auto* record = rebooted.server(0).store().current(kX1);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(to_string(record->value), "durable value");

    // A client session reads the restored data (and acquires the restored
    // context) through the normal protocols.
    auto client = rebooted.make_client(ClientId{1}, client_options(mrc_policy()));
    client->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
    SyncClient sync(*client, rebooted.scheduler());
    ASSERT_TRUE(sync.connect(kGroup).ok());
    EXPECT_FALSE(client->context().get(kX1).is_zero());  // context restored too
    const auto result = sync.read_value(kX1);
    ASSERT_TRUE(result.ok()) << error_name(result.error());
    EXPECT_EQ(to_string(*result), "durable value");
  }
}

TEST(SecureStore, AuthorizationEnforced) {
  ClusterOptions options;
  options.require_auth = true;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  // Without a token, every server promptly rejects the write: no round
  // collects an ok ack, so after escalation the op fails with
  // kInsufficientQuorum, like any op whose servers all answer without a
  // quorum. A tight timeout keeps the test quick.
  auto no_token_options = client_options(mrc_policy());
  no_token_options.round_timeout = milliseconds(50);
  no_token_options.max_read_rounds = 2;
  auto intruder = cluster.make_client(ClientId{2}, no_token_options);
  SyncClient intruder_sync(*intruder, cluster.scheduler());
  ASSERT_TRUE(intruder_sync.connect(kGroup).ok());
  const auto sneak = intruder_sync.write(kX1, to_bytes("sneak"));
  ASSERT_FALSE(sneak.ok());
  EXPECT_EQ(sneak.error(), Error::kInsufficientQuorum) << error_name(sneak.error());

  // With a token, everything works.
  auto authorized_options = client_options(mrc_policy());
  authorized_options.token = cluster.issue_token(ClientId{1}, kGroup);
  auto member = cluster.make_client(ClientId{1}, authorized_options);
  SyncClient member_sync(*member, cluster.scheduler());
  ASSERT_TRUE(member_sync.connect(kGroup).ok());
  ASSERT_TRUE(member_sync.write(kX1, to_bytes("legit")).ok());
  const auto result = member_sync.read_value(kX1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result), "legit");

  // A read-only token cannot write.
  auto reader_options = client_options(mrc_policy());
  reader_options.token = cluster.issue_token(ClientId{3}, kGroup, core::Rights::kRead);
  reader_options.round_timeout = milliseconds(50);
  reader_options.max_read_rounds = 2;
  auto reader = cluster.make_client(ClientId{3}, reader_options);
  SyncClient reader_sync(*reader, cluster.scheduler());
  ASSERT_TRUE(reader_sync.connect(kGroup).ok());
  const auto overreach = reader_sync.write(kX1, to_bytes("overreach"));
  ASSERT_FALSE(overreach.ok());
  EXPECT_EQ(overreach.error(), Error::kInsufficientQuorum) << error_name(overreach.error());
  EXPECT_TRUE(reader_sync.read_value(kX1).ok());
}

TEST(SecureStore, WriteBatchGivesEachRecordItsOwnVerdict) {
  // Five kWrite requests reach server 0 in ONE delivery batch (same-instant
  // arrivals over a jitter-free link): an undecodable body, a record whose
  // value does not match its digest, a record with a bad signature and two
  // honest records. The undecodable one gets silence, the two bad records
  // a reject, the honest ones an ack; the bad-digest record is turned away
  // before the batch's one signature check, so it costs no verify.
  ClusterOptions options;
  options.start_gossip = false;
  options.link = sim::LinkProfile{milliseconds(1), 0, 0.0};
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());
  const crypto::KeyPair& writer = cluster.client_keys(ClientId{1});
  const auto write_body = [&](ItemId item, const char* value, auto&& spoil) {
    core::WriteReq req;
    req.record.item = item;
    req.record.group = kGroup;
    req.record.writer = ClientId{1};
    req.record.ts.time = 1;
    req.record.value = to_bytes(value);
    req.record.sign(writer);
    spoil(req.record);
    return req.serialize();
  };
  const auto honest = [](core::WriteRecord&) {};
  std::vector<Bytes> bodies;
  bodies.push_back(to_bytes("not a write request"));
  bodies.push_back(write_body(ItemId{1}, "digest", [](core::WriteRecord& record) {
    record.value = to_bytes("swapped after signing");
  }));
  bodies.push_back(write_body(ItemId{2}, "signature", [](core::WriteRecord& record) {
    record.signature[3] ^= 0x10;
  }));
  bodies.push_back(write_body(ItemId{3}, "honest one", honest));
  bodies.push_back(write_body(ItemId{4}, "honest two", honest));

  obs::Histogram& batch_size = cluster.registry().histogram("server.batch_size");
  const std::uint64_t batches_before = batch_size.count();
  const std::uint64_t verifies_before = crypto::CryptoMeter::instance().verifies;
  net::RpcNode probe(cluster.transport(), NodeId{9000});
  std::vector<std::optional<bool>> acks(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    probe.send_request(NodeId{0}, net::MsgType::kWrite, bodies[i],
                       [&acks, i](NodeId, net::MsgType type, BytesView body) {
                         EXPECT_EQ(type, net::MsgType::kWrite);
                         acks[i] = core::WriteResp::deserialize(body).ok;
                       });
  }
  cluster.run_for(milliseconds(50));

  EXPECT_EQ(batch_size.count() - batches_before, 1u);  // one delivery batch
  EXPECT_EQ(acks, (std::vector<std::optional<bool>>{std::nullopt, false, false, true, true}));
  // The bad-signature record and the two honest ones: one verify each.
  EXPECT_EQ(crypto::CryptoMeter::instance().verifies - verifies_before, 3u);
  EXPECT_EQ(cluster.server(0).store().current(ItemId{1}), nullptr);
  EXPECT_EQ(cluster.server(0).store().current(ItemId{2}), nullptr);
  EXPECT_NE(cluster.server(0).store().current(ItemId{3}), nullptr);
  EXPECT_NE(cluster.server(0).store().current(ItemId{4}), nullptr);
}

}  // namespace
}  // namespace securestore
