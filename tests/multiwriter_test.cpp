// Integration tests for the multi-writer protocols (§5.3): 3-tuple
// timestamps, 2b+1 quorums with b+1-matching reads, causal holds against
// the spurious-context DoS, equivocation detection, stability-certificate
// log pruning.
#include <gtest/gtest.h>

#include "core/sync.h"
#include "faults/malicious_client.h"
#include "testkit/cluster.h"

namespace securestore {
namespace {

using core::ClientTrust;
using core::ConsistencyModel;
using core::GroupPolicy;
using core::SecureStoreClient;
using core::SharingMode;
using core::SyncClient;
using testkit::Cluster;
using testkit::ClusterOptions;

constexpr GroupId kGroup{7};
constexpr ItemId kPlan{201};
constexpr ItemId kBudget{202};

GroupPolicy honest_policy(ConsistencyModel model = ConsistencyModel::kCC) {
  return GroupPolicy{kGroup, model, SharingMode::kMultiWriter, ClientTrust::kHonest};
}

GroupPolicy byzantine_policy(ConsistencyModel model = ConsistencyModel::kCC) {
  return GroupPolicy{kGroup, model, SharingMode::kMultiWriter, ClientTrust::kByzantine};
}

SecureStoreClient::Options client_options(const GroupPolicy& policy) {
  SecureStoreClient::Options options;
  options.policy = policy;
  return options;
}

TEST(MultiWriter, TwoHonestWritersConverge) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(honest_policy());

  auto alice = cluster.make_client(ClientId{1}, client_options(honest_policy()));
  auto bob = cluster.make_client(ClientId{2}, client_options(honest_policy()));
  SyncClient alice_sync(*alice, cluster.scheduler());
  SyncClient bob_sync(*bob, cluster.scheduler());

  ASSERT_TRUE(alice_sync.connect(kGroup).ok());
  ASSERT_TRUE(bob_sync.connect(kGroup).ok());

  ASSERT_TRUE(alice_sync.write(kPlan, to_bytes("alice draft")).ok());
  cluster.run_for(seconds(2));
  ASSERT_TRUE(bob_sync.write(kPlan, to_bytes("bob revision")).ok());
  cluster.run_for(seconds(2));

  // Both eventually read the same newest value; order is by (time, uid).
  const auto alice_view = alice_sync.read(kPlan);
  const auto bob_view = bob_sync.read(kPlan);
  ASSERT_TRUE(alice_view.ok()) << error_name(alice_view.error());
  ASSERT_TRUE(bob_view.ok());
  EXPECT_EQ(to_string(alice_view->value), "bob revision");
  EXPECT_EQ(to_string(bob_view->value), "bob revision");
  EXPECT_EQ(alice_view->writer, ClientId{2});
}

TEST(MultiWriter, ConcurrentSameTimeOrderedByUid) {
  // Two writers producing the same `time` must still be totally ordered:
  // the uid breaks the tie deterministically.
  core::Timestamp a{10, ClientId{1}, to_bytes("da")};
  core::Timestamp b{10, ClientId{2}, to_bytes("db")};
  EXPECT_LT(a, b);
  EXPECT_FALSE(a.equivocates(b));

  core::Timestamp c{10, ClientId{1}, to_bytes("different")};
  EXPECT_TRUE(a.equivocates(c));
}

TEST(MultiWriter, ByzantineModeRoundtrip) {
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(byzantine_policy());

  auto writer = cluster.make_client(ClientId{1}, client_options(byzantine_policy()));
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());
  ASSERT_TRUE(writer_sync.write(kPlan, to_bytes("community plan v1")).ok());

  // Reads go to 2b+1 servers; the write reached 2b+1, so at least b+1
  // overlap and agree immediately.
  auto reader = cluster.make_client(ClientId{2}, client_options(byzantine_policy()));
  SyncClient reader_sync(*reader, cluster.scheduler());
  ASSERT_TRUE(reader_sync.connect(kGroup).ok());
  const auto result = reader_sync.read_value(kPlan);
  ASSERT_TRUE(result.ok()) << error_name(result.error());
  EXPECT_EQ(to_string(*result), "community plan v1");
}

TEST(MultiWriter, SpuriousContextWriteIsNeverReported) {
  // The §5.3 DoS: a malicious client writes a value whose context claims a
  // dependency on a phantom write with an absurd timestamp. Honest servers
  // hold the write; honest readers never see it and are not poisoned.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(byzantine_policy());

  faults::MaliciousClient attacker(cluster.transport(), NodeId{2000}, ClientId{4},
                                   cluster.client_keys(ClientId{4}), cluster.config(),
                                   byzantine_policy());
  attacker.send_spurious_context_write(kPlan, to_bytes("poisoned plan"), kBudget,
                                       /*spurious_time=*/1'000'000'000,
                                       /*fanout=*/cluster.server_count());
  cluster.run_for(seconds(1));

  // Every server parked the write in its hold queue; none reports it.
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    EXPECT_EQ(cluster.server(s).held_writes(), 1u) << "server " << s;
    EXPECT_EQ(cluster.server(s).store().current(kPlan), nullptr) << "server " << s;
  }

  // An honest reader: item simply does not exist.
  auto reader_options = client_options(byzantine_policy());
  reader_options.round_timeout = milliseconds(100);
  reader_options.max_read_rounds = 2;
  auto reader = cluster.make_client(ClientId{2}, reader_options);
  SyncClient reader_sync(*reader, cluster.scheduler());
  ASSERT_TRUE(reader_sync.connect(kGroup).ok());
  const auto result = reader_sync.read_value(kPlan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), Error::kNotFound);
  // And crucially, the reader's context was NOT poisoned with the phantom
  // timestamp.
  EXPECT_TRUE(reader->context().get(kBudget).is_zero());

  // Honest clients continue to work on the same item unharmed.
  auto writer = cluster.make_client(ClientId{1}, client_options(byzantine_policy()));
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());
  ASSERT_TRUE(writer_sync.write(kPlan, to_bytes("honest plan")).ok());
  const auto after = reader_sync.read_value(kPlan);
  ASSERT_TRUE(after.ok()) << error_name(after.error());
  EXPECT_EQ(to_string(*after), "honest plan");
}

TEST(MultiWriter, HeldWriteReleasedWhenDependencyArrives) {
  // A write with a *real* dependency is held until that dependency
  // disseminates, then released transitively.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(byzantine_policy());

  // Writer 1 writes the dependency x_budget but only servers {0,1,2} see it
  // (2b+1 = 3 of 4).
  auto writer1 = cluster.make_client(ClientId{1}, client_options(byzantine_policy()));
  writer1->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient writer1_sync(*writer1, cluster.scheduler());
  ASSERT_TRUE(writer1_sync.connect(kGroup).ok());
  ASSERT_TRUE(writer1_sync.write(kBudget, to_bytes("budget v1")).ok());

  // Writer 2 reads the budget (gaining the causal dependency), then writes
  // the plan — but targets server {3} among others, which lacks the budget.
  auto writer2 = cluster.make_client(ClientId{2}, client_options(byzantine_policy()));
  writer2->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient writer2_sync(*writer2, cluster.scheduler());
  ASSERT_TRUE(writer2_sync.connect(kGroup).ok());
  ASSERT_TRUE(writer2_sync.read_value(kBudget).ok());
  writer2->set_server_preference({NodeId{3}, NodeId{0}, NodeId{1}, NodeId{2}});
  ASSERT_TRUE(writer2_sync.write(kPlan, to_bytes("plan based on budget")).ok());

  // Server 3 holds the plan (missing dependency); servers 0-1 applied it.
  EXPECT_EQ(cluster.server(3).held_writes(), 1u);
  EXPECT_EQ(cluster.server(3).store().current(kPlan), nullptr);
  EXPECT_NE(cluster.server(0).store().current(kPlan), nullptr);

  // Start dissemination: the budget reaches server 3 and unblocks the plan.
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    cluster.server(s).gossip().start();
  }
  cluster.run_for(seconds(5));
  EXPECT_EQ(cluster.server(3).held_writes(), 0u);
  ASSERT_NE(cluster.server(3).store().current(kPlan), nullptr);
  EXPECT_EQ(to_string(cluster.server(3).store().current(kPlan)->value),
            "plan based on budget");
}

TEST(MultiWriter, EquivocatingWriterIsFlaggedToReaders) {
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(byzantine_policy());

  faults::MaliciousClient attacker(cluster.transport(), NodeId{2000}, ClientId{4},
                                   cluster.client_keys(ClientId{4}), cluster.config(),
                                   byzantine_policy());
  attacker.send_equivocating_writes(kPlan, to_bytes("tell alice A"),
                                    to_bytes("tell bob B"), /*time=*/42,
                                    /*fanout=*/cluster.server_count());
  cluster.run_for(seconds(1));

  // Servers stored one of the two and flagged the writer on the second.
  std::size_t flagged = 0;
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    if (cluster.server(s).store().flagged_faulty(kPlan)) ++flagged;
  }
  EXPECT_EQ(flagged, cluster.server_count());

  auto reader = cluster.make_client(ClientId{2}, client_options(byzantine_policy()));
  SyncClient reader_sync(*reader, cluster.scheduler());
  ASSERT_TRUE(reader_sync.connect(kGroup).ok());
  const auto result = reader_sync.read_value(kPlan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), Error::kFaultyWriter);
}

TEST(MultiWriter, ForgedWriterIdentityRejectedEverywhere) {
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(byzantine_policy());

  faults::MaliciousClient attacker(cluster.transport(), NodeId{2000}, ClientId{4},
                                   cluster.client_keys(ClientId{4}), cluster.config(),
                                   byzantine_policy());
  attacker.send_forged_writer_write(kPlan, to_bytes("impersonated"), ClientId{1},
                                    /*fanout=*/cluster.server_count());
  cluster.run_for(seconds(1));

  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    EXPECT_EQ(cluster.server(s).store().current(kPlan), nullptr) << "server " << s;
    EXPECT_EQ(cluster.server(s).held_writes(), 0u) << "server " << s;
  }
}

TEST(MultiWriter, StabilityCertificatesPruneLogs) {
  ClusterOptions options;
  options.n = 4;
  options.b = 1;
  Cluster cluster(options);
  cluster.set_group_policy(byzantine_policy());

  auto gc_options = client_options(byzantine_policy());
  gc_options.stability_gc = true;
  auto writer = cluster.make_client(ClientId{1}, gc_options);
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());

  for (int version = 0; version < 10; ++version) {
    ASSERT_TRUE(writer_sync.write(kPlan, to_bytes("v" + std::to_string(version))).ok());
    cluster.run_for(milliseconds(500));  // let stability notices land
  }
  cluster.run_for(seconds(2));

  // With GC on, superseded entries are pruned as each write stabilizes:
  // logs stay near-empty instead of growing toward max_log_entries.
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    EXPECT_LE(cluster.server(s).store().total_log_entries(), 2u) << "server " << s;
  }

  // Control: with GC off, the log retains history.
  Cluster control(options);
  control.set_group_policy(byzantine_policy());
  auto no_gc_options = client_options(byzantine_policy());
  no_gc_options.stability_gc = false;
  auto writer2 = control.make_client(ClientId{1}, no_gc_options);
  SyncClient writer2_sync(*writer2, control.scheduler());
  ASSERT_TRUE(writer2_sync.connect(kGroup).ok());
  for (int version = 0; version < 10; ++version) {
    ASSERT_TRUE(writer2_sync.write(kPlan, to_bytes("v" + std::to_string(version))).ok());
    control.run_for(milliseconds(500));
  }
  std::size_t max_entries = 0;
  for (std::size_t s = 0; s < control.server_count(); ++s) {
    max_entries = std::max(max_entries, control.server(s).store().total_log_entries());
  }
  EXPECT_GE(max_entries, 5u);
}

TEST(MultiWriter, ReaderPicksCommonValueWhileNewestDisseminates) {
  // §5.3's reason for logs: "a value being over-written is still available
  // while the new value is being disseminated". With the newest value on
  // only one server of the read quorum, the reader falls back to the older
  // value that b+1 servers agree on.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(byzantine_policy());

  auto writer = cluster.make_client(ClientId{1}, client_options(byzantine_policy()));
  writer->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());
  ASSERT_TRUE(writer_sync.write(kPlan, to_bytes("stable v1")).ok());

  // Inject v2 at ONE server only (below the write quorum — as if the
  // writer crashed mid-write): readers must not accept it.
  {
    core::WriteRecord v2;
    v2.item = kPlan;
    v2.group = kGroup;
    v2.model = ConsistencyModel::kCC;
    v2.writer = ClientId{1};
    v2.value = to_bytes("half-written v2");
    v2.value_digest = crypto::meter_digest(v2.value);
    v2.ts = core::Timestamp{writer->context().get(kPlan).time + 1, ClientId{1},
                            v2.value_digest};
    v2.writer_context = core::Context(kGroup);
    v2.sign(cluster.client_keys(ClientId{1}));

    core::WriteReq req;
    req.record = v2;
    net::RpcNode injector(cluster.transport(), NodeId{3000});
    injector.send_request(NodeId{0}, net::MsgType::kWrite, req.serialize(),
                          [](NodeId, net::MsgType, BytesView) {});
    cluster.run_for(seconds(1));
  }

  auto reader = cluster.make_client(ClientId{2}, client_options(byzantine_policy()));
  reader->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient reader_sync(*reader, cluster.scheduler());
  ASSERT_TRUE(reader_sync.connect(kGroup).ok());
  const auto result = reader_sync.read_value(kPlan);
  ASSERT_TRUE(result.ok()) << error_name(result.error());
  EXPECT_EQ(to_string(*result), "stable v1");  // the b+1-agreed value
}

}  // namespace
}  // namespace securestore
