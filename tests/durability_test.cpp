// Durability subsystem: write-ahead log unit tests (append/replay, torn and
// corrupt tails, rotation, snapshot-coordinated truncation) and server-level
// crash recovery — kill a server mid-workload after snapshot + further acked
// writes, restart from snapshot+WAL, and every acked write is served again.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/sync.h"
#include "net/sim_transport.h"
#include "faults/malicious_client.h"
#include "storage/snapshot.h"
#include "storage/wal/wal.h"
#include "testkit/cluster.h"
#include "util/crc32.h"

namespace securestore {
namespace {

namespace fs = std::filesystem;
using core::ConsistencyModel;
using core::GroupPolicy;
using core::SecureStoreClient;
using core::SecureStoreServer;
using core::SharingMode;
using core::SyncClient;
using storage::FsyncPolicy;
using storage::WalEntryType;
using storage::WalOptions;
using storage::WriteAheadLog;
using testkit::Cluster;
using testkit::ClusterOptions;

constexpr GroupId kGroup{1};

/// A unique, self-cleaning scratch directory per test.
struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "securestore_dur_XXXXXX").string();
    path = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

GroupPolicy mrc_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

GroupPolicy multiwriter_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kCC, SharingMode::kMultiWriter,
                     core::ClientTrust::kByzantine};
}

SecureStoreClient::Options client_options(const GroupPolicy& policy) {
  SecureStoreClient::Options options;
  options.policy = policy;
  return options;
}

/// The newest (and by construction only) WAL segment file in `dir`.
std::string last_segment(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  EXPECT_FALSE(files.empty());
  std::sort(files.begin(), files.end());
  return files.back();
}

void flip_last_byte(const std::string& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const auto size = file.tellg();
  ASSERT_GT(size, 0);
  file.seekg(-1, std::ios::end);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(-1, std::ios::end);
  file.write(&byte, 1);
}

void append_garbage(const std::string& path, std::size_t count) {
  std::ofstream file(path, std::ios::binary | std::ios::app);
  for (std::size_t i = 0; i < count; ++i) file.put(static_cast<char>(0xA5));
}

// ---------------------------------------------------------------------------
// WriteAheadLog unit tests
// ---------------------------------------------------------------------------

TEST(Wal, AppendReplayRoundtrip) {
  TempDir dir;
  std::vector<std::pair<WalEntryType, std::string>> written = {
      {WalEntryType::kWrite, "alpha"},
      {WalEntryType::kContext, "beta"},
      {WalEntryType::kRelease, "a-much-longer-payload-with-structure"},
      {WalEntryType::kWrite, ""},
  };
  {
    WriteAheadLog wal({dir.path, FsyncPolicy::kAlways, 1u << 20});
    std::uint64_t expected = 1;
    for (const auto& [type, payload] : written) {
      const std::uint64_t lsn = wal.append(type, to_bytes(payload));
      EXPECT_EQ(lsn, expected++);
      EXPECT_EQ(wal.synced_lsn(), lsn - 1);  // appending does not commit
      wal.sync();
      EXPECT_EQ(wal.synced_lsn(), lsn);
    }
    EXPECT_EQ(wal.last_lsn(), written.size());
    EXPECT_EQ(wal.stats().appends, written.size());
    EXPECT_GE(wal.stats().fsyncs, written.size());  // kAlways: one per commit
  }

  WriteAheadLog reopened({dir.path, FsyncPolicy::kAlways, 1u << 20});
  EXPECT_EQ(reopened.last_lsn(), written.size());
  std::vector<std::pair<WalEntryType, std::string>> replayed;
  std::uint64_t last_seen = 0;
  reopened.replay(0, [&](std::uint64_t lsn, WalEntryType type, BytesView payload) {
    EXPECT_EQ(lsn, last_seen + 1);
    last_seen = lsn;
    replayed.emplace_back(type, to_string(payload));
  });
  EXPECT_EQ(replayed, written);
  EXPECT_EQ(reopened.stats().replayed_entries, written.size());
  EXPECT_EQ(reopened.stats().truncated_tail_bytes, 0u);
}

TEST(Wal, ReplayAfterLsnFilters) {
  TempDir dir;
  WriteAheadLog wal({dir.path, FsyncPolicy::kNever, 1u << 20});
  for (int i = 1; i <= 6; ++i) wal.append(WalEntryType::kWrite, to_bytes(std::to_string(i)));
  std::vector<std::string> seen;
  wal.replay(4, [&](std::uint64_t, WalEntryType, BytesView payload) {
    seen.push_back(to_string(payload));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"5", "6"}));
}

TEST(Wal, TornTailTruncatedNotFatal) {
  TempDir dir;
  {
    WriteAheadLog wal({dir.path, FsyncPolicy::kAlways, 1u << 20});
    for (int i = 1; i <= 5; ++i) {
      wal.append(WalEntryType::kWrite, to_bytes("entry " + std::to_string(i)));
    }
  }
  // A crash mid-write leaves a partial frame at the tail.
  append_garbage(last_segment(dir.path), 11);

  WriteAheadLog recovered({dir.path, FsyncPolicy::kAlways, 1u << 20});
  EXPECT_EQ(recovered.last_lsn(), 5u);
  EXPECT_EQ(recovered.stats().truncated_tail_bytes, 11u);
  std::size_t count = 0;
  recovered.replay(0, [&](std::uint64_t, WalEntryType, BytesView) { ++count; });
  EXPECT_EQ(count, 5u);
  // The log stays appendable after truncation.
  EXPECT_EQ(recovered.append(WalEntryType::kWrite, to_bytes("after")), 6u);
}

TEST(Wal, CorruptFrameTruncatesFromThere) {
  TempDir dir;
  {
    WriteAheadLog wal({dir.path, FsyncPolicy::kAlways, 1u << 20});
    for (int i = 1; i <= 5; ++i) {
      wal.append(WalEntryType::kWrite, to_bytes("entry " + std::to_string(i)));
    }
  }
  // Bit rot inside the LAST frame's payload: its CRC fails; entries before
  // the corruption point survive untouched.
  flip_last_byte(last_segment(dir.path));

  WriteAheadLog recovered({dir.path, FsyncPolicy::kAlways, 1u << 20});
  EXPECT_EQ(recovered.last_lsn(), 4u);
  EXPECT_GT(recovered.stats().truncated_tail_bytes, 0u);
  std::vector<std::string> seen;
  recovered.replay(0, [&](std::uint64_t, WalEntryType, BytesView payload) {
    seen.push_back(to_string(payload));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"entry 1", "entry 2", "entry 3", "entry 4"}));
}

TEST(Wal, RotationAndSnapshotTruncation) {
  TempDir dir;
  WriteAheadLog wal({dir.path, FsyncPolicy::kNever, /*segment_bytes=*/128});
  for (int i = 1; i <= 40; ++i) {
    wal.append(WalEntryType::kWrite, to_bytes("payload-" + std::to_string(i)));
  }
  EXPECT_GT(wal.stats().rotations, 0u);
  EXPECT_GT(wal.segment_count(), 1u);
  const std::size_t segments_before = wal.segment_count();

  // A snapshot covering everything lets every dead segment go; the active
  // one always survives.
  const std::size_t removed = wal.truncate_up_to(wal.last_lsn());
  EXPECT_EQ(removed, segments_before - 1);
  EXPECT_EQ(wal.segment_count(), 1u);
  EXPECT_EQ(wal.stats().segments_removed, removed);

  // Appends continue with monotone LSNs after truncation.
  EXPECT_EQ(wal.append(WalEntryType::kWrite, to_bytes("post")), 41u);
}

TEST(Wal, ReopenAfterTruncationKeepsTail) {
  TempDir dir;
  std::uint64_t last = 0;
  {
    WriteAheadLog wal({dir.path, FsyncPolicy::kAlways, /*segment_bytes=*/128});
    for (int i = 1; i <= 20; ++i) {
      last = wal.append(WalEntryType::kWrite, to_bytes("v" + std::to_string(i)));
    }
    wal.truncate_up_to(10);  // as if a snapshot covered LSN 10
  }
  WriteAheadLog reopened({dir.path, FsyncPolicy::kAlways, 128});
  EXPECT_EQ(reopened.last_lsn(), last);
  std::uint64_t first_replayed = 0;
  reopened.replay(10, [&](std::uint64_t lsn, WalEntryType, BytesView) {
    if (first_replayed == 0) first_replayed = lsn;
  });
  EXPECT_EQ(first_replayed, 11u);
}

TEST(Wal, ReserveThroughSkipsCoveredLsns) {
  TempDir dir;
  {
    WriteAheadLog wal({dir.path, FsyncPolicy::kAlways, 1u << 20});
    wal.reserve_through(100);  // snapshot covered LSN 100; WAL dir was lost
    EXPECT_EQ(wal.append(WalEntryType::kWrite, to_bytes("fresh")), 101u);
  }
  WriteAheadLog reopened({dir.path, FsyncPolicy::kAlways, 1u << 20});
  EXPECT_EQ(reopened.last_lsn(), 101u);
  std::size_t replayed = 0;
  reopened.replay(100, [&](std::uint64_t, WalEntryType, BytesView) { ++replayed; });
  EXPECT_EQ(replayed, 1u);
}

TEST(Wal, OneSyncCommitsEveryPendingAppend) {
  TempDir dir;
  WriteAheadLog wal({dir.path, FsyncPolicy::kAlways, 1u << 20});
  const std::uint64_t fsyncs_at_open = wal.stats().fsyncs;  // segment + directory
  EXPECT_FALSE(wal.has_unsynced());
  for (int i = 1; i <= 5; ++i) wal.append(WalEntryType::kWrite, to_bytes(std::to_string(i)));
  EXPECT_EQ(wal.stats().fsyncs, fsyncs_at_open);  // appends only write
  EXPECT_TRUE(wal.has_unsynced());
  EXPECT_EQ(wal.synced_lsn(), 0u);

  wal.sync();  // the group commit: one fsync covers all five
  EXPECT_EQ(wal.stats().fsyncs, fsyncs_at_open + 1);
  EXPECT_EQ(wal.synced_lsn(), 5u);
  EXPECT_FALSE(wal.has_unsynced());
  wal.sync();  // nothing pending: no fsync
  EXPECT_EQ(wal.stats().fsyncs, fsyncs_at_open + 1);

  // Reserving ahead of a clean log leaves nothing to commit.
  wal.reserve_through(100);
  EXPECT_FALSE(wal.has_unsynced());
  EXPECT_EQ(wal.append(WalEntryType::kWrite, to_bytes("next")), 101u);
  EXPECT_EQ(wal.synced_lsn(), 100u);
}

TEST(Wal, OpenReplaysInTheValidatingPass) {
  TempDir dir;
  {
    WriteAheadLog wal({dir.path, FsyncPolicy::kAlways, /*segment_bytes=*/128});
    for (int i = 1; i <= 12; ++i) {
      wal.append(WalEntryType::kWrite, to_bytes("entry " + std::to_string(i)));
    }
    ASSERT_GT(wal.segment_count(), 1u);
  }
  append_garbage(last_segment(dir.path), 7);

  // One pass: open validates, truncates the torn tail and replays the
  // entries past the cut-off as it checks them.
  std::vector<std::string> seen;
  WriteAheadLog recovered({dir.path, FsyncPolicy::kAlways, 128}, /*replay_after=*/9,
                          [&](std::uint64_t lsn, WalEntryType type, BytesView payload) {
                            EXPECT_EQ(type, WalEntryType::kWrite);
                            EXPECT_EQ(to_string(payload), "entry " + std::to_string(lsn));
                            seen.push_back(to_string(payload));
                          });
  EXPECT_EQ(seen, (std::vector<std::string>{"entry 10", "entry 11", "entry 12"}));
  EXPECT_EQ(recovered.stats().replayed_entries, 3u);
  EXPECT_EQ(recovered.stats().truncated_tail_bytes, 7u);
  EXPECT_EQ(recovered.last_lsn(), 12u);
  EXPECT_EQ(recovered.synced_lsn(), 12u);
  EXPECT_EQ(recovered.append(WalEntryType::kWrite, to_bytes("after")), 13u);
}

// ---------------------------------------------------------------------------
// Server-level crash recovery
// ---------------------------------------------------------------------------

ClusterOptions durable_options(const std::string& dir) {
  ClusterOptions options;
  options.durability_dir = dir;
  options.fsync = FsyncPolicy::kAlways;
  options.snapshot_period = seconds(100000);  // only explicit snapshots
  options.gossip.period = milliseconds(200);
  return options;
}

TEST(CrashRecovery, ServesEveryAckedWriteAfterSnapshotPlusWal) {
  TempDir dir;
  ClusterOptions options = durable_options(dir.path);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());

  // Phase 1: acked writes, disseminated everywhere, then a snapshot.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(sync.write(ItemId{i}, to_bytes("pre-snapshot " + std::to_string(i))).ok());
  }
  cluster.run_for(seconds(5));  // gossip spreads to every server
  cluster.server(1).save_snapshot_now();

  // Phase 2: more acked writes that exist only in the WAL tail.
  for (std::uint64_t i = 4; i <= 6; ++i) {
    ASSERT_TRUE(sync.write(ItemId{i}, to_bytes("post-snapshot " + std::to_string(i))).ok());
  }
  cluster.run_for(seconds(5));
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_NE(cluster.server(1).store().current(ItemId{i}), nullptr) << "item " << i;
  }
  const std::size_t audit_before = cluster.server(1).audit_log().size();

  // Crash: the dying server saves nothing; recovery is snapshot + WAL.
  cluster.restart_server(1, /*restore_state=*/true);

  for (std::uint64_t i = 1; i <= 6; ++i) {
    const auto* record = cluster.server(1).store().current(ItemId{i});
    ASSERT_NE(record, nullptr) << "item " << i << " lost in crash";
    const std::string expect =
        (i <= 3 ? "pre-snapshot " : "post-snapshot ") + std::to_string(i);
    EXPECT_EQ(to_string(record->value), expect);
  }
  // The WAL tail really was replayed (phase-2 writes were not in the snapshot).
  ASSERT_NE(cluster.server(1).wal_stats(), nullptr);
  EXPECT_GE(cluster.server(1).wal_stats()->replayed_entries, 3u);
  // The audit chain grew back to cover every accepted write.
  EXPECT_EQ(cluster.server(1).audit_log().size(), audit_before);
  EXPECT_TRUE(cluster.server(1).audit_log().verify());

  // And the store as a whole still serves reads.
  const auto result = sync.read_value(ItemId{5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result), "post-snapshot 5");
}

TEST(CrashRecovery, TornWalTailLosesOnlyTheTornFrame) {
  TempDir dir;
  ClusterOptions options = durable_options(dir.path);
  options.n = 4;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  client->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(sync.write(ItemId{i}, to_bytes("w" + std::to_string(i))).ok());
  }
  cluster.run_for(seconds(5));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_NE(cluster.server(0).store().current(ItemId{i}), nullptr);
  }

  // Corrupt the newest frame of server 0's WAL while it is down — a torn
  // write at the moment of the crash.
  const std::string wal_dir = cluster.server_disk_dir(0) + "/wal";
  cluster.restart_server(0, /*restore_state=*/true);  // cycle once: clean state on disk
  flip_last_byte(last_segment(wal_dir));
  cluster.restart_server(0, /*restore_state=*/true);

  ASSERT_NE(cluster.server(0).wal_stats(), nullptr);
  EXPECT_GT(cluster.server(0).wal_stats()->truncated_tail_bytes, 0u);
  // Everything before the corruption point survived.
  std::size_t present = 0;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    if (cluster.server(0).store().current(ItemId{i}) != nullptr) ++present;
  }
  EXPECT_GE(present, 4u);
  // Gossip anti-entropy repairs the lost tail from honest peers.
  cluster.run_for(seconds(10));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_NE(cluster.server(0).store().current(ItemId{i}), nullptr) << "item " << i;
  }
}

TEST(CrashRecovery, CorruptSnapshotQuarantinedAndWalReplayed) {
  TempDir dir;
  ClusterOptions options = durable_options(dir.path);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());
  ASSERT_TRUE(sync.write(ItemId{1}, to_bytes("only in the wal")).ok());
  cluster.run_for(seconds(5));
  ASSERT_NE(cluster.server(2).store().current(ItemId{1}), nullptr);

  // A corrupt snapshot file must not kill the booting server: quarantined,
  // logged, and the WAL still replays every acked write.
  const std::string snapshot_path = cluster.server_disk_dir(2) + "/snapshot.bin";
  {
    std::ofstream garbage(snapshot_path, std::ios::binary | std::ios::trunc);
    garbage << "this is not a snapshot";
  }
  cluster.restart_server(2, /*restore_state=*/true);

  EXPECT_TRUE(fs::exists(snapshot_path + ".corrupt"));
  EXPECT_FALSE(fs::exists(snapshot_path));
  const auto* record = cluster.server(2).store().current(ItemId{1});
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(to_string(record->value), "only in the wal");
}

TEST(CrashRecovery, AmnesiacRestartWipesDisk) {
  TempDir dir;
  ClusterOptions options = durable_options(dir.path);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());
  ASSERT_TRUE(sync.write(ItemId{1}, to_bytes("forgettable")).ok());
  cluster.run_for(seconds(5));
  ASSERT_NE(cluster.server(1).store().current(ItemId{1}), nullptr);

  cluster.restart_server(1, /*restore_state=*/false);
  EXPECT_EQ(cluster.server(1).store().current(ItemId{1}), nullptr);
  // ... and gossip re-teaches it, as for any fresh replica.
  cluster.run_for(seconds(10));
  EXPECT_NE(cluster.server(1).store().current(ItemId{1}), nullptr);
}

TEST(CrashRecovery, EquivocationFlagSurvivesCrashReplay) {
  TempDir dir;
  ClusterOptions options = durable_options(dir.path);
  Cluster cluster(options);
  cluster.set_group_policy(multiwriter_policy());

  // An equivocating writer hits every server with two values under one
  // timestamp; servers flag the item.
  faults::MaliciousClient attacker(cluster.transport(), NodeId{2000}, ClientId{2},
                                   cluster.client_keys(ClientId{2}), cluster.config(),
                                   multiwriter_policy());
  attacker.send_equivocating_writes(ItemId{7}, to_bytes("tell alice A"),
                                    to_bytes("tell bob B"), /*time=*/42,
                                    /*fanout=*/cluster.server_count());
  cluster.run_for(seconds(2));
  ASSERT_TRUE(cluster.server(0).store().flagged_faulty(ItemId{7}));

  // Crash + WAL replay: both conflicting records replay, the flag re-derives.
  cluster.restart_server(0, /*restore_state=*/true);
  EXPECT_TRUE(cluster.server(0).store().flagged_faulty(ItemId{7}));

  // Snapshot → crash: the exposing record is gone from the store, so the
  // snapshot must carry the flag explicitly (v2 flagged-items list).
  cluster.server(0).save_snapshot_now();
  cluster.restart_server(0, /*restore_state=*/true);
  EXPECT_TRUE(cluster.server(0).store().flagged_faulty(ItemId{7}));
}

TEST(CrashRecovery, SnapshotTruncatesWalSegments) {
  TempDir dir;
  ClusterOptions options = durable_options(dir.path);
  options.wal_segment_bytes = 1024;  // rotate often
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options(mrc_policy()));
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());
  for (std::uint64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(sync.write(ItemId{i}, to_bytes(std::string(200, 'x'))).ok());
  }
  cluster.run_for(seconds(5));

  auto* wal = cluster.server(1).wal();
  ASSERT_NE(wal, nullptr);
  ASSERT_GT(wal->segment_count(), 1u);

  cluster.server(1).save_snapshot_now();
  EXPECT_EQ(wal->segment_count(), 1u);
  EXPECT_GT(wal->stats().segments_removed, 0u);

  // After truncation a crash still recovers everything (from the snapshot).
  cluster.restart_server(1, /*restore_state=*/true);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    EXPECT_NE(cluster.server(1).store().current(ItemId{i}), nullptr) << "item " << i;
  }
}

TEST(CrashRecovery, GroupCommitPerBatchRecovers) {
  TempDir dir;
  ClusterOptions options = durable_options(dir.path);
  // Jitter-free links: writes issued at one instant reach each server at
  // one instant, so the simulator delivers them as one batch.
  options.link = sim::LinkProfile{microseconds(200), 0, 0.0};
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  constexpr std::uint64_t kWriters = 8;
  std::vector<std::unique_ptr<SecureStoreClient>> clients;
  for (std::uint64_t c = 1; c <= kWriters; ++c) {
    clients.push_back(cluster.make_client(ClientId{static_cast<std::uint32_t>(c)},
                                          client_options(mrc_policy())));
    SyncClient sync(*clients.back(), cluster.scheduler());
    ASSERT_TRUE(sync.connect(kGroup).ok());
  }
  std::size_t acked = 0;
  for (std::uint64_t c = 1; c <= kWriters; ++c) {
    clients[c - 1]->write(ItemId{c}, to_bytes("grouped " + std::to_string(c)),
                          [&acked](VoidResult r) { acked += r.ok() ? 1 : 0; });
  }
  cluster.run_for(seconds(2));  // writes, gossip pushes and anti-entropy
  ASSERT_EQ(acked, kWriters);

  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    ASSERT_NE(cluster.server(s).wal_stats(), nullptr);
    const auto fsyncs = cluster.server(s).wal_stats()->fsyncs;
    const auto appends = cluster.server(s).wal_stats()->appends;
    EXPECT_EQ(appends, kWriters) << "server " << s;
    EXPECT_LT(fsyncs, appends + 2) << "server " << s;  // group commit: fewer fsyncs than appends
  }

  cluster.restart_server(1, /*restore_state=*/true);
  for (std::uint64_t i = 1; i <= kWriters; ++i) {
    EXPECT_NE(cluster.server(1).store().current(ItemId{i}), nullptr) << "item " << i;
  }
}

/// Forwards everything to a SimTransport, and checks at every send that a
/// server's kWrite or context-write (kAck) response never leaves before
/// that server's WAL commit covers every entry appended so far — in
/// particular the record or context the response acknowledges.
class CommitCheckingTransport final : public net::Transport {
 public:
  explicit CommitCheckingTransport(net::SimTransport& inner) : inner_(inner) {}

  std::vector<std::unique_ptr<SecureStoreServer>>* servers = nullptr;
  std::size_t acks_checked = 0;
  std::size_t acks_before_commit = 0;

  void register_node(NodeId node, DeliverFn deliver) override {
    inner_.register_node(node, std::move(deliver));
  }
  void register_node_batched(NodeId node, BatchDeliverFn deliver) override {
    inner_.register_node_batched(node, std::move(deliver));
  }
  void unregister_node(NodeId node) override { inner_.unregister_node(node); }
  void send(NodeId from, NodeId to, Bytes payload) override {
    check(from, payload);
    inner_.send(from, to, std::move(payload));
  }
  SimTime now() const override { return inner_.now(); }
  void schedule(SimDuration delay, std::function<void()> callback) override {
    inner_.schedule(delay, std::move(callback));
  }
  const sim::TransportStats& stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }
  obs::Registry& registry() override { return inner_.registry(); }
  obs::EventLog& events() override { return inner_.events(); }

 private:
  void check(NodeId from, BytesView payload) {
    if (servers == nullptr || from.value >= servers->size()) return;
    Reader r(payload);
    if (r.u8() != 1) return;  // not a response (responses carry no trace flag)
    r.u64();                  // rpc id
    const auto type = static_cast<net::MsgType>(r.u16());
    if (type != net::MsgType::kWrite && type != net::MsgType::kAck) return;
    const storage::WriteAheadLog* wal = (*servers)[from.value]->wal();
    ++acks_checked;
    if (wal->synced_lsn() < wal->last_lsn()) ++acks_before_commit;
  }

  net::SimTransport& inner_;
};

TEST(CrashRecovery, NoWriteAckLeavesBeforeItsCommit) {
  TempDir dir;
  sim::Scheduler scheduler;
  net::SimTransport sim_transport(scheduler, sim::NetworkModel(Rng(7), sim::lan_profile()));
  CommitCheckingTransport transport(sim_transport);

  core::StoreConfig config;
  Rng rng(8);
  std::vector<crypto::KeyPair> client_pairs;
  for (std::uint32_t c = 1; c <= 3; ++c) {
    client_pairs.push_back(crypto::KeyPair::generate(rng));
    config.client_keys[c] = client_pairs.back().public_key;
  }
  std::vector<crypto::KeyPair> server_pairs;
  for (std::uint32_t i = 0; i < config.n; ++i) {
    config.servers.push_back(NodeId{i});
    server_pairs.push_back(crypto::KeyPair::generate(rng));
    config.server_keys[NodeId{i}] = server_pairs.back().public_key;
  }
  std::vector<std::unique_ptr<SecureStoreServer>> servers;
  for (std::uint32_t i = 0; i < config.n; ++i) {
    SecureStoreServer::Options options;
    options.gossip.period = milliseconds(50);
    SecureStoreServer::DurabilityOptions durability;
    durability.wal_dir = dir.path + "/wal-" + std::to_string(i);
    durability.fsync = FsyncPolicy::kAlways;
    options.durability = durability;
    options.group_policies = {mrc_policy()};
    servers.push_back(std::make_unique<SecureStoreServer>(transport, NodeId{i}, config,
                                                          server_pairs[i], options, rng.fork()));
  }
  transport.servers = &servers;

  // Concurrent writers (so batches carry several writes), each ending with
  // a context write (disconnect), while gossip applies records in between.
  std::vector<std::unique_ptr<SecureStoreClient>> clients;
  for (std::uint32_t c = 1; c <= 3; ++c) {
    clients.push_back(std::make_unique<SecureStoreClient>(
        transport, NodeId{1000 + c}, ClientId{c}, client_pairs[c - 1], config,
        client_options(mrc_policy()), Rng(c)));
    SyncClient sync(*clients.back(), scheduler);
    ASSERT_TRUE(sync.connect(kGroup).ok());
  }
  for (std::uint64_t round = 0; round < 5; ++round) {
    std::size_t acked = 0;
    for (std::uint32_t c = 1; c <= 3; ++c) {
      clients[c - 1]->write(ItemId{c * 100 + round}, to_bytes("v" + std::to_string(round)),
                            [&acked](VoidResult r) { acked += r.ok() ? 1 : 0; });
    }
    scheduler.run_until(scheduler.now() + milliseconds(100));
    ASSERT_EQ(acked, 3u) << "round " << round;
  }
  for (auto& client : clients) {
    SyncClient sync(*client, scheduler);
    ASSERT_TRUE(sync.disconnect().ok());
  }

  EXPECT_GE(transport.acks_checked, 3u * 5u * config.data_quorum_honest());
  EXPECT_EQ(transport.acks_before_commit, 0u);
  std::uint64_t appends = 0;
  for (const auto& server : servers) appends += server->wal_stats()->appends;
  EXPECT_GT(appends, 0u);
  transport.servers = nullptr;
}

}  // namespace
}  // namespace securestore
