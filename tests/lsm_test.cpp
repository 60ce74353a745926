// LSM storage engine (DESIGN.md §12): memtable/SSTable/manifest unit tests,
// flush-before-truncate ordering (including under fsync=never, where WAL
// truncation is the ONLY durability gate), corruption quarantine (bit-flips
// and torn tails in SSTs and the manifest), and a randomized equivalence
// property against the in-memory ItemStore — pre-flush, post-flush and
// post-compaction.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/sync.h"
#include "crypto/keys.h"
#include "storage/item_store.h"
#include "storage/lsm/lsm_store.h"
#include "storage/lsm/sst.h"
#include "testkit/cluster.h"
#include "util/rng.h"

namespace securestore {
namespace {

namespace fs = std::filesystem;
using core::ConsistencyModel;
using core::Context;
using core::GroupPolicy;
using core::SecureStoreClient;
using core::SharingMode;
using core::StorageEngineKind;
using core::SyncClient;
using core::Timestamp;
using core::WriteRecord;
using storage::ApplyResult;
using storage::FsyncPolicy;
using storage::ItemStore;
using storage::StorageEngine;
using storage::lsm::LsmStore;
using testkit::Cluster;
using testkit::ClusterOptions;

constexpr ItemId kX{1};
constexpr GroupId kGroup{9};

/// A unique, self-cleaning scratch directory per test.
struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "securestore_lsm_XXXXXX").string();
    path = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

WriteRecord make_record(ItemId item, std::uint64_t time, std::string_view value,
                        ClientId writer = ClientId{1}) {
  WriteRecord record;
  record.item = item;
  record.group = kGroup;
  record.model = ConsistencyModel::kCC;
  record.writer = writer;
  record.value = to_bytes(value);
  record.value_digest = crypto::meter_digest(record.value);
  record.ts = Timestamp{time, writer, record.value_digest};
  record.writer_context = Context(kGroup);
  return record;
}

LsmStore::Options small_options(const std::string& dir) {
  LsmStore::Options options;
  options.dir = dir;
  options.max_log_entries = 4;
  options.memtable_budget_bytes = 8u << 10;  // tiny: flushes come quickly
  options.l0_compact_threshold = 3;
  options.sst_target_bytes = 64u << 10;
  return options;
}

std::vector<std::string> sst_files_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".sst") out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> corrupt_files_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".corrupt") out.push_back(entry.path().string());
  }
  return out;
}

void flip_byte_at(const std::string& path, std::streamoff pos) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(pos);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(pos);
  file.write(&byte, 1);
}

void truncate_tail(const std::string& path, std::size_t drop) {
  const auto size = static_cast<std::size_t>(fs::file_size(path));
  ASSERT_GT(size, drop);
  fs::resize_file(path, size - drop);
}

// ---------------------------------------------------------------------------
// Engine basics
// ---------------------------------------------------------------------------

TEST(LsmStore, ApplySemanticsMatchItemStoreContract) {
  TempDir dir;
  LsmStore store(small_options(dir.path));
  EXPECT_EQ(store.apply(make_record(kX, 2, "v2")), ApplyResult::kStoredNewer);
  EXPECT_EQ(store.apply(make_record(kX, 1, "v1")), ApplyResult::kLogged);
  EXPECT_EQ(store.apply(make_record(kX, 2, "v2")), ApplyResult::kDuplicate);
  ASSERT_NE(store.current(kX), nullptr);
  EXPECT_EQ(to_string(store.current(kX)->value), "v2");
  const auto log = store.log(kX);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(to_string(log[0].value), "v2");
  EXPECT_EQ(to_string(log[1].value), "v1");
  // Same (time, writer), different digest: equivocation.
  EXPECT_EQ(store.apply(make_record(kX, 2, "forked")), ApplyResult::kEquivocation);
  EXPECT_TRUE(store.flagged_faulty(kX));
}

TEST(LsmStore, FlushedStateSurvivesReopen) {
  TempDir dir;
  {
    LsmStore store(small_options(dir.path));
    for (std::uint64_t i = 1; i <= 20; ++i) {
      store.apply(make_record(ItemId{i}, i, "value " + std::to_string(i)));
    }
    store.note_wal_lsn(20);
    EXPECT_EQ(store.flush(), 20u);
    EXPECT_EQ(store.durable_lsn(), 20u);
  }
  LsmStore reopened(small_options(dir.path));
  EXPECT_EQ(reopened.durable_lsn(), 20u);
  EXPECT_EQ(reopened.item_count(), 20u);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    const WriteRecord* record = reopened.current(ItemId{i});
    ASSERT_NE(record, nullptr) << "item " << i;
    EXPECT_EQ(to_string(record->value), "value " + std::to_string(i));
  }
}

TEST(LsmStore, UnflushedMemtableIsNotClaimedDurable) {
  TempDir dir;
  {
    LsmStore store(small_options(dir.path));
    store.apply(make_record(kX, 1, "flushed"));
    store.note_wal_lsn(1);
    EXPECT_EQ(store.flush(), 1u);
    // A later write stays memtable-only: durable_lsn must NOT advance, or
    // the server would truncate the WAL segment that holds it.
    store.apply(make_record(ItemId{2}, 2, "memtable only"));
    store.note_wal_lsn(2);
    EXPECT_EQ(store.durable_lsn(), 1u);
  }  // crash: the destructor deliberately does not flush
  LsmStore reopened(small_options(dir.path));
  EXPECT_EQ(reopened.durable_lsn(), 1u);  // server replays WAL from here
  EXPECT_NE(reopened.current(kX), nullptr);
  EXPECT_EQ(reopened.current(ItemId{2}), nullptr);  // lost with the memtable
}

TEST(LsmStore, BudgetCrossingFlushesAutomatically) {
  TempDir dir;
  LsmStore store(small_options(dir.path));
  const std::string big(1024, 'x');
  for (std::uint64_t i = 1; i <= 64; ++i) {
    store.apply(make_record(ItemId{i}, i, big));
    store.note_wal_lsn(i);
  }
  EXPECT_GT(store.stats().flushes, 0u);
  EXPECT_GT(store.stats().sst_files, 0u);
  // Reads hit SSTs and the memtable transparently.
  for (std::uint64_t i = 1; i <= 64; ++i) {
    ASSERT_NE(store.current(ItemId{i}), nullptr) << "item " << i;
  }
}

TEST(LsmStore, EquivocationFlagSurvivesFlushReopenAndCompaction) {
  TempDir dir;
  {
    LsmStore store(small_options(dir.path));
    store.apply(make_record(kX, 7, "tell alice A"));
    EXPECT_EQ(store.apply(make_record(kX, 7, "tell bob B")), ApplyResult::kEquivocation);
    EXPECT_TRUE(store.flagged_faulty(kX));
    store.note_wal_lsn(2);
    store.flush();
  }
  {
    LsmStore reopened(small_options(dir.path));
    EXPECT_TRUE(reopened.flagged_faulty(kX));
    ASSERT_EQ(reopened.flagged_items().size(), 1u);
    EXPECT_EQ(reopened.flagged_items()[0], kX);
    // Push more flushes through and compact: the flag entry must be carried
    // into the compaction output (the §5.3 compaction filter).
    for (std::uint64_t i = 10; i < 14; ++i) {
      reopened.apply(make_record(ItemId{i}, i, "filler"));
      reopened.note_wal_lsn(i);
      reopened.flush();
    }
    reopened.compact_now();
    EXPECT_GT(reopened.stats().compactions, 0u);
    EXPECT_TRUE(reopened.flagged_faulty(kX));
  }
  LsmStore again(small_options(dir.path));
  EXPECT_TRUE(again.flagged_faulty(kX));
}

TEST(LsmStore, CompactionMergesL0AndKeepsReadsCorrect) {
  TempDir dir;
  LsmStore::Options options = small_options(dir.path);
  // Keep the background trigger out of the way: the third flush would
  // otherwise schedule a merge that races the stats reads below.
  // compact_now() drives the compaction under test explicitly.
  options.l0_compact_threshold = 100;
  LsmStore store(options);
  // Several flush rounds over an overlapping key range → several L0 files
  // with superseded versions.
  std::uint64_t lsn = 0;
  for (std::uint64_t round = 1; round <= 4; ++round) {
    for (std::uint64_t i = 1; i <= 10; ++i) {
      store.apply(make_record(ItemId{i}, round * 100 + i,
                              "round " + std::to_string(round) + " item " + std::to_string(i)));
      store.note_wal_lsn(++lsn);
    }
    store.flush();
  }
  const auto before = store.stats();
  EXPECT_GE(before.l0_files, 3u);
  store.compact_now();
  const auto after = store.stats();
  EXPECT_GT(after.compactions, before.compactions);
  EXPECT_LT(after.l0_files, before.l0_files);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    const WriteRecord* record = store.current(ItemId{i});
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(to_string(record->value), "round 4 item " + std::to_string(i));
  }
  // Each item's log still honors the bound (1 current + max_log_entries).
  for (std::uint64_t i = 1; i <= 10; ++i) {
    EXPECT_LE(store.log(ItemId{i}).size(), 1u + options.max_log_entries);
  }
}

TEST(LsmStore, PruneLogDropsVersionsAndCompactionReclaims) {
  TempDir dir;
  LsmStore store(small_options(dir.path));
  std::uint64_t lsn = 0;
  for (std::uint64_t t = 1; t <= 6; ++t) {
    store.apply(make_record(kX, t, "v" + std::to_string(t)));
    store.note_wal_lsn(++lsn);
    if (t % 2 == 0) store.flush();
  }
  ASSERT_EQ(to_string(store.current(kX)->value), "v6");
  // A §5.3 stability certificate at t=6 prunes everything older.
  const WriteRecord stable = make_record(kX, 6, "v6");
  EXPECT_GT(store.prune_log(kX, stable.ts), 0u);
  EXPECT_EQ(store.log(kX).size(), 1u);
  store.compact_now();
  EXPECT_EQ(store.log(kX).size(), 1u);
  EXPECT_EQ(to_string(store.current(kX)->value), "v6");
}

TEST(LsmStore, CheckpointHardlinksManifestAndSsts) {
  TempDir dir;
  LsmStore store(small_options(dir.path));
  for (std::uint64_t i = 1; i <= 10; ++i) {
    store.apply(make_record(ItemId{i}, i, "v" + std::to_string(i)));
    store.note_wal_lsn(i);
  }
  store.flush();
  store.checkpoint();
  const std::string checkpoint = dir.path + "/" + storage::lsm::kCheckpointDirName;
  ASSERT_TRUE(fs::exists(checkpoint + "/" + storage::lsm::kManifestName));
  EXPECT_EQ(sst_files_in(checkpoint).size(), sst_files_in(dir.path).size());
  // The checkpoint is a valid engine directory in its own right.
  LsmStore::Options from_checkpoint = small_options(dir.path);
  from_checkpoint.dir = checkpoint;
  LsmStore restored(from_checkpoint);
  EXPECT_EQ(restored.item_count(), 10u);
}

// ---------------------------------------------------------------------------
// Corruption quarantine: bit-flips and torn tails must never crash the
// engine or silently serve damaged data.
// ---------------------------------------------------------------------------

TEST(LsmCorruption, BitFlippedSstQuarantinedAndWalReplaysEverything) {
  TempDir dir;
  {
    LsmStore store(small_options(dir.path));
    for (std::uint64_t i = 1; i <= 10; ++i) {
      store.apply(make_record(ItemId{i}, i, "v" + std::to_string(i)));
      store.note_wal_lsn(i);
    }
    EXPECT_EQ(store.flush(), 10u);
  }
  const auto files = sst_files_in(dir.path);
  ASSERT_FALSE(files.empty());
  // Flip a byte in the middle of the data section: the whole-file CRC must
  // catch it at open.
  flip_byte_at(files[0], static_cast<std::streamoff>(fs::file_size(files[0]) / 2));

  LsmStore reopened(small_options(dir.path));
  EXPECT_GE(reopened.stats().quarantined, 1u);
  EXPECT_FALSE(corrupt_files_in(dir.path).empty());
  EXPECT_TRUE(sst_files_in(dir.path).empty());  // quarantined, not left in place
  // Data was lost from the engine's own files, so it must not claim ANY WAL
  // coverage: the server will replay every segment it still has.
  EXPECT_EQ(reopened.durable_lsn(), 0u);
}

TEST(LsmCorruption, TornSstTailQuarantined) {
  TempDir dir;
  {
    LsmStore store(small_options(dir.path));
    for (std::uint64_t i = 1; i <= 10; ++i) {
      store.apply(make_record(ItemId{i}, i, "v" + std::to_string(i)));
      store.note_wal_lsn(i);
    }
    store.flush();
  }
  const auto files = sst_files_in(dir.path);
  ASSERT_FALSE(files.empty());
  truncate_tail(files[0], 5);  // torn mid-footer: crash during a rename-less copy

  LsmStore reopened(small_options(dir.path));
  EXPECT_GE(reopened.stats().quarantined, 1u);
  EXPECT_EQ(reopened.durable_lsn(), 0u);
  EXPECT_FALSE(corrupt_files_in(dir.path).empty());
}

TEST(LsmCorruption, BitFlippedManifestFallsBackToSstScan) {
  TempDir dir;
  {
    LsmStore store(small_options(dir.path));
    for (std::uint64_t i = 1; i <= 10; ++i) {
      store.apply(make_record(ItemId{i}, i, "v" + std::to_string(i)));
      store.note_wal_lsn(i);
    }
    store.flush();
  }
  const std::string manifest = dir.path + "/" + storage::lsm::kManifestName;
  ASSERT_TRUE(fs::exists(manifest));
  flip_byte_at(manifest, static_cast<std::streamoff>(fs::file_size(manifest) / 2));

  LsmStore reopened(small_options(dir.path));
  EXPECT_GE(reopened.stats().quarantined, 1u);
  // Fallback scan recovered the intact SSTs; durable_lsn is conservative
  // (0) so the server replays the full WAL over this state.
  EXPECT_EQ(reopened.durable_lsn(), 0u);
  EXPECT_EQ(reopened.item_count(), 10u);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ASSERT_NE(reopened.current(ItemId{i}), nullptr) << "item " << i;
  }
}

TEST(LsmCorruption, DamagedFrameDetectedAtReadTime) {
  TempDir dir;
  LsmStore::Options options = small_options(dir.path);
  {
    LsmStore store(options);
    store.apply(make_record(kX, 1, std::string(2048, 'v')));
    store.note_wal_lsn(1);
    store.flush();
  }
  // Open succeeds (we damage the file AFTER open-time validation would have
  // passed — simulate in-place rot between open and read by flipping a data
  // byte and reopening with the footer CRC also patched to hide it). The
  // cheap way to exercise the per-frame CRC path: flip a byte inside the
  // record frame and also inside the footer CRC field so open-time
  // validation cannot rely on the whole-file checksum.
  const auto files = sst_files_in(dir.path);
  ASSERT_EQ(files.size(), 1u);
  const auto size = static_cast<std::streamoff>(fs::file_size(files[0]));
  flip_byte_at(files[0], size / 4);                    // inside the value frame
  flip_byte_at(files[0], size - 12);                   // footer whole-file CRC
  LsmStore reopened(options);
  if (reopened.stats().quarantined == 0) {
    // The doctored CRC happened to re-validate: the frame CRC is the last
    // line of defense — the read must fail cleanly, never return bad bytes.
    const WriteRecord* record = reopened.current(kX);
    if (record != nullptr) {
      EXPECT_EQ(to_string(record->value), std::string(2048, 'v'));
    } else {
      EXPECT_GT(reopened.stats().read_errors, 0u);
    }
  }
}

TEST(LsmCorruption, RottedFrameDroppedFromIndexSoGossipCanRepair) {
  TempDir dir;
  LsmStore store(small_options(dir.path));
  const WriteRecord record = make_record(kX, 1, std::string(2048, 'v'));
  ASSERT_EQ(store.apply(record), ApplyResult::kStoredNewer);
  store.note_wal_lsn(1);
  store.flush();

  // Rot the value frame in place while the reader is open: open-time
  // validation already passed, so the per-frame CRC is the only guard.
  const auto files = sst_files_in(dir.path);
  ASSERT_EQ(files.size(), 1u);
  flip_byte_at(files[0], static_cast<std::streamoff>(fs::file_size(files[0])) / 4);

  EXPECT_EQ(store.current(kX), nullptr);
  EXPECT_GT(store.stats().read_errors, 0u);
  // The engine must stop advertising the version it cannot serve: were kX
  // still listed at ts 1, a peer's digest comparison would find us current
  // and anti-entropy would never repair the item.
  for (const auto& entry : store.current_index()) EXPECT_NE(entry.item, kX);
  // And the copy a peer re-sends must be accepted, not rejected as a
  // duplicate of the rotted version.
  EXPECT_EQ(store.apply(record), ApplyResult::kStoredNewer);
  ASSERT_NE(store.current(kX), nullptr);
  EXPECT_EQ(to_string(store.current(kX)->value), std::string(2048, 'v'));
}

TEST(LsmCorruption, CompactionQuarantinesRottedInputAndDropsDanglingVersions) {
  TempDir dir;
  constexpr ItemId kIntact{2};
  {
    LsmStore store(small_options(dir.path));
    store.apply(make_record(kX, 1, std::string(2048, 'v')));
    store.note_wal_lsn(1);
    store.flush();
    store.apply(make_record(kIntact, 1, "intact"));
    store.note_wal_lsn(2);
    store.flush();

    const auto files = sst_files_in(dir.path);
    ASSERT_EQ(files.size(), 2u);
    flip_byte_at(files[0], static_cast<std::streamoff>(fs::file_size(files[0])) / 4);

    store.compact_now();

    // The unreadable frame's version must not dangle into an unlinked file:
    // it is dropped from the index at install, the rotted input survives as
    // a forensic copy, and the intact record still reads.
    EXPECT_EQ(store.current(kX), nullptr);
    EXPECT_GE(store.stats().read_errors, 1u);
    EXPECT_GE(store.stats().quarantined, 1u);
    EXPECT_EQ(corrupt_files_in(dir.path).size(), 1u);
    EXPECT_EQ(store.item_count(), 1u);
    ASSERT_NE(store.current(kIntact), nullptr);
    EXPECT_EQ(to_string(store.current(kIntact)->value), "intact");
  }
  // Reopen from the post-compaction manifest: no resurrection, no crash.
  LsmStore reopened(small_options(dir.path));
  EXPECT_EQ(reopened.current(kX), nullptr);
  ASSERT_NE(reopened.current(kIntact), nullptr);
  EXPECT_EQ(to_string(reopened.current(kIntact)->value), "intact");
}

TEST(LsmStore, EmptyMemtableFlushPersistsFreshEquivocationFlag) {
  TempDir dir;
  {
    LsmStore store(small_options(dir.path));
    store.apply(make_record(kX, 1, "v1"));
    store.note_wal_lsn(1);
    store.flush();
    // A conflicting twin (same time+writer, different digest) only sets the
    // flag — the exposing record never enters the memtable.
    EXPECT_EQ(store.apply(make_record(kX, 1, "evil-twin")), ApplyResult::kEquivocation);
    store.note_wal_lsn(2);
    // Empty memtable + fresh flag: the flush must write a flag-carrying SST
    // before advancing the truncation watermark, not just rewrite the
    // manifest — otherwise truncating the WAL past the exposing record
    // leaves the flag with no durable home in the engine's own files.
    EXPECT_EQ(store.flush(), 2u);
  }
  LsmStore reopened(small_options(dir.path));
  EXPECT_TRUE(reopened.flagged_faulty(kX));
  EXPECT_EQ(reopened.durable_lsn(), 2u);
}

// ---------------------------------------------------------------------------
// Flush-before-truncate ordering at the server level (satellite: regression
// test, including under fsync=never where truncation is the only gate).
// ---------------------------------------------------------------------------

GroupPolicy mrc_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

SecureStoreClient::Options client_options() {
  SecureStoreClient::Options options;
  options.policy = mrc_policy();
  return options;
}

ClusterOptions lsm_cluster_options(const std::string& dir, FsyncPolicy fsync) {
  ClusterOptions options;
  options.durability_dir = dir;
  options.fsync = fsync;
  options.engine.kind = StorageEngineKind::kLsm;
  options.engine.memtable_budget_bytes = 4u << 10;  // force frequent flushes
  options.engine.l0_compact_threshold = 3;
  options.snapshot_period = seconds(100000);  // only explicit snapshots
  options.gossip.period = milliseconds(200);
  return options;
}

class LsmFlushOrdering : public ::testing::TestWithParam<FsyncPolicy> {};

TEST_P(LsmFlushOrdering, AckedWritesSurviveCrashAfterSnapshotTruncation) {
  TempDir dir;
  Cluster cluster(lsm_cluster_options(dir.path, GetParam()));
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());

  // Enough data that several memtable flushes happen mid-workload.
  for (std::uint64_t i = 1; i <= 40; ++i) {
    ASSERT_TRUE(sync.write(ItemId{i}, to_bytes("phase1 " + std::to_string(i) +
                                               std::string(256, 'a')))
                    .ok());
  }
  cluster.run_for(seconds(5));
  // Snapshot: flushes the engine, checkpoints, truncates the WAL. From here
  // on the SSTs are the only copy of phase-1 writes.
  cluster.server(1).save_snapshot_now();

  for (std::uint64_t i = 41; i <= 60; ++i) {
    ASSERT_TRUE(sync.write(ItemId{i}, to_bytes("phase2 " + std::to_string(i) +
                                               std::string(256, 'b')))
                    .ok());
  }
  cluster.run_for(seconds(5));
  for (std::uint64_t i = 1; i <= 60; ++i) {
    ASSERT_NE(cluster.server(1).store().current(ItemId{i}), nullptr) << "item " << i;
  }

  // Crash + recover from disk. Under fsync=kNever the WAL never fsynced:
  // flush-before-truncate is the ONLY reason phase-1 data still exists.
  cluster.restart_server(1, /*restore_state=*/true);
  for (std::uint64_t i = 1; i <= 60; ++i) {
    const WriteRecord* record = cluster.server(1).store().current(ItemId{i});
    ASSERT_NE(record, nullptr) << "item " << i << " lost in crash";
    const std::string prefix = (i <= 40 ? "phase1 " : "phase2 ") + std::to_string(i);
    EXPECT_EQ(to_string(record->value).substr(0, prefix.size()), prefix);
  }
}

INSTANTIATE_TEST_SUITE_P(FsyncPolicies, LsmFlushOrdering,
                         ::testing::Values(FsyncPolicy::kAlways, FsyncPolicy::kNever));

TEST(LsmServer, EquivocationFlagSurvivesLsmCrashRecovery) {
  TempDir dir;
  ClusterOptions options = lsm_cluster_options(dir.path, FsyncPolicy::kAlways);
  Cluster cluster(options);
  const GroupPolicy policy{kGroup, ConsistencyModel::kCC, SharingMode::kMultiWriter,
                           core::ClientTrust::kByzantine};
  cluster.set_group_policy(policy);

  // Two conflicting records, same (time, writer), injected via the import
  // path (full validation, no ownership gate) on server 1.
  const crypto::KeyPair& keys = cluster.client_keys(ClientId{1});
  auto sign = [&](WriteRecord record) {
    record.sign(keys);
    return record;
  };
  WriteRecord a = make_record(kX, 7, "tell alice A");
  a.model = ConsistencyModel::kCC;
  WriteRecord b = make_record(kX, 7, "tell bob B");
  b.model = ConsistencyModel::kCC;
  ASSERT_TRUE(cluster.server(1).import_record(sign(a)));
  // The conflicting twin validates (real signature) and flags the writer.
  ASSERT_TRUE(cluster.server(1).import_record(sign(b)));
  ASSERT_TRUE(cluster.server(1).store().flagged_faulty(kX));

  cluster.restart_server(1, /*restore_state=*/true);
  // WAL replay re-derives the flag from the two logged conflicting records.
  EXPECT_TRUE(cluster.server(1).store().flagged_faulty(kX));
}

// ---------------------------------------------------------------------------
// Randomized equivalence: LsmStore ≡ ItemStore on the same operation
// sequence, checked pre-flush, post-flush and post-compaction.
// ---------------------------------------------------------------------------

void expect_equivalent(const StorageEngine& lsm, const ItemStore& mem,
                       const std::vector<ItemId>& items, const std::string& where) {
  EXPECT_EQ(lsm.item_count(), mem.item_count()) << where;
  EXPECT_EQ(lsm.total_log_entries(), mem.total_log_entries()) << where;
  for (const ItemId item : items) {
    const WriteRecord* mem_current = mem.current(item);
    const WriteRecord* lsm_current = lsm.current(item);
    if (mem_current == nullptr) {
      EXPECT_EQ(lsm_current, nullptr) << where << " item " << item.value;
      continue;
    }
    ASSERT_NE(lsm_current, nullptr) << where << " item " << item.value;
    EXPECT_EQ(*lsm_current, *mem_current) << where << " item " << item.value;
    const auto mem_log = mem.log(item);
    const auto lsm_log = lsm.log(item);
    ASSERT_EQ(lsm_log.size(), mem_log.size()) << where << " item " << item.value;
    for (std::size_t i = 0; i < mem_log.size(); ++i) {
      EXPECT_EQ(lsm_log[i], mem_log[i]) << where << " item " << item.value << " pos " << i;
    }
    EXPECT_EQ(lsm.flagged_faulty(item), mem.flagged_faulty(item))
        << where << " item " << item.value;
  }
  // group_meta agreement (sorted identically by construction).
  const auto mem_meta = mem.group_meta(kGroup);
  const auto lsm_meta = lsm.group_meta(kGroup);
  ASSERT_EQ(lsm_meta.size(), mem_meta.size()) << where;
}

class LsmEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LsmEquivalence, RandomSequenceMatchesItemStore) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  TempDir dir;
  LsmStore::Options options = small_options(dir.path);
  options.max_log_entries = 3;
  LsmStore lsm(options);
  ItemStore mem(/*max_log_entries=*/3);

  std::vector<ItemId> items;
  for (std::uint64_t i = 1; i <= 8; ++i) items.push_back(ItemId{i});

  std::uint64_t lsn = 0;
  for (int op = 0; op < 400; ++op) {
    const ItemId item = items[rng.next_below(items.size())];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 80) {
      // Random write: timestamps collide across writers and values to
      // produce kLogged / kDuplicate / kEquivocation paths.
      const std::uint64_t time = 1 + rng.next_below(40);
      const ClientId writer{1 + static_cast<std::uint32_t>(rng.next_below(3))};
      const std::string value = "v" + std::to_string(rng.next_below(4));
      const WriteRecord record = make_record(item, time, value, writer);
      EXPECT_EQ(lsm.apply(record), mem.apply(record)) << "seed " << seed << " op " << op;
      lsm.note_wal_lsn(++lsn);
    } else if (roll < 88) {
      // §5.3 prune against the item's current version (if any).
      const WriteRecord* current = mem.current(item);
      if (current != nullptr) {
        const Timestamp ts = current->ts;
        EXPECT_EQ(lsm.prune_log(item, ts), mem.prune_log(item, ts))
            << "seed " << seed << " op " << op;
      }
    } else if (roll < 92) {
      lsm.flag_faulty(item);
      mem.flag_faulty(item);
    } else if (roll < 97) {
      lsm.flush();
    } else {
      lsm.compact_now();
    }
  }
  expect_equivalent(lsm, mem, items, "seed " + std::to_string(seed) + " final");
  lsm.flush();
  expect_equivalent(lsm, mem, items, "seed " + std::to_string(seed) + " post-flush");
  lsm.compact_now();
  expect_equivalent(lsm, mem, items, "seed " + std::to_string(seed) + " post-compaction");

  // A reopened engine over the flushed state agrees on everything flushed.
  const std::uint64_t durable = lsm.durable_lsn();
  EXPECT_EQ(durable, lsn);  // last op was a flush (or flush just above)
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmEquivalence, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace securestore
