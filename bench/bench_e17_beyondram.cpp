// Experiment E17 — beyond-RAM storage: LSM engine vs the in-memory store.
//
// The paper's store keeps every version resident; the LSM engine
// (DESIGN.md §12) keeps only metadata resident and moves values through a
// memtable into SSTables, so a server can hold working sets larger than
// RAM. Two measurements:
//
//  (a) micro — bare `StorageEngine::apply` + point reads on a working set
//      8× the memtable budget. This isolates what the engine layer itself
//      pays (memtable inserts, flush fsyncs, SST point reads) against an
//      in-memory map that does none of it; the gap here is the engine's
//      raw overhead, reported but not the claim.
//  (b) sustained — the same write-heavy workload pushed through the full
//      replicated write path (n=4 cluster, Ed25519-signed records, WAL on
//      disk, quorum acks) with only the engine swapped. This is the
//      deployment question: does going beyond RAM change what a client
//      sees? Claim under test: within 2× of the in-memory engine, because
//      the WAL stays the commit point and SST fsyncs amortize over whole
//      memtable flushes while crypto + replication dominate per-write cost.
//
// Both phases do real disk I/O; absolute numbers vary by machine, the
// in-memory-to-LSM *ratios* are the result.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "core/sync.h"
#include "crypto/keys.h"
#include "storage/item_store.h"
#include "storage/lsm/lsm_store.h"
#include "testkit/cluster.h"
#include "util/rng.h"

namespace securestore::bench {
namespace {

using core::ConsistencyModel;
using core::Context;
using core::SecureStoreClient;
using core::StorageEngineKind;
using core::SyncClient;
using core::Timestamp;
using core::WriteRecord;
using storage::ItemStore;
using storage::StorageEngine;
using storage::lsm::LsmStore;
using testkit::Cluster;
using testkit::ClusterOptions;

constexpr GroupId kGroup{7};
constexpr std::size_t kValueBytes = 256;  // a typical signed record body

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string scratch_dir(const char* tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / (std::string("bench_e17_") + tag + "_XXXXXX"))
          .string();
  if (mkdtemp(dir.data()) == nullptr) std::abort();
  return dir;
}

// --- (a) micro: bare engine apply/read ------------------------------------

constexpr std::size_t kMicroItems = 1024;
constexpr std::size_t kMicroVersions = 8;
constexpr std::size_t kMicroBudget = 256u << 10;  // working set ≈ 8× budget

struct MicroResult {
  double write_seconds = 0;
  double read_seconds = 0;
  std::size_t writes = 0;
  std::size_t reads = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::size_t sst_files = 0;
  double reopen_seconds = 0;  // LSM only: recover index from manifest + SSTs
};

WriteRecord make_record(ItemId item, std::uint64_t time, const Bytes& value) {
  WriteRecord record;
  record.item = item;
  record.group = kGroup;
  record.model = ConsistencyModel::kCC;
  record.writer = ClientId{1};
  record.value = value;
  record.value_digest = crypto::meter_digest(record.value);
  record.ts = Timestamp{time, record.writer, record.value_digest};
  record.writer_context = Context(kGroup);
  return record;
}

MicroResult drive_micro(StorageEngine& engine, Rng& rng) {
  MicroResult result;
  Bytes value(kValueBytes);

  const auto write_start = std::chrono::steady_clock::now();
  std::uint64_t lsn = 0;
  for (std::size_t round = 1; round <= kMicroVersions; ++round) {
    for (std::size_t i = 0; i < kMicroItems; ++i) {
      for (auto& byte : value) byte = static_cast<std::uint8_t>(rng.next_u64());
      engine.apply(make_record(ItemId{i + 1}, round, value));
      engine.note_wal_lsn(++lsn);
      ++result.writes;
    }
  }
  result.write_seconds = elapsed_seconds(write_start);

  // Point-read sweep over the whole working set — which, for the LSM
  // engine, has long since left the memtable.
  const auto read_start = std::chrono::steady_clock::now();
  for (std::size_t pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < kMicroItems; ++i) {
      const WriteRecord* current = engine.current(ItemId{i + 1});
      if (current == nullptr || current->ts.time != kMicroVersions) std::abort();
      ++result.reads;
    }
  }
  result.read_seconds = elapsed_seconds(read_start);
  return result;
}

MicroResult run_micro_memory() {
  Rng rng(17);
  ItemStore store(/*max_log_entries=*/4);
  return drive_micro(store, rng);
}

MicroResult run_micro_lsm(obs::Registry& registry) {
  const std::string dir = scratch_dir("micro");
  Rng rng(17);
  MicroResult result;
  {
    LsmStore::Options options;
    options.dir = dir;
    options.max_log_entries = 4;
    options.memtable_budget_bytes = kMicroBudget;
    options.registry = &registry;
    options.metric_prefix = "bench.";
    LsmStore store(options);
    result = drive_micro(store, rng);
    store.flush();
    const LsmStore::Stats stats = store.stats();
    result.flushes = stats.flushes;
    result.compactions = stats.compactions;
    result.sst_files = stats.sst_files;
  }
  {
    // Recovery: reopen from manifest + SSTs alone, as a rebooting server
    // would before its WAL replay.
    const auto start = std::chrono::steady_clock::now();
    LsmStore::Options options;
    options.dir = dir;
    options.max_log_entries = 4;
    options.memtable_budget_bytes = kMicroBudget;
    LsmStore reopened(options);
    if (reopened.item_count() != kMicroItems) std::abort();
    result.reopen_seconds = elapsed_seconds(start);
  }
  std::filesystem::remove_all(dir);
  return result;
}

// --- (b) sustained: full replicated write path ----------------------------

constexpr std::size_t kSustainedWrites = 600;
constexpr std::size_t kSustainedItems = 64;
constexpr std::size_t kSustainedBudget = 8u << 10;  // working set ≈ 20× budget

struct SustainedResult {
  double seconds = 0;
  std::size_t writes = 0;
};

SustainedResult run_sustained(StorageEngineKind kind) {
  const std::string dir = scratch_dir(kind == StorageEngineKind::kLsm ? "lsm" : "mem");

  ClusterOptions options;
  options.n = 4;
  options.b = 1;
  options.durability_dir = dir;  // both engines pay the same WAL
  options.fsync = storage::FsyncPolicy::kAlways;
  options.engine.kind = kind;
  options.engine.memtable_budget_bytes = kSustainedBudget;
  options.engine.l0_compact_threshold = 3;
  Cluster cluster(options);

  const core::GroupPolicy policy{kGroup, ConsistencyModel::kMRC,
                                 core::SharingMode::kSingleWriter,
                                 core::ClientTrust::kHonest};
  cluster.set_group_policy(policy);
  SecureStoreClient::Options client_options;
  client_options.policy = policy;
  auto client = cluster.make_client(ClientId{1}, client_options);
  SyncClient sync(*client, cluster.scheduler());
  if (!sync.connect(kGroup).ok()) std::abort();

  SustainedResult result;
  const std::string padding(kValueBytes, 'e');
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kSustainedWrites; ++i) {
    const ItemId item{1 + (i % kSustainedItems)};
    if (!sync.write(item, to_bytes(std::to_string(i) + " " + padding)).ok()) std::abort();
    ++result.writes;
  }
  result.seconds = elapsed_seconds(start);

  std::filesystem::remove_all(dir);
  return result;
}

void run() {
  print_title("E17: beyond-RAM writes — LSM engine vs in-memory store");
  print_claim(
      "pushing a write-heavy workload whose working set is many times the "
      "memtable budget through the full replicated write path sustains "
      "throughput within 2x of the in-memory engine: the WAL stays the "
      "commit point, SST fsyncs amortize over whole memtable flushes, and "
      "crypto + replication dominate per-write cost");

  BenchJson json("e17_beyondram");
  obs::Registry registry;

  // (a) micro
  std::printf("--- micro: bare StorageEngine apply/read, working set %.1f MB vs %zu KB budget ---\n",
              kMicroItems * kMicroVersions * kValueBytes / 1e6, kMicroBudget >> 10);
  Table micro_table({"engine", "writes", "us/write", "us/read", "flushes", "ssts"});
  micro_table.print_header();
  const MicroResult micro_memory = run_micro_memory();
  const MicroResult micro_lsm = run_micro_lsm(registry);
  const auto emit_micro = [&](const char* name, const MicroResult& r) {
    const double us_per_write = r.write_seconds * 1e6 / r.writes;
    const double us_per_read = r.read_seconds * 1e6 / r.reads;
    micro_table.cell(std::string(name));
    micro_table.cell(static_cast<std::uint64_t>(r.writes));
    micro_table.cell(us_per_write);
    micro_table.cell(us_per_read);
    micro_table.cell(r.flushes);
    micro_table.cell(static_cast<std::uint64_t>(r.sst_files));
    micro_table.end_row();

    json.begin_row();
    json.field("phase", std::string("micro"));
    json.field("engine", std::string(name));
    json.field("value_bytes", static_cast<std::uint64_t>(kValueBytes));
    json.field("memtable_budget_bytes", static_cast<std::uint64_t>(kMicroBudget));
    json.field("working_set_bytes",
               static_cast<std::uint64_t>(kMicroItems * kMicroVersions * kValueBytes));
    json.field("writes", static_cast<std::uint64_t>(r.writes));
    json.field("us_per_write", us_per_write);
    json.field("reads", static_cast<std::uint64_t>(r.reads));
    json.field("us_per_read", us_per_read);
    json.field("flushes", r.flushes);
    json.field("compactions", r.compactions);
    json.field("sst_files", static_cast<std::uint64_t>(r.sst_files));
    json.field("reopen_seconds", r.reopen_seconds);
  };
  emit_micro("memory", micro_memory);
  emit_micro("lsm", micro_lsm);
  const double micro_ratio = (micro_lsm.write_seconds / micro_lsm.writes) /
                             (micro_memory.write_seconds / micro_memory.writes);

  // (b) sustained
  std::printf("\n--- sustained: n=4 signed quorum writes, WAL on disk, engine swapped ---\n");
  Table table({"engine", "writes", "us/write", "writes/s"});
  table.print_header();
  const SustainedResult memory = run_sustained(StorageEngineKind::kMemory);
  const SustainedResult lsm = run_sustained(StorageEngineKind::kLsm);
  const auto emit_sustained = [&](const char* name, const SustainedResult& r) {
    const double us_per_write = r.seconds * 1e6 / r.writes;
    table.cell(std::string(name));
    table.cell(static_cast<std::uint64_t>(r.writes));
    table.cell(us_per_write);
    table.cell(r.writes / r.seconds, 0);
    table.end_row();

    json.begin_row();
    json.field("phase", std::string("sustained"));
    json.field("engine", std::string(name));
    json.field("value_bytes", static_cast<std::uint64_t>(kValueBytes));
    json.field("memtable_budget_bytes", static_cast<std::uint64_t>(kSustainedBudget));
    json.field("working_set_bytes",
               static_cast<std::uint64_t>(kSustainedWrites * kValueBytes));
    json.field("writes", static_cast<std::uint64_t>(r.writes));
    json.field("us_per_write", us_per_write);
    json.field("writes_per_sec", r.writes / r.seconds, 0);
  };
  emit_sustained("memory", memory);
  emit_sustained("lsm", lsm);

  const double sustained_ratio = (lsm.seconds / lsm.writes) / (memory.seconds / memory.writes);
  json.begin_row();
  json.field("phase", std::string("ratio"));
  json.field("micro_lsm_over_memory_write", micro_ratio);
  json.field("sustained_lsm_over_memory_write", sustained_ratio);
  json.field("within_2x", static_cast<std::uint64_t>(sustained_ratio <= 2.0 ? 1 : 0));

  std::printf(
      "\nMicro: the bare engine pays %.1fx over an in-memory map — that is the\n"
      "price of flush fsyncs and SST point reads in isolation. Sustained: with\n"
      "the full write path around it (Ed25519 signatures, n=4 quorum, WAL),\n"
      "the same beyond-RAM workload runs at %.2fx the in-memory engine\n"
      "(claim: <= 2x) — the engine's overhead hides behind the commit path\n"
      "the store already pays. Reopen recovers the micro index from\n"
      "manifest + SSTs in %.3f s without touching a WAL.\n",
      micro_ratio, sustained_ratio, micro_lsm.reopen_seconds);

  emit_metrics(json, registry);
}

}  // namespace
}  // namespace securestore::bench

int main() {
  securestore::bench::run();
  return 0;
}
