// Experiment E13 — durability cost of the write-ahead log.
//
// The paper's store is in-memory with periodic snapshots; the WAL subsystem
// adds per-write durability. This bench quantifies what a commit costs:
// `always` commits (fsyncs) after every append, `batch-k` commits once per
// k appends — the server's group commit, one fsync per delivery batch —
// and `never` leaves flushing to the OS. Every `always`/`batch` row is
// durable before its ack would leave. A final pass measures recovery
// replay speed — the cost of rebuilding state from the log after a crash.
//
// Unlike the protocol benches this one measures real wall-clock disk I/O,
// so absolute numbers vary by machine; the *ratios* between policies are
// the result.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "bench_common.h"
#include "storage/wal/wal.h"

namespace securestore::bench {
namespace {

using storage::FsyncPolicy;
using storage::WalEntryType;
using storage::WriteAheadLog;

constexpr std::size_t kPayloadBytes = 256;  // a typical signed WriteRecord

struct PolicyResult {
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t rotations = 0;
  double total_seconds = 0;
  double replay_seconds = 0;
  std::uint64_t replayed = 0;
};

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

PolicyResult run_policy(const char* name, FsyncPolicy policy, std::size_t appends,
                        std::size_t sync_every, obs::Registry& registry) {
  std::string dir = (std::filesystem::temp_directory_path() / "bench_e13_XXXXXX").string();
  if (mkdtemp(dir.data()) == nullptr) std::abort();

  // Per-append latency distribution (the append plus, when it closes a
  // commit group, the commit), keyed by row so the sidecar's histograms
  // separate the fsync-per-append floor from the amortized modes.
  obs::Histogram& append_us = registry.histogram(std::string("bench.wal.append_us.") + name);

  const Bytes payload(kPayloadBytes, 0x42);
  PolicyResult result;
  {
    WriteAheadLog wal({dir, policy, /*segment_bytes=*/4u << 20});
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < appends; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      wal.append(WalEntryType::kWrite, payload);
      // The commit point: every sync_every appends, as a server commits
      // once per delivery batch of that many writes.
      if (sync_every > 0 && (i + 1) % sync_every == 0) wal.sync();
      append_us.observe(
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    result.total_seconds = elapsed_seconds(start);
    result.appends = wal.stats().appends;
    result.fsyncs = wal.stats().fsyncs;
    result.rotations = wal.stats().rotations;
  }

  // Recovery: open, CRC-check and replay every frame in one pass, as a
  // rebooting server does.
  {
    const auto start = std::chrono::steady_clock::now();
    WriteAheadLog recovered({dir, policy, 4u << 20}, /*replay_after=*/0,
                            [&](std::uint64_t, WalEntryType, BytesView) { ++result.replayed; });
    result.replay_seconds = elapsed_seconds(start);
  }

  std::filesystem::remove_all(dir);
  return result;
}

void run() {
  print_title("E13: WAL write cost and recovery speed per fsync policy");
  print_claim(
      "durable acked writes cost one fsync each when every append commits "
      "alone; group commit (`batch-k`) amortizes that to ~1/k with no loss "
      "window; recovery replays the log at memory speed after CRC checks");

  const struct {
    FsyncPolicy policy;
    const char* name;
    std::size_t appends;
    std::size_t sync_every;  // appends per commit (0 = never commit)
  } kCells[] = {
      {FsyncPolicy::kAlways, "always", 2000, 1},
      {FsyncPolicy::kAlways, "batch-10", 20000, 10},
      {FsyncPolicy::kAlways, "batch-100", 20000, 100},
      {FsyncPolicy::kNever, "never", 20000, 0},
  };

  Table table({"policy", "appends", "fsyncs", "us/append", "appends/s", "replay/s"});
  table.print_header();
  BenchJson json("e13_durability");
  obs::Registry registry;

  for (const auto& cell : kCells) {
    const PolicyResult result =
        run_policy(cell.name, cell.policy, cell.appends, cell.sync_every, registry);
    const double us_per_append = result.total_seconds * 1e6 / result.appends;
    const double appends_per_s = result.appends / result.total_seconds;
    const double replay_per_s =
        result.replay_seconds > 0 ? result.replayed / result.replay_seconds : 0;

    table.cell(std::string(cell.name));
    table.cell(result.appends);
    table.cell(result.fsyncs);
    table.cell(us_per_append);
    table.cell(appends_per_s, 0);
    table.cell(replay_per_s, 0);
    table.end_row();

    json.begin_row();
    json.field("policy", std::string(cell.name));
    json.field("payload_bytes", static_cast<std::uint64_t>(kPayloadBytes));
    json.field("appends", result.appends);
    json.field("fsyncs", result.fsyncs);
    json.field("rotations", result.rotations);
    json.field("us_per_append", us_per_append);
    json.field("appends_per_sec", appends_per_s, 0);
    json.field("replayed_entries", result.replayed);
    json.field("replay_entries_per_sec", replay_per_s, 0);
  }

  std::printf(
      "\n256-byte payloads, 4 MB segments, tmpfs-or-disk per machine. `always`\n"
      "pays one fsync per append — the floor is the device sync latency.\n"
      "`batch-k` fsyncs once per k appends (a server's commit per delivery\n"
      "batch of k writes): throughput approaches `never` as k grows, and\n"
      "nothing is acked before its commit, so there is no loss window.\n"
      "Recovery replays every surviving frame through the CRC check; its\n"
      "rate bounds restart time.\n");

  emit_metrics(json, registry);
}

}  // namespace
}  // namespace securestore::bench

int main() {
  securestore::bench::run();
  return 0;
}
