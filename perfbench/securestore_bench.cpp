// The SecureStore benchmark: one durable n=4, b=1 deployment in one process
// on the threaded transport, driven through one named workload.
//
//   securestore_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--data-dir <dir>]
//
// A run sets the deployment up several times (reporting the median set-up
// time), then drives the last one through an open-loop phase (seeded
// Poisson arrivals at a fixed rate, each op timed from when it was due), a
// read sweep that checks every item, a closed-loop phase (a fixed number of
// ops in flight), and repeated crash/recover cycles followed by a second
// sweep. The last line of stdout is a JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is non-zero when a correctness check fails or
// the open-loop generator could not keep its schedule. See README.md.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "crypto/keys.h"
#include "faults/faulty_server.h"
#include "net/thread_transport.h"
#include "storage/lsm/lsm_store.h"
#include "timing_transport.h"

namespace {

using namespace securestore;
using perfbench::Layer;
using perfbench::TimingTransport;
using Clock = std::chrono::steady_clock;

// --- Deployment constants (the same for every workload) ---------------------

constexpr std::uint32_t kServers = 4;
constexpr std::uint32_t kFaultBound = 1;
constexpr SimDuration kLinkDelay = microseconds(200);
constexpr std::uint32_t kClients = 8;
constexpr std::uint32_t kInFlight = 16;  // closed loop, across all clients
constexpr int kSetupRepeats = 3;
constexpr int kRecoveryRepeats = 7;
constexpr std::uint32_t kClientNodeBase = 1000;
constexpr GroupId kGroup{1};
// Share of --seconds given to the open-loop phase; the closed loop gets the rest.
constexpr double kOpenLoopShare = 0.5;
// Tail latency is the median of the p99s of up to kLatencyWindows equal
// slices of the open loop, each holding at least kMinWindowSamples ops of
// the kind measured; peak throughput is the median rate of fixed
// closed-loop slices. One long stall (a large gossip round, a compaction,
// the host descheduling the VM) then moves one slice, not the run's figure.
constexpr int kLatencyWindows = 32;
constexpr std::size_t kMinWindowSamples = 200;
constexpr double kRateWindowSeconds = 0.5;
// Open-loop validity: the generator may run this late (p99), and this much
// of the offered load may still be in flight when the schedule ends.
constexpr double kMaxLateUs = 20000;
constexpr double kMaxBacklogSeconds = 0.5;
// Traced runs: 1-in-N client operations carry a sampled trace.
constexpr std::uint32_t kTraceSampleEvery = 2;
constexpr std::size_t kEventCapacity = 1u << 18;

// Every workload uses MRC: under CC the store's causal holds stop releasing
// under this load (README.md), so CC cannot be measured yet.
struct Workload {
  const char* name;
  core::SharingMode sharing;
  core::ClientTrust trust;
  /// LSM engine with this memtable budget; 0 selects the in-memory engine.
  std::size_t memtable_bytes;
  std::size_t value_bytes;
  std::uint32_t items;
  double read_share;
  /// Fixed offered rate of the open-loop phase (ops/s): a constant, not
  /// derived from the measured peak, so a faster store sees the same load.
  double offered_ops_s;
  bool byzantine_server;
  /// Acknowledged writes between the last snapshot and each crash.
  std::uint32_t tail_writes;
};

// Why each workload exists is in README.md; in short: sw-small is crypto,
// dispatch and quorum bound with storage idle; lsm-small is sw-small's mix
// on the LSM engine with a memtable a fraction of the live data (flushes,
// compaction and SST reads on every server); lsm-large is storage bound
// (WAL bytes, flushes, compaction, cold SST reads); mw-byz exercises the
// §5.3 multi-writer path against a Byzantine server. BENCHMARK.json gates
// lsm-small and mw-byz; the other two run by name.
const Workload kWorkloads[] = {
    {"sw-small", core::SharingMode::kSingleWriter, core::ClientTrust::kHonest, 0, 256, 256, 0.5,
     600, false, 256},
    {"lsm-small", core::SharingMode::kSingleWriter, core::ClientTrust::kHonest, 32u << 10, 256,
     256, 0.5, 300, false, 256},
    {"lsm-large", core::SharingMode::kSingleWriter, core::ClientTrust::kHonest, 256u << 10, 4096,
     1024, 0.2, 150, false, 128},
    {"mw-byz", core::SharingMode::kMultiWriter, core::ClientTrust::kByzantine, 0, 256, 128, 0.5, 90,
     true, 64},
};

// --- Small helpers ----------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Summed utime+stime (ns) of every thread of this process except `skip`.
std::uint64_t other_threads_cpu_ns(const std::set<pid_t>& skip) {
  const double ns_per_tick = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::uint64_t total = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (skip.contains(tid)) continue;
    std::ifstream stat(std::string("/proc/self/task/") + entry->d_name + "/stat");
    std::string line;
    std::getline(stat, line);
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(line.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    total += static_cast<std::uint64_t>(static_cast<double>(utime + stime) * ns_per_tick);
  }
  closedir(dir);
  return total;
}

/// Bytes this process caused to be written to storage (/proc/self/io).
std::uint64_t process_write_bytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// --- Values: every written value names its writer and is checkable ----------
//
// Layout: "SSPB" · u64 item · u32 client · u64 seq · filler, where the filler
// is a keyed stream of (item, client, seq). A read is authentic iff the bytes
// regenerate exactly from the tag they carry.

constexpr std::size_t kTagBytes = 24;

struct Tag {
  std::uint64_t item = 0;
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
};

Bytes make_value(const Tag& tag, std::size_t size) {
  Bytes out(std::max(size, kTagBytes));
  std::memcpy(out.data(), "SSPB", 4);
  std::memcpy(out.data() + 4, &tag.item, 8);
  std::memcpy(out.data() + 12, &tag.client, 4);
  std::memcpy(out.data() + 16, &tag.seq, 8);
  std::uint64_t state = tag.item * 0x100000001B3ull ^ (std::uint64_t{tag.client} << 40) ^ tag.seq;
  for (std::size_t i = kTagBytes; i < out.size(); i += 8) {
    const std::uint64_t word = splitmix(state);
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, out.size() - i));
  }
  return out;
}

std::optional<Tag> read_tag(BytesView value, std::size_t size) {
  if (value.size() != std::max(size, kTagBytes) || std::memcmp(value.data(), "SSPB", 4) != 0) {
    return std::nullopt;
  }
  Tag tag;
  std::memcpy(&tag.item, value.data() + 4, 8);
  std::memcpy(&tag.client, value.data() + 12, 4);
  std::memcpy(&tag.seq, value.data() + 16, 8);
  const Bytes expected = make_value(tag, size);
  if (!std::equal(value.begin(), value.end(), expected.begin())) return std::nullopt;
  return tag;
}

// --- The deployment ----------------------------------------------------------

struct Op {
  std::uint32_t client = 0;  // index into clients (ClientId = index + 1)
  std::uint64_t item = 0;    // 1-based
  bool write = false;
};

/// What the checks need about every item. Dispatch thread only.
struct ItemState {
  std::uint64_t issued_max_seq = 0;  // newest write issued (single-writer order)
  std::uint64_t acked_max_seq = 0;   // newest write acknowledged
  std::int64_t last_acker = -1;      // client whose ack came last
  core::Timestamp acked_ts;          // that client's context entry after the ack
};

struct OpResult {
  bool write = false;
  bool ok = false;
  double latency_ms = 0;  // from due time (open loop) or issue (otherwise)
  double due_frac = 0;    // open loop: when it was due, as a share of the phase
};

class Deployment {
 public:
  Deployment(const Workload& workload, std::uint64_t seed, std::string dir, bool traced)
      : workload_(workload), dir_(std::move(dir)), rng_(seed) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    registry_ = std::make_shared<obs::Registry>();
    events_ = std::make_shared<obs::EventLog>(traced ? kEventCapacity : 1024);
    inner_ = std::make_unique<net::ThreadTransport>(
        sim::NetworkModel(rng_.fork(), sim::LinkProfile{kLinkDelay, 0, 0.0}), registry_,
        events_);
    if (traced) {
      timing_ = std::make_unique<TimingTransport>(
          *inner_, [](NodeId n) { return n.value < kClientNodeBase; }, kLinkDelay);
    }
    policy_ = core::GroupPolicy{kGroup, core::ConsistencyModel::kMRC, workload.sharing,
                                workload.trust};
    config_.n = kServers;
    config_.b = kFaultBound;
    if (workload.memtable_bytes != 0) {
      config_.engine.kind = core::StorageEngineKind::kLsm;
      config_.engine.memtable_budget_bytes = workload.memtable_bytes;
    }
    for (std::uint32_t c = 1; c <= kClients; ++c) {
      client_keys_.push_back(crypto::KeyPair::generate(rng_));
      config_.client_keys[c] = client_keys_.back().public_key;
    }
    for (std::uint32_t i = 0; i < kServers; ++i) {
      config_.servers.push_back(NodeId{i});
      server_keys_.push_back(crypto::KeyPair::generate(rng_));
      config_.server_keys[NodeId{i}] = server_keys_.back().public_key;
    }
    items_.resize(workload.items + 1);
    on_dispatch([&] {
      dispatch_tid_ = gettid();
      build_servers();
      for (std::uint32_t c = 0; c < kClients; ++c) {
        in_layer(Layer::kClientIssue, [&] {
          core::SecureStoreClient::Options options;
          options.policy = policy_;
          clients_.push_back(std::make_unique<core::SecureStoreClient>(
              endpoint(), NodeId{kClientNodeBase + c + 1}, ClientId{c + 1}, client_keys_[c],
              config_, options, rng_.fork()));
        });
      }
      return 0;
    });
  }

  ~Deployment() {
    inner_->stop();
    clients_.clear();
    servers_.clear();
    timing_.reset();
    inner_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const Workload& workload() const { return workload_; }
  net::Transport& endpoint() {
    return timing_ != nullptr ? static_cast<net::Transport&>(*timing_) : *inner_;
  }
  net::ThreadTransport& inner() { return *inner_; }
  TimingTransport* timing() { return timing_.get(); }
  obs::Registry& registry() { return *registry_; }
  obs::EventLog& events() { return *events_; }
  pid_t dispatch_tid() const { return dispatch_tid_; }
  std::vector<std::unique_ptr<core::SecureStoreServer>>& servers() { return servers_; }
  std::vector<std::unique_ptr<core::SecureStoreClient>>& clients() { return clients_; }
  std::string server_dir(std::uint32_t i) const { return dir_ + "/server-" + std::to_string(i); }

  /// Runs `fn` on the dispatch thread and returns its result.
  template <typename Fn>
  std::decay_t<std::invoke_result_t<Fn>> on_dispatch(Fn fn) {
    std::promise<std::decay_t<std::invoke_result_t<Fn>>> done;
    endpoint().schedule(0, [&] { done.set_value(fn()); });
    return done.get_future().get();
  }

  /// Runs `fn` inside a timing frame when traced (labels the timers it arms).
  void in_layer(Layer layer, const std::function<void()>& fn,
                std::uint32_t node = TimingTransport::kNoNode) {
    if (timing_ != nullptr) {
      timing_->measure(layer, fn, node);
    } else {
      fn();
    }
  }

  /// Dispatch thread: constructs all n servers (a reboot replays disk state).
  void build_servers() {
    for (std::uint32_t i = 0; i < kServers; ++i) {
      in_layer(Layer::kGossip, [&] { servers_.push_back(make_server(i)); }, i);
    }
  }

  /// Dispatch thread: destroys every server without a clean shutdown.
  void crash_servers() { servers_.clear(); }

  // --- operations (dispatch thread) ----------------------------------------

  /// Issues one op; `done(ok)` runs on the dispatch thread when it settles.
  /// Reads are checked for authenticity here; failures of a check are
  /// counted as correctness violations.
  void issue(const Op& op, std::function<void(bool ok)> done) {
    core::SecureStoreClient& client = *clients_[op.client];
    const auto start = Clock::now();
    in_layer(Layer::kClientIssue, [&] {
      if (op.write) {
        ItemState& item = items_[op.item];
        const std::uint64_t seq = ++write_seq_;
        item.issued_max_seq = std::max(item.issued_max_seq, seq);
        writers_.emplace(seq, std::make_pair(op.client, op.item));
        const Bytes value =
            make_value(Tag{op.item, op.client + 1, seq}, workload_.value_bytes);
        client.write(ItemId{op.item}, value,
                     [this, op, seq, done = std::move(done)](VoidResult result) {
                       if (result.ok()) {
                         ItemState& state = items_[op.item];
                         state.acked_max_seq = std::max(state.acked_max_seq, seq);
                         state.last_acker = op.client;
                         state.acked_ts = clients_[op.client]->context().get(ItemId{op.item});
                         ++acked_writes_;
                       } else {
                         note_failure(result.error());
                       }
                       done(result.ok());
                     });
      } else {
        client.read(ItemId{op.item}, [this, op, done = std::move(done)](
                                         Result<core::ReadOutput> result) {
          if (!result.ok()) {
            note_failure(result.error());
            done(false);
            return;
          }
          check_read(op, *result, /*sweep=*/false);
          done(true);
        });
      }
    });
    issue_us_.push_back(std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    for (const auto& server : servers_) hold_max_ = std::max(hold_max_, server->held_writes());
  }

  /// Checks a read: the value must regenerate from the (item, writer, seq)
  /// tag it carries, name an issued write of this item, and match the
  /// writer the client verified. A sweep read also must not be older than
  /// the reading client's newest acknowledged write.
  void check_read(const Op& op, const core::ReadOutput& out, bool sweep) {
    const std::optional<Tag> tag = read_tag(out.value, workload_.value_bytes);
    if (!tag.has_value()) return violation("read returned a value no client wrote", op);
    const auto writer = writers_.find(tag->seq);
    if (tag->item != op.item || writer == writers_.end() ||
        writer->second != std::make_pair(tag->client - 1, op.item)) {
      return violation("read returned a value tag that was never issued for this item", op);
    }
    if (out.writer != ClientId{tag->client}) {
      return violation("read returned a value attributed to the wrong writer", op);
    }
    if (!sweep) return;
    const ItemState& state = items_[op.item];
    if (out.ts < state.acked_ts) violation("read lost an acknowledged write", op);
    if (workload_.sharing == core::SharingMode::kSingleWriter &&
        (tag->seq < state.acked_max_seq || tag->seq > state.issued_max_seq)) {
      violation("single-writer read is not the newest acknowledged (or a newer) value", op);
    }
  }

  void violation(const std::string& what, const Op& op) {
    ++violations_;
    if (violation_messages_.size() < 8) {
      violation_messages_.push_back(what + " (item " + std::to_string(op.item) + ", client " +
                                    std::to_string(op.client + 1) + ")");
    }
  }

  void note_failure(Error error) { ++failures_by_error_[error_name(error)]; }

  std::vector<ItemState>& items() { return items_; }
  std::uint64_t acked_writes() const { return acked_writes_; }
  std::uint64_t violations() const { return violations_; }
  const std::vector<std::string>& violation_messages() const { return violation_messages_; }
  const std::map<std::string, std::uint64_t>& failures_by_error() const {
    return failures_by_error_;
  }
  std::vector<double>& issue_us() { return issue_us_; }
  /// Deepest causal-hold queue any server had when an op was issued.
  std::size_t& hold_max() { return hold_max_; }

 private:
  std::unique_ptr<core::SecureStoreServer> make_server(std::uint32_t i) {
    core::SecureStoreServer::Options options;  // library defaults otherwise
    const std::string base = server_dir(i);
    std::filesystem::create_directories(base);
    options.snapshot_path = base + "/snapshot.bin";
    // Snapshots are taken by the workload (before each crash), never by
    // the timer, so every run replays the same WAL tail.
    options.snapshot_period = seconds(3600);
    core::SecureStoreServer::DurabilityOptions durability;
    durability.wal_dir = base + "/wal";
    durability.data_dir = base + "/lsm";
    durability.fsync = storage::FsyncPolicy::kAlways;
    options.durability = durability;
    options.group_policies = {policy_};
    std::unique_ptr<core::SecureStoreServer> server;
    if (workload_.byzantine_server && i == kServers - 1) {
      server = std::make_unique<faults::FaultyServer>(
          endpoint(), NodeId{i}, config_, server_keys_[i], options, Rng(server_seed(i)),
          std::set<faults::ServerFault>{faults::ServerFault::kStaleData,
                                        faults::ServerFault::kCorruptValues});
    } else {
      server = std::make_unique<core::SecureStoreServer>(endpoint(), NodeId{i}, config_,
                                                         server_keys_[i], options,
                                                         Rng(server_seed(i)));
    }
    server->set_group_policy(policy_);
    return server;
  }
  std::uint64_t server_seed(std::uint32_t i) { return rng_.next_u64() ^ i; }

  const Workload& workload_;
  std::string dir_;
  Rng rng_;
  std::shared_ptr<obs::Registry> registry_;
  std::shared_ptr<obs::EventLog> events_;
  std::unique_ptr<net::ThreadTransport> inner_;
  std::unique_ptr<TimingTransport> timing_;
  core::GroupPolicy policy_;
  core::StoreConfig config_;
  std::vector<crypto::KeyPair> client_keys_;
  std::vector<crypto::KeyPair> server_keys_;
  std::vector<std::unique_ptr<core::SecureStoreServer>> servers_;
  std::vector<std::unique_ptr<core::SecureStoreClient>> clients_;
  pid_t dispatch_tid_ = 0;

  // Dispatch-thread state.
  std::vector<ItemState> items_;
  std::map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>> writers_;  // seq -> (client, item)
  std::uint64_t write_seq_ = 0;
  std::uint64_t acked_writes_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<std::string> violation_messages_;
  std::map<std::string, std::uint64_t> failures_by_error_;
  std::vector<double> issue_us_;
  std::size_t hold_max_ = 0;
};

// --- Op choice -----------------------------------------------------------

/// The client that owns `item` under single-writer sharing (and writes it
/// at preload under every sharing mode).
std::uint32_t owner_of(std::uint64_t item) {
  return static_cast<std::uint32_t>((item - 1) % kClients);
}

Op draw_op(const Workload& w, Rng& rng, bool writes_only = false) {
  Op op;
  op.item = 1 + rng.next_below(w.items);
  op.write = writes_only || !rng.next_bool(w.read_share);
  if (op.write && w.sharing == core::SharingMode::kSingleWriter) {
    op.client = owner_of(op.item);
  } else {
    op.client = static_cast<std::uint32_t>(rng.next_below(kClients));
  }
  return op;
}

/// Runs `ops` with at most kInFlight outstanding, returning every result.
/// Used for preload, sweeps and recovery tails (not timed as a metric).
std::vector<OpResult> run_batch(Deployment& d, const std::vector<Op>& ops,
                                bool sweep = false) {
  struct State {
    std::size_t next = 0;
    std::size_t done = 0;
    std::vector<OpResult> results;
    std::promise<void> finished;
  };
  State state;
  state.results.resize(ops.size());
  if (ops.empty()) return {};
  std::function<void()> issue_next = [&] {
    if (state.next >= ops.size()) return;
    const std::size_t index = state.next++;
    const Op& op = ops[index];
    const auto start = Clock::now();
    auto settle = [&, index, start](bool ok) {
      state.results[index] =
          OpResult{ops[index].write, ok, seconds_between(start, Clock::now()) * 1e3};
      if (++state.done == ops.size()) {
        state.finished.set_value();
      } else {
        issue_next();
      }
    };
    if (sweep && !op.write) {
      core::SecureStoreClient& client = *d.clients()[op.client];
      d.in_layer(Layer::kClientIssue, [&] {
        client.read(ItemId{op.item}, [&d, op, settle](Result<core::ReadOutput> result) {
          if (result.ok()) {
            d.check_read(op, *result, /*sweep=*/true);
          } else {
            d.note_failure(result.error());
          }
          settle(result.ok());
        });
      });
    } else {
      d.issue(op, settle);
    }
  };
  d.endpoint().schedule(0, [&] {
    for (std::uint32_t i = 0; i < kInFlight; ++i) issue_next();
  });
  state.finished.get_future().wait();
  return std::move(state.results);
}

std::size_t count_failed(const std::vector<OpResult>& results) {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(), [](const OpResult& r) { return !r.ok; }));
}

/// Connects (or disconnects) every client; returns how many failed.
std::size_t session_all(Deployment& d, bool connect) {
  std::promise<void> finished;
  std::size_t pending = d.clients().size();
  std::size_t failed = 0;
  d.endpoint().schedule(0, [&] {
    for (auto& client : d.clients()) {
      auto done = [&](VoidResult result) {
        if (!result.ok()) ++failed;
        if (--pending == 0) finished.set_value();
      };
      d.in_layer(Layer::kClientIssue, [&] {
        if (connect) {
          client->connect(kGroup, done);
        } else {
          client->disconnect(done);
        }
      });
    }
  });
  finished.get_future().wait();
  return failed;
}

/// Reads every item through the client whose write to it was acknowledged
/// last (the owner, under single-writer sharing). Returns failed reads.
std::size_t sweep(Deployment& d) {
  std::vector<Op> ops;
  d.on_dispatch([&] {
    for (std::uint64_t item = 1; item < d.items().size(); ++item) {
      const std::int64_t reader = d.items()[item].last_acker;
      ops.push_back(Op{static_cast<std::uint32_t>(
                           reader >= 0 ? reader : owner_of(item)),
                       item, false});
    }
    return 0;
  });
  return count_failed(run_batch(d, ops, /*sweep=*/true));
}

/// Waits until gossip has spread every item's newest version to every honest
/// server, so the measured phases do not start inside the catch-up burst that
/// follows a preload. Returns false if that takes longer than `limit_s`.
bool wait_converged(Deployment& d, double limit_s) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(limit_s));
  const std::size_t honest =
      d.workload().byzantine_server ? kServers - 1 : static_cast<std::size_t>(kServers);
  while (Clock::now() < deadline) {
    const bool converged = d.on_dispatch([&] {
      for (std::uint64_t item = 1; item < d.items().size(); ++item) {
        const core::WriteRecord* first = d.servers()[0]->store().current(ItemId{item});
        if (first == nullptr) return false;
        const core::Timestamp ts = first->ts;
        for (std::size_t i = 1; i < honest; ++i) {
          const core::WriteRecord* other = d.servers()[i]->store().current(ItemId{item});
          if (other == nullptr || !(other->ts == ts)) return false;
        }
      }
      return true;
    });
    if (converged) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

// --- Set-up ------------------------------------------------------------------

std::unique_ptr<Deployment> set_up(const Workload& w, std::uint64_t seed, const std::string& dir,
                                   bool traced, double& seconds_taken) {
  const auto start = Clock::now();
  auto d = std::make_unique<Deployment>(w, seed, dir, traced);
  if (session_all(*d, /*connect=*/true) != 0) throw std::runtime_error("set-up: P1 connect failed");
  std::vector<Op> preload;
  for (std::uint64_t item = 1; item <= w.items; ++item) {
    preload.push_back(Op{owner_of(item), item, true});
  }
  if (count_failed(run_batch(*d, preload)) != 0) throw std::runtime_error("set-up: preload failed");
  seconds_taken = seconds_between(start, Clock::now());
  return d;
}

// --- Counters read around the measured phases -----------------------------

struct Counters {
  std::uint64_t signs = 0, verifies = 0, digests = 0;
  std::uint64_t wal_fsyncs = 0, wal_bytes = 0;
  std::uint64_t lsm_flushes = 0, lsm_compactions = 0, lsm_sst_files = 0;
  std::uint64_t dispatch_cpu_ns = 0;
  std::uint64_t background_cpu_ns = 0;
  std::uint64_t io_write_bytes = 0;
  std::uint64_t acked_writes = 0;
  Clock::time_point at;
};

Counters read_counters(Deployment& d) {
  Counters c = d.on_dispatch([&] {
    Counters out;
    const crypto::CryptoMeter& meter = crypto::CryptoMeter::instance();
    out.signs = meter.signs;
    out.verifies = meter.verifies;
    out.digests = meter.digests;
    for (auto& server : d.servers()) {
      if (const storage::WalStats* wal = server->wal_stats()) {
        out.wal_fsyncs += wal->fsyncs;
        out.wal_bytes += wal->bytes_appended;
      }
      if (auto* lsm = dynamic_cast<storage::lsm::LsmStore*>(&server->store())) {
        const auto stats = lsm->stats();
        out.lsm_flushes += stats.flushes;
        out.lsm_compactions += stats.compactions;
        out.lsm_sst_files += stats.sst_files;
      }
    }
    out.dispatch_cpu_ns = perfbench::thread_cpu_ns();
    out.acked_writes = d.acked_writes();
    return out;
  });
  c.background_cpu_ns = other_threads_cpu_ns({getpid(), d.dispatch_tid()});
  c.io_write_bytes = process_write_bytes();
  c.at = Clock::now();
  return c;
}

// --- The measured phases -------------------------------------------------

struct OpenLoopResult {
  std::vector<OpResult> results;
  std::vector<double> late_us;
  std::size_t backlog_end = 0;
  std::size_t ok_by_end = 0;
  double seconds = 0;
};

/// Seeded Poisson arrivals at the workload's fixed rate; each op is timed
/// from its due time, so a stall shows up in every op it delays.
OpenLoopResult open_loop(Deployment& d, Rng& rng, double phase_seconds) {
  const Workload& w = d.workload();
  struct Planned {
    double due_s;
    Op op;
  };
  // A Poisson process conditioned on its count: exactly rate × duration
  // arrivals at uniformly drawn times, so every seed offers the same load.
  const std::size_t arrivals = static_cast<std::size_t>(std::llround(w.offered_ops_s * phase_seconds));
  std::vector<double> due;
  for (std::size_t i = 0; i < arrivals; ++i) due.push_back(rng.next_double() * phase_seconds);
  std::sort(due.begin(), due.end());
  std::vector<Planned> plan;
  for (const double t : due) plan.push_back(Planned{t, draw_op(w, rng)});

  OpenLoopResult out;
  out.results.resize(plan.size());
  out.late_us.reserve(plan.size());
  std::atomic<std::size_t> settled{0};
  std::atomic<std::size_t> ok_count{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(plan[i].due_s));
    std::this_thread::sleep_until(due);
    out.late_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - due).count());
    d.endpoint().schedule(0, [&, i, due] {
      d.issue(plan[i].op, [&, i, due](bool ok) {
        out.results[i] = OpResult{plan[i].op.write, ok,
                                  ok ? seconds_between(due, Clock::now()) * 1e3 : INFINITY,
                                  plan[i].due_s / phase_seconds};
        if (ok) ok_count.fetch_add(1, std::memory_order_relaxed);
        settled.fetch_add(1, std::memory_order_release);
      });
    });
  }
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(phase_seconds));
  std::this_thread::sleep_until(end);
  out.backlog_end = plan.size() - settled.load(std::memory_order_acquire);
  out.ok_by_end = ok_count.load(std::memory_order_relaxed);
  out.seconds = phase_seconds;
  while (settled.load(std::memory_order_acquire) < plan.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return out;
}

struct ClosedLoopResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double ops_per_s = 0;
};

/// kInFlight ops outstanding across all clients; each completion issues the
/// next op. Throughput is counted after a short ramp-up.
ClosedLoopResult closed_loop(Deployment& d, Rng& rng, double phase_seconds) {
  const Workload& w = d.workload();
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  std::size_t attempted = 0, failed = 0, in_flight = 0;  // dispatch thread
  std::promise<void> drained;
  std::function<void()> issue_next = [&] {
    if (stop.load(std::memory_order_relaxed)) {
      if (--in_flight == 0) drained.set_value();
      return;
    }
    ++attempted;
    d.issue(draw_op(w, rng), [&](bool ok) {
      if (!ok) ++failed;
      completed.fetch_add(1, std::memory_order_relaxed);
      issue_next();
    });
  };
  d.endpoint().schedule(0, [&] {
    in_flight = kInFlight;
    for (std::uint32_t i = 0; i < kInFlight; ++i) issue_next();
  });
  const double ramp = std::min(0.25, phase_seconds * 0.1);
  std::this_thread::sleep_for(std::chrono::duration<double>(ramp));
  std::vector<double> rates;
  auto window_start = Clock::now();
  std::size_t window_count = completed.load(std::memory_order_relaxed);
  const auto measure_start = window_start;
  const std::size_t measure_count = window_count;
  const auto end = window_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(phase_seconds - ramp));
  while (true) {
    const auto window_end = window_start + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(kRateWindowSeconds));
    if (window_end > end) break;
    std::this_thread::sleep_until(window_end);
    const std::size_t now = completed.load(std::memory_order_relaxed);
    rates.push_back(static_cast<double>(now - window_count) / seconds_between(window_start, Clock::now()));
    window_start = Clock::now();
    window_count = now;
  }
  const double mean_rate = static_cast<double>(window_count - measure_count) /
                           seconds_between(measure_start, window_start);
  stop.store(true, std::memory_order_relaxed);
  drained.get_future().wait();
  ClosedLoopResult out;
  d.on_dispatch([&] {
    out.attempted = attempted;
    out.failed = failed;
    return 0;
  });
  out.ops_per_s = median(rates);
  std::printf("closed-loop ops/s over %zu windows: min %.0f p25 %.0f p50 %.0f p75 %.0f max %.0f mean %.1f\n",
              rates.size(), quantile(rates, 0), quantile(rates, 0.25), out.ops_per_s,
              quantile(rates, 0.75), quantile(rates, 1), mean_rate);
  return out;
}

/// Snapshot every server, write a fixed tail, let gossip spread it, store
/// contexts, crash every server, reboot from disk and time until every
/// client re-acquired its context with P1. Returns seconds, or a negative
/// value on failure. Each crash thus finds the same state: an LSM engine is
/// compacted before the snapshot (not wherever background compaction
/// stood), and no gossip round is half done.
double crash_and_recover(Deployment& d, Rng& rng, std::uint64_t& replayed_entries,
                         double& reboot_seconds) {
  const Workload& w = d.workload();
  d.on_dispatch([&] {
    for (auto& server : d.servers()) {
      if (auto* lsm = dynamic_cast<storage::lsm::LsmStore*>(&server->store())) lsm->compact_now();
      server->save_snapshot_now();
    }
    return 0;
  });
  std::vector<Op> tail;
  for (std::uint32_t i = 0; i < w.tail_writes; ++i) tail.push_back(draw_op(w, rng, true));
  if (count_failed(run_batch(d, tail)) != 0) return -1;
  if (!wait_converged(d, 10.0)) return -1;
  if (session_all(d, /*connect=*/false) != 0) return -1;

  const auto start = Clock::now();
  replayed_entries = d.on_dispatch([&] {
    d.crash_servers();
    d.build_servers();
    std::uint64_t replayed = 0;
    for (auto& server : d.servers()) {
      if (const storage::WalStats* wal = server->wal_stats()) replayed += wal->replayed_entries;
    }
    return replayed;
  });
  reboot_seconds = seconds_between(start, Clock::now());
  if (session_all(d, /*connect=*/true) != 0) return -1;
  return seconds_between(start, Clock::now());
}

// --- Output -----------------------------------------------------------------

/// Median over the open loop's slices of each slice's p99 (failures count as
/// beyond every percentile).
double windowed_p99(const std::vector<OpResult>& results, bool writes) {
  const std::size_t count = static_cast<std::size_t>(std::count_if(
      results.begin(), results.end(), [&](const OpResult& r) { return r.write == writes; }));
  const int windows =
      std::clamp(static_cast<int>(count / kMinWindowSamples), 1, kLatencyWindows);
  std::vector<std::vector<double>> slices(windows);
  for (const OpResult& r : results) {
    if (r.write != writes) continue;
    const int slice = std::min(windows - 1, static_cast<int>(r.due_frac * windows));
    slices[slice].push_back(r.ok ? r.latency_ms : INFINITY);
  }
  std::vector<double> p99s;
  for (const auto& slice : slices) {
    if (!slice.empty()) p99s.push_back(quantile(slice, 0.99));
  }
  return median(p99s);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e300;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

const obs::HistogramSnapshot* find_histogram(const obs::MetricsSnapshot& snap,
                                             std::string_view prefix, std::string_view suffix) {
  for (const auto& [name, histogram] : snap.histograms) {
    if (name.starts_with(prefix) && name.ends_with(suffix) && histogram.count != 0) {
      return &histogram;
    }
  }
  return nullptr;
}

double hist_quantile(const obs::HistogramSnapshot* h, double q) {
  return h != nullptr ? h->quantile(q) : 0.0;
}

std::uint64_t counter_sum(const obs::MetricsSnapshot& snap, std::string_view prefix,
                          std::string_view suffix = "") {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with(prefix) && name.ends_with(suffix)) total += value;
  }
  return total;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // required: run.py passes BENCHMARK.json's run_seconds
  bool trace = false;
  std::string data_dir = ".bench_data";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--data-dir") {
      args.data_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return args;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) throw std::invalid_argument("unknown workload '" + args.workload + "'");
  const Workload& w = *found;
  const std::string dir =
      args.data_dir + "/" + w.name + "-" + std::to_string(args.seed) + "-" + std::to_string(getpid());
  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 17);

  // Wall time of each step of the run, printed for whoever sizes a workload.
  std::string phase_times;
  auto phase_start = Clock::now();
  auto end_phase = [&](const char* name) {
    const auto now = Clock::now();
    char part[64];
    std::snprintf(part, sizeof part, "%s%s %.2f", phase_times.empty() ? "" : ", ", name,
                  seconds_between(phase_start, now));
    phase_times += part;
    phase_start = now;
  };

  // Set-up, several times; the median is the metric, the last one is used.
  std::vector<double> setup_seconds;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();
    double taken = 0;
    d = set_up(w, args.seed, dir + "-setup" + std::to_string(i), args.trace, taken);
    setup_seconds.push_back(taken);
  }
  std::printf("workload %s seed %llu: set-up %.3f s (median of %d)\n", w.name,
              static_cast<unsigned long long>(args.seed), median(setup_seconds), kSetupRepeats);
  end_phase("set-up");
  if (!wait_converged(*d, 10.0)) throw std::runtime_error("gossip did not converge after preload");
  end_phase("converge");

  // Measured phases start from zeroed registry histograms and transport stats.
  d->registry().reset();
  d->inner().reset_stats();
  TimingTransport* timing = d->timing();
  auto set_tracing = [&](bool on) {
    if (timing == nullptr) return std::uint64_t{0};
    return d->on_dispatch([&] {
      timing->set_timing(on);
      d->events().set_sample_every(kTraceSampleEvery);
      d->events().set_enabled(on);
      return perfbench::thread_cpu_ns();
    });
  };

  const double open_seconds = args.seconds * kOpenLoopShare;
  const double closed_seconds = args.seconds - open_seconds;
  d->on_dispatch([&] {
    d->issue_us().clear();
    d->hold_max() = 0;
    return 0;
  });
  const Counters before = read_counters(*d);
  std::uint64_t traced_cpu_ns = 0;
  std::uint64_t trace_on_at = set_tracing(true);
  OpenLoopResult open = open_loop(*d, rng, open_seconds);
  const std::uint64_t open_traced_ops = open.results.size();
  traced_cpu_ns += set_tracing(false) - trace_on_at;
  end_phase("open loop");

  const std::size_t sweep1_failed = sweep(*d);
  end_phase("sweep");

  ClosedLoopResult closed;
  double untraced_peak = 0;
  std::uint64_t closed_traced_ops = 0;
  if (timing == nullptr) {
    closed = closed_loop(*d, rng, closed_seconds);
  } else {
    // Traced runs split the closed loop: first half untraced, second half
    // traced, so the tracing overhead is measured on the same deployment.
    const ClosedLoopResult plain = closed_loop(*d, rng, closed_seconds / 2);
    untraced_peak = plain.ops_per_s;
    trace_on_at = set_tracing(true);
    closed = closed_loop(*d, rng, closed_seconds / 2);
    traced_cpu_ns += set_tracing(false) - trace_on_at;
    closed_traced_ops = closed.attempted;
    closed.attempted += plain.attempted;
    closed.failed += plain.failed;
  }
  end_phase("closed loop");
  const std::size_t hold_max = d->on_dispatch([&] { return d->hold_max(); });
  const Counters after = read_counters(*d);
  const double context_entries_mean = d->on_dispatch([&] {
    double total = 0;
    for (auto& client : d->clients()) total += static_cast<double>(client->context().size());
    return total / static_cast<double>(d->clients().size());
  });
  const sim::TransportStats net_stats = d->inner().stats();
  std::uint64_t lsm_disk_bytes = 0;
  for (std::uint32_t i = 0; i < kServers; ++i) lsm_disk_bytes += dir_bytes(d->server_dir(i) + "/lsm");
  const obs::MetricsSnapshot snap = d->registry().snapshot();
  const std::vector<obs::Event> events = timing != nullptr ? d->events().snapshot()
                                                          : std::vector<obs::Event>{};
  struct Traced {
    TimingTransport::Totals totals;
    std::vector<double> waits;
  };
  const Traced traced = timing == nullptr ? Traced{}
                                          : d->on_dispatch([&] {
                                              Traced t{timing->totals(), {}};
                                              t.waits.assign(timing->delivery_wait_us().begin(),
                                                             timing->delivery_wait_us().end());
                                              return t;
                                            });
  std::vector<double> issue_us = d->on_dispatch([&] { return d->issue_us(); });

  // Crash/recover cycles, then the second sweep.
  std::vector<double> recovery_seconds, reboot_seconds;
  std::uint64_t replayed_entries = 0;
  bool recovery_ok = true;
  for (int i = 0; i < kRecoveryRepeats && recovery_ok; ++i) {
    double reboot = 0;
    const double s = crash_and_recover(*d, rng, replayed_entries, reboot);
    if (s < 0) recovery_ok = false;
    recovery_seconds.push_back(s);
    reboot_seconds.push_back(reboot);
  }
  end_phase("crash/recover");
  // Rebooted servers re-disseminate what each holds; the sweep checks the
  // converged state (a lost write never converges and fails the wait).
  const bool reconverged = recovery_ok && wait_converged(*d, 20.0);
  end_phase("converge");
  const std::size_t sweep2_failed = reconverged ? sweep(*d) : 0;
  end_phase("sweep");

  // --- correctness and validity ---
  const std::uint64_t violations = d->on_dispatch([&] { return d->violations(); });
  const auto failures_by_error = d->on_dispatch([&] { return d->failures_by_error(); });
  const auto messages = d->on_dispatch([&] { return d->violation_messages(); });
  const double late_p99 = quantile(open.late_us, 0.99);
  std::printf("generator lateness us: p50 %.1f p99 %.1f max %.1f; backlog at schedule end %zu\n",
              quantile(open.late_us, 0.5), late_p99, quantile(open.late_us, 1.0), open.backlog_end);
  const double max_backlog = std::max(16.0, w.offered_ops_s * kMaxBacklogSeconds);
  bool correct = true;
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    correct = false;
  };
  for (const std::string& m : messages) fail(m);
  if (violations != 0) fail(std::to_string(violations) + " read check(s) failed");
  if (sweep1_failed != 0) fail(std::to_string(sweep1_failed) + " read(s) failed in the sweep after the open loop");
  if (!recovery_ok) fail("crash/recovery cycle failed (tail write, disconnect or reconnect)");
  if (recovery_ok && !reconverged) fail("honest servers did not converge after recovery");
  if (sweep2_failed != 0) fail(std::to_string(sweep2_failed) + " read(s) failed in the sweep after recovery");
  if (late_p99 > kMaxLateUs) fail("open loop invalid: generator ran late (p99 " + std::to_string(late_p99) + " us)");
  if (static_cast<double>(open.backlog_end) > max_backlog) {
    fail("open loop invalid: backlog of " + std::to_string(open.backlog_end) + " ops at schedule end");
  }
  for (const auto& [error, count] : failures_by_error) {
    std::printf("failed ops: %s x %llu\n", error.c_str(), static_cast<unsigned long long>(count));
  }

  // --- end-to-end metrics ---
  std::vector<double> write_ms, read_ms;
  std::size_t open_failed = 0;
  for (const OpResult& r : open.results) {
    (r.write ? write_ms : read_ms).push_back(r.ok ? r.latency_ms : INFINITY);
    if (!r.ok) ++open_failed;
  }
  for (const auto* series : {&write_ms, &read_ms}) {
    std::printf("%s latency ms: p50 %.2f p90 %.2f p95 %.2f p99 %.2f p99.9 %.2f max %.2f (%zu ops)\n",
                series == &write_ms ? "write" : "read", quantile(*series, 0.5),
                quantile(*series, 0.9), quantile(*series, 0.95), quantile(*series, 0.99),
                quantile(*series, 0.999), quantile(*series, 1.0), series->size());
  }
  const std::uint64_t attempted = open.results.size() + closed.attempted;
  const std::uint64_t failed = open_failed + closed.failed;
  const double ok_frac = 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  std::vector<Metric> e2e = {
      {"setup_s", median(setup_seconds), "s"},
      {"write_p50_ms", quantile(write_ms, 0.50), "ms"},
      {"goodput_ops_s", static_cast<double>(open.ok_by_end) / open.seconds, "ops/s"},
      {"ok_frac", ok_frac, "ratio"},
      {"peak_ops_s", closed.ops_per_s, "ops/s"},
      {"recovery_s", recovery_seconds.empty() ? 0 : median(recovery_seconds), "s"},
  };

  // --- per-layer metrics ---
  const double ops = static_cast<double>(attempted);
  const double measured_s = seconds_between(before.at, after.at);
  const double acked_writes = static_cast<double>(after.acked_writes - before.acked_writes);
  const double user_bytes = acked_writes * static_cast<double>(w.value_bytes);
  const double traced_ops = static_cast<double>(open_traced_ops + closed_traced_ops);
  auto layer_us = [&](Layer layer) {
    return traced_ops > 0
               ? static_cast<double>(traced.totals.cpu_ns[static_cast<std::size_t>(layer)]) /
                     1e3 / traced_ops
               : 0.0;
  };
  double attributed_us = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    attributed_us += layer_us(static_cast<Layer>(i));
  }
  const double busy_us = traced_ops > 0 ? static_cast<double>(traced_cpu_ns) / 1e3 / traced_ops : 0;
  std::vector<double> verify_us;
  double verify_total_us = 0;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kSpan && e.name == "server.verify") {
      verify_us.push_back(static_cast<double>(e.dur_us));
      verify_total_us += static_cast<double>(e.dur_us);
    }
  }
  const char* proto = w.sharing == core::SharingMode::kSingleWriter
                          ? "client.p3.write"
                          : (w.trust == core::ClientTrust::kByzantine ? "client.p6.write"
                                                                      : "client.p5.write");
  const char* read_proto = w.sharing == core::SharingMode::kSingleWriter
                               ? "client.p4.read"
                               : (w.trust == core::ClientTrust::kByzantine ? "client.p6.read"
                                                                           : "client.p5.read");
  const obs::HistogramSnapshot* lag = find_histogram(snap, "gossip.write_to_visible_us", "");
  const obs::HistogramSnapshot* apply = find_histogram(snap, "server.apply_us", "");
  const obs::HistogramSnapshot* wal_append = find_histogram(snap, "server.wal.append_us", "");
  const obs::HistogramSnapshot* wal_sync = find_histogram(snap, "server.wal.sync_us", "");
  const obs::HistogramSnapshot* batch = find_histogram(snap, "server.batch_size", "");
  double compaction_lag_p99 = 0;
  for (const auto& [name, h] : snap.histograms) {
    if (name.ends_with("storage.compaction_lag_us") && h.count != 0) {
      compaction_lag_p99 = std::max(compaction_lag_p99, h.p99());
    }
  }
  const std::uint64_t server_requests = counter_sum(snap, "server.req.");
  const std::uint64_t prefix_bytes =
      timing != nullptr ? net_stats.messages_sent * TimingTransport::kPrefixBytes : 0;
  const double live_bytes = static_cast<double>(kServers) * w.items * static_cast<double>(w.value_bytes);
  auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  std::vector<Metric> layers = {
      // open-loop latencies too unsteady across runs on a shared VM to gate
      // as end-to-end metrics (see README.md); reported, not bounded
      {"write_p99_ms", windowed_p99(open.results, true), "ms"},
      {"read_p50_ms", quantile(read_ms, 0.50), "ms"},
      {"read_p99_ms", windowed_p99(open.results, false), "ms"},
      // crypto
      {"crypto.signs_per_op", static_cast<double>(after.signs - before.signs) / ops, "count"},
      {"crypto.verifies_per_op", static_cast<double>(after.verifies - before.verifies) / ops, "count"},
      {"crypto.digests_per_op", static_cast<double>(after.digests - before.digests) / ops, "count"},
      {"client.sign_us_p50", hist_quantile(find_histogram(snap, proto, ".sign_us"), 0.5), "us"},
      {"server.verify_us_p50", median(verify_us), "us"},
      {"server.verify_us_per_op", traced_ops > 0 ? verify_total_us * kTraceSampleEvery / traced_ops : 0, "us"},
      // net
      {"net.msgs_per_op", static_cast<double>(net_stats.messages_sent) / ops, "count"},
      {"net.bytes_per_op", static_cast<double>(net_stats.bytes_sent - prefix_bytes) / ops, "bytes"},
      {"net.dispatcher_busy_frac", static_cast<double>(after.dispatch_cpu_ns - before.dispatch_cpu_ns) / 1e9 / measured_s, "ratio"},
      {"net.delivery_wait_us_p50", quantile(traced.waits, 0.50), "us"},
      {"net.delivery_wait_us_p99", quantile(traced.waits, 0.99), "us"},
      {"net.ring_highwater", static_cast<double>(net_stats.ring_occupancy_highwater), "count"},
      {"net.ring_full_drops", static_cast<double>(net_stats.ring_full_drops), "count"},
      {"rpc.response_expired", counter("rpc.response_expired"), "count"},
      {"server.batch_size_mean", batch != nullptr ? batch->mean() : 0, "count"},
      // core.client
      {"client.issue_us_p50", median(issue_us), "us"},
      {"client.issue_us_per_op", layer_us(Layer::kClientIssue), "us"},
      {"client.reply_us_per_op", layer_us(Layer::kClientReply), "us"},
      {"client.timer_us_per_op", layer_us(Layer::kClientTimer), "us"},
      {"client.quorum_us_p50", hist_quantile(find_histogram(snap, proto, ".quorum_us"), 0.5), "us"},
      {"client.read_verify_us_p50", hist_quantile(find_histogram(snap, read_proto, ".verify_us"), 0.5), "us"},
      {"client.retries_per_op", static_cast<double>(counter_sum(snap, "client.", ".retries")) / ops, "count"},
      {"client.fault.forgery", counter("client.fault.forgery"), "count"},
      {"client.fault.silent", counter("client.fault.silent"), "count"},
      {"client.refused", counter("client.refused"), "count"},
      {"client.deadline_exceeded", counter("client.deadline_exceeded"), "count"},
      {"client.context_entries_mean", context_entries_mean, "count"},
      // core.server
      {"server.busy_us_per_op", layer_us(Layer::kServerRequest), "us"},
      {"server.apply_us_p50", hist_quantile(apply, 0.50), "us"},
      {"server.apply_us_p99", hist_quantile(apply, 0.99), "us"},
      {"server.shed_frac", server_requests != 0 ? counter("server.shed") / static_cast<double>(server_requests) : 0, "ratio"},
      {"server.hold_queue_depth_max", static_cast<double>(hold_max), "count"},
      {"server.equivocations", counter("server.equivocations"), "count"},
      // storage.wal
      {"wal.append_us_p50", hist_quantile(wal_append, 0.50), "us"},
      {"wal.append_us_p99", hist_quantile(wal_append, 0.99), "us"},
      {"wal.sync_us_p50", hist_quantile(wal_sync, 0.50), "us"},
      {"wal.sync_us_p99", hist_quantile(wal_sync, 0.99), "us"},
      {"wal.fsyncs_per_op", static_cast<double>(after.wal_fsyncs - before.wal_fsyncs) / ops, "count"},
      {"wal.bytes_per_user_byte", user_bytes > 0 ? static_cast<double>(after.wal_bytes - before.wal_bytes) / user_bytes : 0, "ratio"},
      {"wal.replayed_entries", static_cast<double>(replayed_entries), "count"},
      // storage.lsm
      {"lsm.flushes", static_cast<double>(after.lsm_flushes - before.lsm_flushes), "count"},
      {"lsm.compactions", static_cast<double>(after.lsm_compactions - before.lsm_compactions), "count"},
      {"lsm.compaction_lag_us_p99", compaction_lag_p99, "us"},
      {"lsm.sst_files_end", static_cast<double>(after.lsm_sst_files), "count"},
      {"lsm.space_amp", static_cast<double>(lsm_disk_bytes) / live_bytes, "ratio"},
      {"storage.write_amp", user_bytes > 0 ? static_cast<double>(after.io_write_bytes - before.io_write_bytes) / user_bytes : 0, "ratio"},
      {"lsm.background_cpu_frac", static_cast<double>(after.background_cpu_ns - before.background_cpu_ns) / 1e9 / measured_s, "ratio"},
      // gossip
      {"gossip.records_per_write", acked_writes > 0 ? counter("gossip.records_sent") / acked_writes : 0, "count"},
      {"gossip.round_us_p99", hist_quantile(find_histogram(snap, "gossip.round_us", ""), 0.99), "us"},
      {"gossip.visible_lag_us_p50", hist_quantile(lag, 0.50), "us"},
      {"gossip.visible_lag_us_p99", hist_quantile(lag, 0.99), "us"},
      {"gossip.busy_us_per_op", layer_us(Layer::kGossip), "us"},
      // harness / obs
      {"loadgen.late_us_p99", late_p99, "us"},
      {"loadgen.backlog_end", static_cast<double>(open.backlog_end), "count"},
      {"obs.trace_overhead_frac", untraced_peak > 0 ? 1.0 - closed.ops_per_s / untraced_peak : 0, "ratio"},
      {"obs.events_dropped", static_cast<double>(d->events().dropped()), "count"},
      {"bench.us_per_op", layer_us(Layer::kBench), "us"},
      {"dispatch.busy_us_per_op", busy_us, "us"},
      {"dispatch.unattributed_us_per_op", busy_us - attributed_us, "us"},
  };
  d.reset();
  end_phase("tear-down");
  std::printf("phase seconds: %s\n", phase_times.c_str());
  std::printf("recovery s over %zu cycles: min %.4f p50 %.4f max %.4f (reboot from disk p50 %.4f)\n",
              recovery_seconds.size(), quantile(recovery_seconds, 0), median(recovery_seconds),
              quantile(recovery_seconds, 1), median(reboot_seconds));

  std::printf("attempted %llu, failed %llu (open loop %zu ops at %.0f/s offered, %zu failed; "
              "closed loop %zu ops, %zu failed)\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              open.results.size(), w.offered_ops_s, open_failed, closed.attempted, closed.failed);
  std::printf("failed_frac %.6f\n", 1.0 - ok_frac);
  const std::vector<Metric>& printed = args.trace ? layers : e2e;
  for (const Metric& m : (args.trace ? e2e : layers)) {
    std::printf("  (%s) %-34s %14.4f %s\n", args.trace ? "e2e" : "layer", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : printed) {
    std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", format_json(correct, attempted, failed, printed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
