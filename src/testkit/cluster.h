// Cluster harness: one call stands up a full simulated deployment.
//
// Used by integration tests, examples and every bench: n servers (optionally
// some faulty), a seeded network model, key directories, group policies and
// client factories. Everything is deterministic in the seed.
#pragma once

#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "core/sync.h"
#include "faults/faulty_server.h"
#include "net/fault_transport.h"
#include "net/sim_transport.h"
#include "shard/hash_ring.h"
#include "sim/scheduler.h"

namespace securestore::testkit {

struct ClusterOptions {
  std::uint32_t n = 4;
  std::uint32_t b = 1;
  std::uint64_t seed = 1;
  /// How many client identities to pre-register keys for (ClientId 1..k).
  std::uint32_t max_clients = 8;
  sim::LinkProfile link = sim::lan_profile();
  gossip::GossipEngine::Config gossip;
  bool start_gossip = true;
  /// Enable the §4 authorization service: servers then require tokens.
  bool require_auth = false;
  /// Faults to inject, by server index.
  std::vector<std::pair<std::uint32_t, std::set<faults::ServerFault>>> server_faults;

  /// When set, every server and client endpoint is registered on a
  /// `net::FaultInjectingTransport` wrapping the sim transport, seeded with
  /// this value. Fault rules start empty — configure them via `chaos()`.
  std::optional<std::uint64_t> chaos_seed;

  /// Whole-operation deadline handed to clients (StoreConfig::op_timeout).
  /// Chaos tests shorten this so doomed operations fail fast.
  SimDuration op_timeout = seconds(5);

  /// Durable servers: each server i persists a snapshot plus a write-ahead
  /// log under `<durability_dir>/server-<i>/`. restart_server() then models
  /// a crash: the replacement recovers from disk (snapshot + WAL tail)
  /// instead of an in-memory snapshot.
  std::optional<std::string> durability_dir;
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kAlways;
  std::size_t wal_segment_bytes = 1u << 20;
  SimDuration snapshot_period = seconds(30);

  /// Storage engine every server runs (StoreConfig::engine, DESIGN.md §12).
  /// kLsm requires `durability_dir`: each server then keeps SSTables under
  /// `<dir>/server-<i>/lsm` next to its WAL.
  core::EngineConfig engine;

  /// Admission control applied to every server (DESIGN.md §13). Defaults
  /// never trip under healthy test load; overload tests force the
  /// watermarks down to make shedding deterministic.
  core::AdmissionController::Options admission;

  /// Metrics registry shared with the transport (and through it every
  /// client/server/gossip engine of the deployment). Null = the transport
  /// owns a fresh one. Benches pass one registry into a sweep's clusters so
  /// histograms accumulate across cells.
  std::shared_ptr<obs::Registry> registry;

  /// Distributed tracing (DESIGN.md §8): when true, the deployment's event
  /// log is enabled with 1-in-`trace_sample_every` root-span sampling
  /// before any endpoint registers. Off by default — the hot path then pays
  /// one relaxed atomic load per operation.
  bool tracing = false;
  std::uint32_t trace_sample_every = 1;
  /// Event log shared with the transport, like `registry`. Null = the
  /// transport owns a fresh one.
  std::shared_ptr<obs::EventLog> events;

  /// Sharded deployments (DESIGN.md §11): build this cluster as ONE shard
  /// of a larger deployment, on an externally owned transport stack (a
  /// ShardedCluster outlives all its groups). When set, `registry`,
  /// `events`, `link`, `chaos_seed` and `tracing` above are ignored — the
  /// shared transport already carries them — and every server metric gets
  /// a `{shard=<id>}` suffix so per-group series stay distinguishable in
  /// the one shared registry.
  struct SharedInfra {
    sim::Scheduler* scheduler = nullptr;
    net::SimTransport* transport = nullptr;
    net::FaultInjectingTransport* chaos = nullptr;  // null: no chaos wrapper
    std::uint32_t shard_id = 0;
    /// Server network ids base .. base+n-1 (groups must not collide).
    std::uint32_t server_node_base = 0;
    /// Ring authority public key (StoreConfig::ring_authority_key).
    Bytes ring_authority_key;
    /// Client principals shared across every shard, so one ShardedClient
    /// key verifies at all groups: ClientId c uses (*client_keypairs)[c-1].
    /// Null: the cluster generates its own (unshared) directory.
    const std::vector<crypto::KeyPair>* client_keypairs = nullptr;
  };
  std::optional<SharedInfra> shared;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Scheduler& scheduler() { return *scheduler_; }
  net::SimTransport& transport() { return *transport_; }
  /// The chaos decorator (null unless `chaos_seed` or a shared one was set).
  net::FaultInjectingTransport* chaos() { return chaos_; }
  /// The transport endpoints actually talk through: the chaos wrapper when
  /// one exists, the raw sim transport otherwise.
  net::Transport& endpoint_transport() {
    return chaos_ != nullptr ? static_cast<net::Transport&>(*chaos_) : *transport_;
  }
  /// Transport counters for the deployment (convenience for benches and
  /// tests asserting on message costs/drops).
  const sim::TransportStats& transport_stats() const;
  /// The deployment's metrics registry (the transport's).
  obs::Registry& registry() { return transport_->registry(); }
  /// The deployment's trace event log (the transport's). Disabled unless
  /// ClusterOptions::tracing was set (or a caller enables it directly).
  obs::EventLog& events() { return transport_->events(); }
  /// Snapshots the event log and writes `TRACE_<name>.json` in the working
  /// directory (Perfetto/chrome://tracing-loadable). Returns false if the
  /// sidecar could not be written.
  bool write_trace_sidecar(std::string_view name) const;
  /// Periodically snapshots the registry into `on_snapshot` every `period`
  /// of virtual time, until the cluster dies. For long sims that want a
  /// metrics timeline rather than one final dump.
  void start_metrics_snapshots(SimDuration period,
                               std::function<void(const obs::MetricsSnapshot&)> on_snapshot);
  const core::StoreConfig& config() const { return config_; }
  const ClusterOptions& options() const { return options_; }

  /// Applies a policy to every server.
  void set_group_policy(const core::GroupPolicy& policy);

  /// Sharded deployments: installs `ring` on every running server and
  /// remembers it as the boot ring for servers built/restarted later.
  void set_ring(const shard::SignedRingState& ring);
  /// This cluster's shard id (0 when not part of a sharded deployment).
  std::uint32_t shard_id() const {
    return options_.shared.has_value() ? options_.shared->shard_id : 0;
  }
  /// The network id of server `index`.
  NodeId server_node(std::size_t index) const {
    const std::uint32_t base =
        options_.shared.has_value() ? options_.shared->server_node_base : 0;
    return NodeId{base + static_cast<std::uint32_t>(index)};
  }

  core::SecureStoreServer& server(std::size_t index) { return *servers_[index]; }
  std::size_t server_count() const { return servers_.size(); }

  /// False while the server is down between stop_server/start_server.
  bool server_running(std::size_t index) const { return servers_[index] != nullptr; }

  /// Crashes a server mid-simulation: in-flight messages to it drop, as on
  /// a real crash. In-memory (non-durable) clusters capture a snapshot at
  /// crash time so a later start_server(restore_state=true) can model a
  /// reboot that kept its state.
  void stop_server(std::size_t index);

  /// Brings a stopped server back. `restore_state=true` reboots with state
  /// (in-memory snapshot, or on-disk snapshot + WAL for durable clusters);
  /// `restore_state=false` models a disk-wiped replacement: the durability
  /// directory is removed first, so the newcomer cannot recover stale
  /// state. Group policies and the configured fault set are re-applied.
  void start_server(std::size_t index, bool restore_state = true);

  /// stop_server + start_server in one call: simulates a server reboot.
  void restart_server(std::size_t index, bool restore_state = true);

  /// Replaces the fault set a server is built with. Takes effect at the
  /// next start_server/restart_server of that index — ChaosRunner flips a
  /// live server Byzantine via set_server_faults + restart(restore=true).
  void set_server_faults(std::size_t index, std::set<faults::ServerFault> faults);

  /// The per-server durability directory (only with `durability_dir` set).
  std::string server_disk_dir(std::size_t index) const;

  /// The pre-generated key pair of a registered client id (1-based).
  const crypto::KeyPair& client_keys(ClientId id) const;

  /// Authority key pair (only meaningful when require_auth).
  const crypto::KeyPair& authority() const { return authority_; }

  /// Creates a client. Policy/token/codec come from `options`; the network
  /// id defaults to one derived from the client id — pass `network_id`
  /// explicitly to run several client endpoints under one principal (e.g.
  /// one per item group, since a client object manages one group's
  /// context/session at a time).
  std::unique_ptr<core::SecureStoreClient> make_client(
      ClientId id, core::SecureStoreClient::Options options,
      std::optional<NodeId> network_id = std::nullopt);

  /// Issues a read/write token for `client` on `group` (for require_auth
  /// deployments).
  core::AuthToken issue_token(ClientId client, GroupId group,
                              core::Rights rights = core::Rights::kReadWrite) const;

  /// Runs the simulation for `duration` of virtual time (lets gossip ticks
  /// propagate between synchronous client operations).
  void run_for(SimDuration duration);

 private:
  ClusterOptions options_;
  // Infrastructure is owned when standalone, borrowed when SharedInfra is
  // set; the raw pointers below are what the rest of the class uses either
  // way. Owned members are declared before servers_ so servers unregister
  // from a still-live transport on destruction.
  std::unique_ptr<sim::Scheduler> owned_scheduler_;
  std::unique_ptr<net::SimTransport> owned_transport_;
  std::unique_ptr<net::FaultInjectingTransport> owned_chaos_;
  sim::Scheduler* scheduler_ = nullptr;
  net::SimTransport* transport_ = nullptr;
  net::FaultInjectingTransport* chaos_ = nullptr;
  core::StoreConfig config_;
  /// `{shard=<id>}` when part of a sharded deployment, else empty.
  std::string metric_suffix_;
  /// Installed on every server at build time (sharded deployments).
  std::optional<shard::SignedRingState> boot_ring_;
  std::unique_ptr<core::SecureStoreServer> build_server(std::uint32_t index);

  crypto::KeyPair authority_;
  std::vector<crypto::KeyPair> client_keypairs_;  // index = ClientId.value - 1
  std::vector<crypto::KeyPair> server_keypairs_;
  std::vector<std::unique_ptr<core::SecureStoreServer>> servers_;
  /// Crash-time snapshots for non-durable stop/start (index-aligned).
  std::vector<Bytes> stopped_snapshots_;
  std::vector<core::GroupPolicy> policies_;
  Rng rng_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);  // guards timers
};

}  // namespace securestore::testkit
