#include "testkit/cluster.h"

#include <filesystem>
#include <stdexcept>

#include "obs/export.h"

namespace securestore::testkit {

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)), rng_(options_.seed) {
  if (options_.shared.has_value()) {
    // One shard of a larger deployment: the ShardedCluster owns the
    // transport stack; this cluster only registers its servers on it.
    scheduler_ = options_.shared->scheduler;
    transport_ = options_.shared->transport;
    chaos_ = options_.shared->chaos;
    metric_suffix_ = "{shard=" + std::to_string(options_.shared->shard_id) + "}";
  } else {
    owned_scheduler_ = std::make_unique<sim::Scheduler>();
    scheduler_ = owned_scheduler_.get();
    owned_transport_ = std::make_unique<net::SimTransport>(
        *scheduler_, sim::NetworkModel(rng_.fork(), options_.link), options_.registry,
        options_.events);
    transport_ = owned_transport_.get();
    if (options_.tracing) {
      transport_->events().set_sample_every(options_.trace_sample_every);
      transport_->events().set_enabled(true);
    }
    if (options_.chaos_seed.has_value()) {
      owned_chaos_ =
          std::make_unique<net::FaultInjectingTransport>(*transport_, *options_.chaos_seed);
      chaos_ = owned_chaos_.get();
    }
  }

  // Key directories first: servers copy the config at construction.
  config_.n = options_.n;
  config_.b = options_.b;
  config_.op_timeout = options_.op_timeout;
  config_.engine = options_.engine;
  if (config_.engine.kind == core::StorageEngineKind::kLsm &&
      !options_.durability_dir.has_value()) {
    throw std::invalid_argument("Cluster: engine kLsm requires durability_dir");
  }
  for (std::uint32_t i = 0; i < options_.n; ++i) config_.servers.push_back(server_node(i));
  if (options_.shared.has_value()) {
    config_.ring_authority_key = options_.shared->ring_authority_key;
  }

  authority_ = crypto::KeyPair::generate(rng_);
  if (options_.shared.has_value() && options_.shared->client_keypairs != nullptr) {
    // Shared principals: the same client key must verify at every shard.
    const std::vector<crypto::KeyPair>& shared_keys = *options_.shared->client_keypairs;
    if (shared_keys.size() < options_.max_clients) {
      throw std::invalid_argument("Cluster: shared client_keypairs smaller than max_clients");
    }
    for (std::uint32_t c = 1; c <= options_.max_clients; ++c) {
      client_keypairs_.push_back(shared_keys[c - 1]);
      config_.client_keys[c] = client_keypairs_.back().public_key;
    }
  } else {
    for (std::uint32_t c = 1; c <= options_.max_clients; ++c) {
      client_keypairs_.push_back(crypto::KeyPair::generate(rng_));
      config_.client_keys[c] = client_keypairs_.back().public_key;
    }
  }

  for (std::uint32_t i = 0; i < options_.n; ++i) {
    server_keypairs_.push_back(crypto::KeyPair::generate(rng_));
    config_.server_keys[server_node(i)] = server_keypairs_.back().public_key;
  }

  stopped_snapshots_.resize(options_.n);
  for (std::uint32_t i = 0; i < options_.n; ++i) {
    servers_.push_back(build_server(i));
  }
}

bool Cluster::write_trace_sidecar(std::string_view name) const {
  return obs::write_trace_sidecar(transport_->events().snapshot(), name);
}

std::string Cluster::server_disk_dir(std::size_t index) const {
  if (!options_.durability_dir.has_value()) {
    throw std::logic_error("Cluster: durability_dir not configured");
  }
  return *options_.durability_dir + "/server-" + std::to_string(index);
}

std::unique_ptr<core::SecureStoreServer> Cluster::build_server(std::uint32_t index) {
  core::SecureStoreServer::Options server_options;
  server_options.gossip = options_.gossip;
  server_options.gossip.metric_suffix = metric_suffix_;
  server_options.metric_suffix = metric_suffix_;
  server_options.start_gossip = options_.start_gossip;
  server_options.admission = options_.admission;
  if (options_.shared.has_value()) server_options.shard_id = options_.shared->shard_id;
  server_options.ring = boot_ring_;
  if (options_.require_auth) server_options.authority_key = authority_.public_key;
  if (options_.durability_dir.has_value()) {
    const std::string base = server_disk_dir(index);
    std::filesystem::create_directories(base);
    server_options.snapshot_path = base + "/snapshot.bin";
    server_options.snapshot_period = options_.snapshot_period;
    core::SecureStoreServer::DurabilityOptions durability;
    durability.wal_dir = base + "/wal";
    durability.data_dir = base + "/lsm";
    durability.fsync = options_.fsync;
    durability.wal_segment_bytes = options_.wal_segment_bytes;
    server_options.durability = std::move(durability);
    // Recovery replays the WAL inside the constructor; it must already
    // know the policies the logged records were accepted under.
    server_options.group_policies = policies_;
  }

  std::set<faults::ServerFault> faults;
  for (const auto& [fault_index, fault_set] : options_.server_faults) {
    if (fault_index == index) faults = fault_set;
  }

  std::unique_ptr<core::SecureStoreServer> server;
  if (faults.empty()) {
    server = std::make_unique<core::SecureStoreServer>(endpoint_transport(), server_node(index),
                                                       config_, server_keypairs_[index],
                                                       server_options, rng_.fork());
  } else {
    server = std::make_unique<faults::FaultyServer>(endpoint_transport(), server_node(index),
                                                    config_, server_keypairs_[index],
                                                    server_options, rng_.fork(),
                                                    std::move(faults));
  }
  for (const core::GroupPolicy& policy : policies_) server->set_group_policy(policy);
  return server;
}

void Cluster::stop_server(std::size_t index) {
  if (servers_[index] == nullptr) return;
  // Crash semantics: the dying server saves nothing durable beyond what
  // already reached disk. Non-durable clusters keep a crash-time snapshot
  // so start_server(restore_state=true) can model a stateful reboot.
  if (!options_.durability_dir.has_value()) {
    stopped_snapshots_[index] = servers_[index]->snapshot();
  }
  servers_[index].reset();  // down: requests to it drop
}

void Cluster::start_server(std::size_t index, bool restore_state) {
  if (servers_[index] != nullptr) return;
  if (options_.durability_dir.has_value()) {
    // A disk-wiped replacement must not recover stale state: remove the
    // snapshot + WAL directory before the newcomer boots.
    if (!restore_state) std::filesystem::remove_all(server_disk_dir(index));
    servers_[index] = build_server(static_cast<std::uint32_t>(index));
    return;
  }
  servers_[index] = build_server(static_cast<std::uint32_t>(index));
  if (restore_state) servers_[index]->restore(stopped_snapshots_[index]);
  stopped_snapshots_[index].clear();
}

void Cluster::restart_server(std::size_t index, bool restore_state) {
  stop_server(index);
  start_server(index, restore_state);
}

void Cluster::set_server_faults(std::size_t index, std::set<faults::ServerFault> faults) {
  std::erase_if(options_.server_faults,
                [index](const auto& entry) { return entry.first == index; });
  if (!faults.empty()) {
    options_.server_faults.emplace_back(static_cast<std::uint32_t>(index), std::move(faults));
  }
}

Cluster::~Cluster() { *alive_ = false; }

const sim::TransportStats& Cluster::transport_stats() const { return transport_->stats(); }

void Cluster::start_metrics_snapshots(
    SimDuration period, std::function<void(const obs::MetricsSnapshot&)> on_snapshot) {
  const auto schedule = [this, period,
                         on_snapshot = std::move(on_snapshot)](auto&& self) -> void {
    transport_->schedule(period, [this, alive = alive_, on_snapshot, self]() {
      if (!*alive) return;
      on_snapshot(transport_->registry().snapshot());
      self(self);
    });
  };
  schedule(schedule);
}

void Cluster::set_group_policy(const core::GroupPolicy& policy) {
  policies_.push_back(policy);
  for (auto& server : servers_) {
    if (server != nullptr) server->set_group_policy(policy);
  }
}

void Cluster::set_ring(const shard::SignedRingState& ring) {
  boot_ring_ = ring;
  for (auto& server : servers_) {
    if (server != nullptr) server->install_ring(ring);
  }
}

const crypto::KeyPair& Cluster::client_keys(ClientId id) const {
  if (id.value == 0 || id.value > client_keypairs_.size()) {
    throw std::out_of_range("Cluster: unregistered client id");
  }
  return client_keypairs_[id.value - 1];
}

std::unique_ptr<core::SecureStoreClient> Cluster::make_client(
    ClientId id, core::SecureStoreClient::Options options,
    std::optional<NodeId> network_id) {
  const NodeId node = network_id.value_or(NodeId{1000 + id.value});
  return std::make_unique<core::SecureStoreClient>(endpoint_transport(), node, id,
                                                   client_keys(id), config_, std::move(options),
                                                   rng_.fork());
}

core::AuthToken Cluster::issue_token(ClientId client, GroupId group,
                                     core::Rights rights) const {
  const core::Authorizer authorizer(authority_);
  return authorizer.issue(client, group, rights);
}

void Cluster::run_for(SimDuration duration) {
  scheduler_->run_until(scheduler_->now() + duration);
}

}  // namespace securestore::testkit
