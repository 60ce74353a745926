#include "testkit/sharded_cluster.h"

#include <stdexcept>

namespace securestore::testkit {

ShardedCluster::ShardedCluster(ShardedClusterOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  if (options_.groups == 0) throw std::invalid_argument("ShardedCluster: groups == 0");
  transport_ = std::make_unique<net::SimTransport>(
      scheduler_, sim::NetworkModel(rng_.fork(), options_.link), options_.registry,
      options_.events);
  if (options_.tracing) {
    transport_->events().set_sample_every(options_.trace_sample_every);
    transport_->events().set_enabled(true);
  }
  if (options_.chaos_seed.has_value()) {
    chaos_ = std::make_unique<net::FaultInjectingTransport>(*transport_, *options_.chaos_seed);
  }

  ring_authority_ = crypto::KeyPair::generate(rng_);
  for (std::uint32_t c = 1; c <= options_.max_clients; ++c) {
    client_keypairs_.push_back(crypto::KeyPair::generate(rng_));
  }

  for (std::uint32_t g = 0; g < options_.groups; ++g) {
    groups_.push_back(build_group(g));
  }
  // Groups boot unsharded (the ring needs their server keys, which only
  // exist once they are built); nothing runs before this install, so no
  // request is ever served without ownership enforcement.
  install_ring(next_ring());
}

ShardedCluster::~ShardedCluster() = default;

std::unique_ptr<Cluster> ShardedCluster::build_group(std::uint32_t shard_id) {
  ClusterOptions cluster_options;
  cluster_options.n = options_.n;
  cluster_options.b = options_.b;
  // Distinct per-group seeds: server keys and gossip jitter must differ
  // across groups, deterministically in the deployment seed.
  cluster_options.seed = options_.seed + 7919 * (shard_id + 1);
  cluster_options.max_clients = options_.max_clients;
  cluster_options.gossip = options_.gossip;
  cluster_options.start_gossip = options_.start_gossip;
  cluster_options.op_timeout = options_.op_timeout;
  if (options_.durability_dir.has_value()) {
    cluster_options.durability_dir =
        *options_.durability_dir + "/group-" + std::to_string(shard_id);
    cluster_options.fsync = options_.fsync;
  }
  cluster_options.engine = options_.engine;
  ClusterOptions::SharedInfra shared;
  shared.scheduler = &scheduler_;
  shared.transport = transport_.get();
  shared.chaos = chaos_.get();
  shared.shard_id = shard_id;
  shared.server_node_base = shard_id * 100;  // servers g*100 .. g*100+n-1
  shared.ring_authority_key = ring_authority_.public_key;
  shared.client_keypairs = &client_keypairs_;
  cluster_options.shared = std::move(shared);

  auto cluster = std::make_unique<Cluster>(std::move(cluster_options));
  for (const core::GroupPolicy& policy : policies_) cluster->set_group_policy(policy);
  return cluster;
}

std::uint32_t ShardedCluster::shard_for(GroupId group) const {
  return hash_ring_->shard_for(group);
}

void ShardedCluster::set_group_policy(const core::GroupPolicy& policy) {
  policies_.push_back(policy);
  for (auto& group : groups_) group->set_group_policy(policy);
}

std::unique_ptr<shard::ShardedClient> ShardedCluster::make_client(
    ClientId id, core::SecureStoreClient::Options options, unsigned max_reroutes) {
  shard::ShardedClient::Options sharded_options;
  sharded_options.client = std::move(options);
  sharded_options.network_base = NodeId{10000 + id.value * 100};
  sharded_options.max_reroutes = max_reroutes;
  // Policies registered so far ride along, so each routed group runs its
  // own sharing/consistency mode (register policies before make_client).
  for (const core::GroupPolicy& policy : policies_) {
    sharded_options.group_policies.emplace(policy.group, policy);
  }
  return std::make_unique<shard::ShardedClient>(endpoint_transport(), id, client_keys(id),
                                                ring_, template_config(),
                                                std::move(sharded_options), rng_.fork());
}

const crypto::KeyPair& ShardedCluster::client_keys(ClientId id) const {
  if (id.value == 0 || id.value > client_keypairs_.size()) {
    throw std::out_of_range("ShardedCluster: unregistered client id");
  }
  return client_keypairs_[id.value - 1];
}

std::uint32_t ShardedCluster::begin_add_group() {
  const auto shard_id = static_cast<std::uint32_t>(groups_.size());
  groups_.push_back(build_group(shard_id));
  // The newcomer runs under the CURRENT ring with its new shard id: the
  // ring maps nothing to it, so it rejects every client request until the
  // switch — no split-brain window where two groups serve one key.
  groups_.back()->set_ring(ring_);
  return shard_id;
}

shard::SignedRingState ShardedCluster::next_ring() const {
  shard::RingState ring;
  ring.version = next_version_;
  ring.vnodes_per_shard = options_.vnodes_per_shard;
  ring.placement_seed = options_.seed;
  for (const auto& group : groups_) {
    shard::ShardMembers members;
    members.shard_id = group->shard_id();
    const core::StoreConfig& config = group->config();
    members.servers = config.servers;
    for (const NodeId server : config.servers) {
      members.server_keys.push_back(config.server_keys.at(server));
    }
    ring.shards.push_back(std::move(members));
  }
  return shard::SignedRingState::sign(std::move(ring), ring_authority_);
}

std::uint64_t ShardedCluster::copy_moved_data(const shard::SignedRingState& target) {
  const shard::HashRing target_ring(target.ring);
  std::uint64_t copied = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Cluster& source = *groups_[g];
    const std::uint32_t source_shard = source.shard_id();
    for (std::size_t s = 0; s < source.server_count(); ++s) {
      // Crashed holders contribute nothing; with at most b faulty per group
      // every quorum-acked record still has a running honest holder, and
      // imports are idempotent across holders.
      if (!source.server_running(s)) continue;
      core::SecureStoreServer& holder = source.server(s);
      // Walk the metadata index, materializing (and copying — the engine's
      // current() pointer dies at its next call) only records that move.
      for (const storage::CurrentEntry& entry : holder.store().current_index()) {
        if (entry.flags & core::kScattered) continue;  // pinned fragments
        const core::WriteRecord* current = holder.store().current(entry.item);
        if (current == nullptr) continue;
        const core::WriteRecord record = *current;
        const std::uint32_t owner = target_ring.shard_for(record.group);
        if (owner == source_shard || owner >= groups_.size()) continue;
        Cluster& dest = *groups_[owner];
        for (std::size_t d = 0; d < dest.server_count(); ++d) {
          if (dest.server_running(d) && dest.server(d).import_record(record)) ++copied;
        }
      }
      for (const core::StoredContext* stored : holder.contexts().all()) {
        const std::uint32_t owner = target_ring.shard_for(stored->context.group());
        if (owner == source_shard || owner >= groups_.size()) continue;
        Cluster& dest = *groups_[owner];
        for (std::size_t d = 0; d < dest.server_count(); ++d) {
          if (dest.server_running(d)) dest.server(d).import_context(*stored);
        }
      }
    }
  }
  return copied;
}

void ShardedCluster::install_ring(const shard::SignedRingState& ring) {
  ring_ = ring;
  hash_ring_.emplace(ring_.ring);
  next_version_ = ring_.ring.version + 1;
  for (auto& group : groups_) group->set_ring(ring_);
}

std::uint32_t ShardedCluster::add_group() {
  const std::uint32_t shard_id = begin_add_group();
  const shard::SignedRingState target = next_ring();
  // Bulk copy, switch, reconcile: old owners never delete moved data, so a
  // write acked between the bulk pass and the switch is caught by the
  // second pass. (The chaos harness interleaves virtual time and faults
  // between these phases; called back-to-back they are atomic in sim time.)
  copy_moved_data(target);
  install_ring(target);
  copy_moved_data(target);
  return shard_id;
}

void ShardedCluster::run_for(SimDuration duration) {
  scheduler_.run_until(scheduler_.now() + duration);
}

}  // namespace securestore::testkit
