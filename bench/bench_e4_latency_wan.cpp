// Experiment E4 — end-to-end response time in a wide-area deployment.
//
// §6's headline argument: weak-consistency small quorums beat both
// strong-consistency Byzantine quorums and SMR in environments "where
// communication latencies are high across the server replicas". PBFT's
// multi-phase O(n^2) exchange serializes three one-way replica hops before
// a reply, while the secure store's write finishes after one round trip to
// b+1 servers.
//
// Setup: every link is WAN-like (60 ms base + up to 40 ms jitter). Each
// cell is the mean over repeated operations in simulated time.
#include <chrono>

#include "baselines/masking_quorum.h"
#include "baselines/pbft.h"
#include "bench_common.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "net/sim_transport.h"
#include "sim/metrics.h"

namespace securestore::bench {
namespace {

constexpr GroupId kGroup{1};
constexpr int kOpsPerCell = 20;

core::GroupPolicy mrc_policy() {
  return core::GroupPolicy{kGroup, core::ConsistencyModel::kMRC,
                           core::SharingMode::kSingleWriter, core::ClientTrust::kHonest};
}

struct LatencyPair {
  double write_ms = 0;
  double read_ms = 0;
  sim::TransportStats transport;  // whole-cell traffic (secure store only)
};

LatencyPair secure_store_latency(std::uint32_t n, std::uint32_t b, std::uint64_t seed,
                                 std::shared_ptr<obs::Registry> registry = nullptr) {
  testkit::ClusterOptions options;
  options.n = n;
  options.b = b;
  options.seed = seed;
  options.link = sim::wan_profile();
  options.gossip.period = milliseconds(500);
  options.registry = std::move(registry);
  testkit::Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  core::SecureStoreClient::Options client_options;
  client_options.policy = mrc_policy();
  client_options.round_timeout = seconds(2);
  auto client = cluster.make_client(ClientId{1}, client_options);
  core::SyncClient sync(*client, cluster.scheduler());

  sim::Samples write_samples, read_samples;
  for (int op = 0; op < kOpsPerCell; ++op) {
    const ItemId item{static_cast<std::uint64_t>(100 + op)};
    const OpCost write_cost =
        measure(cluster, [&] { return sync.write(item, to_bytes("payload")).ok(); });
    if (write_cost.ok) write_samples.add(to_milliseconds(write_cost.latency));
    const OpCost read_cost = measure(cluster, [&] { return sync.read_value(item).ok(); });
    if (read_cost.ok) read_samples.add(to_milliseconds(read_cost.latency));
  }
  return {write_samples.mean(), read_samples.mean(), cluster.transport_stats()};
}

LatencyPair masking_quorum_latency(std::uint32_t n, std::uint32_t b, std::uint64_t seed,
                                   sim::LinkProfile profile = sim::wan_profile()) {
  sim::Scheduler scheduler;
  net::SimTransport transport(scheduler, sim::NetworkModel(Rng(seed), profile));
  core::StoreConfig config;
  config.n = n;
  config.b = b;
  Rng rng(seed + 1);
  const crypto::KeyPair pair = crypto::KeyPair::generate(rng);
  config.client_keys[1] = pair.public_key;
  for (std::uint32_t i = 0; i < n; ++i) config.servers.push_back(NodeId{i});
  std::vector<std::unique_ptr<baselines::MqServer>> servers;
  for (std::uint32_t i = 0; i < n; ++i) {
    servers.push_back(std::make_unique<baselines::MqServer>(transport, NodeId{i}, config));
  }
  baselines::MqClient client(transport, NodeId{1000}, ClientId{1}, pair, config,
                             baselines::MqClient::Options{seconds(5)}, rng.fork());

  sim::Samples write_samples, read_samples;
  for (int op = 0; op < kOpsPerCell; ++op) {
    const ItemId item{static_cast<std::uint64_t>(100 + op)};
    {
      const SimTime start = scheduler.now();
      std::optional<VoidResult> slot;
      client.write(item, to_bytes("payload"), [&](VoidResult r) { slot = std::move(r); });
      while (!slot && scheduler.step()) {
      }
      if (slot && slot->ok()) write_samples.add(to_milliseconds(scheduler.now() - start));
    }
    {
      const SimTime start = scheduler.now();
      std::optional<Result<Bytes>> slot;
      client.read(item, [&](Result<Bytes> r) { slot = std::move(r); });
      while (!slot && scheduler.step()) {
      }
      if (slot && slot->ok()) read_samples.add(to_milliseconds(scheduler.now() - start));
    }
  }
  return {write_samples.mean(), read_samples.mean(), {}};
}

double pbft_latency(std::uint32_t f, std::uint64_t seed,
                    sim::LinkProfile profile = sim::wan_profile()) {
  sim::Scheduler scheduler;
  net::SimTransport transport(scheduler, sim::NetworkModel(Rng(seed), profile));
  baselines::PbftConfig config;
  config.f = f;
  for (std::uint32_t i = 0; i < 3 * f + 1; ++i) config.replicas.push_back(NodeId{i});
  config.session_master = to_bytes("bench session master");
  std::vector<std::unique_ptr<baselines::PbftReplica>> replicas;
  for (const NodeId id : config.replicas) {
    replicas.push_back(std::make_unique<baselines::PbftReplica>(transport, id, config));
  }
  baselines::PbftClient client(transport, NodeId{1000}, config);

  sim::Samples samples;
  for (int op = 0; op < kOpsPerCell; ++op) {
    const SimTime start = scheduler.now();
    std::optional<Result<Bytes>> slot;
    client.execute(
        baselines::PbftOp{baselines::PbftOp::Kind::kPut,
                          ItemId{static_cast<std::uint64_t>(100 + op)}, to_bytes("payload")},
        [&](Result<Bytes> r) { slot = std::move(r); });
    while (!slot && scheduler.step()) {
    }
    if (slot && slot->ok()) samples.add(to_milliseconds(scheduler.now() - start));
  }
  return samples.mean();
}

void lan_crossover();

void run() {
  print_title("E4: WAN response time (ms), mean over 20 ops, 60-100 ms links");
  print_claim(
      "weak-consistency small quorums beat strong-consistency quorums and "
      "PBFT-style SMR when inter-replica latency is high");

  Table table({"n", "b", "ss_write", "ss_read", "mq_write", "mq_read", "pbft_op", "ss_msgs"});
  table.print_header();

  auto registry = std::make_shared<obs::Registry>();
  BenchJson json("e4_latency_wan");

  sim::TransportStats total;
  for (std::uint32_t b : {1u, 2u, 3u, 4u}) {
    const std::uint32_t n = 3 * b + 1;
    const LatencyPair ss = secure_store_latency(n, b, /*seed=*/100 + b, registry);
    const LatencyPair mq = masking_quorum_latency(n, b, /*seed=*/200 + b);
    const double pbft = pbft_latency(b, /*seed=*/300 + b);
    total.messages_sent += ss.transport.messages_sent;
    total.messages_dropped += ss.transport.messages_dropped;
    total.bytes_sent += ss.transport.bytes_sent;

    json.begin_row();
    json.field("n", static_cast<std::uint64_t>(n));
    json.field("b", static_cast<std::uint64_t>(b));
    json.field("ss_write_ms", ss.write_ms);
    json.field("ss_read_ms", ss.read_ms);
    json.field("mq_write_ms", mq.write_ms);
    json.field("mq_read_ms", mq.read_ms);
    json.field("pbft_op_ms", pbft);
    json.field("ss_msgs", ss.transport.messages_sent);

    table.cell(static_cast<std::uint64_t>(n));
    table.cell(static_cast<std::uint64_t>(b));
    table.cell(ss.write_ms);
    table.cell(ss.read_ms);
    table.cell(mq.write_ms);
    table.cell(mq.read_ms);
    table.cell(pbft);
    table.cell(ss.transport.messages_sent);
    table.end_row();
  }
  std::printf("\nss transport totals: %llu msgs, %llu bytes, %llu dropped "
              "(drops would indicate simulated loss; this profile has none)\n",
              static_cast<unsigned long long>(total.messages_sent),
              static_cast<unsigned long long>(total.bytes_sent),
              static_cast<unsigned long long>(total.messages_dropped));

  std::printf(
      "\nss writes = one round trip to b+1 servers (max of b+1 latency\n"
      "samples). Masking-quorum writes serialize TWO quorum round trips, and\n"
      "the max over a larger quorum is itself larger. PBFT pays request +\n"
      "pre-prepare + prepare + commit + reply: ~4 WAN hops before the client\n"
      "hears back, the §6 prediction for high-latency environments.\n");

  emit_metrics(json, *registry);

  lan_crossover();
}

/// The OTHER half of §6's PBFT assessment: "this implementation is shown to
/// be efficient in the common case when clients and servers have high
/// bandwidth connectivity" — because MAC authenticators (~µs) replace
/// signatures (~hundreds of µs), and on a fast LAN computation, not message
/// count, dominates. We estimate total op time as simulated network latency
/// plus the measured crypto time implied by each protocol's operation
/// counts (signatures/verifies/MACs, priced by this host's E10 numbers).
void lan_crossover() {
  std::printf("\n--- LAN crossover: network + crypto-adjusted op time (n=4, b=1) ---\n");

  // Price the primitives on this host.
  Rng rng(1);
  const crypto::KeyPair pair = crypto::KeyPair::generate(rng);
  const Bytes message = rng.bytes(256);
  auto time_us = [](auto&& fn, int iterations) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) fn();
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     start)
               .count() /
           iterations;
  };
  const double sign_us = time_us([&] { (void)crypto::ed25519_sign(pair, message); }, 30);
  const Bytes signature = crypto::ed25519_sign(pair, message);
  const double verify_us = time_us(
      [&] { (void)crypto::ed25519_verify(pair.public_key, message, signature); }, 30);
  const double mac_us =
      time_us([&] { (void)crypto::hmac_sha256(pair.seed, message); }, 2000);

  Table table({"profile", "protocol", "net_ms", "crypto_ms", "total_ms"});
  table.print_header();

  struct Row {
    const char* name;
    double signs, verifies, macs;  // per write op, whole system critical path*
  };
  // Critical-path crypto: ss write = client sign + ONE server verify (the
  // b+1 verifies run in parallel on different servers); mq = sign + one
  // verify per phase server (parallel too) => sign + verify; PBFT-lite
  // = ~2n MAC ops on the slowest replica's path (authenticator make+check
  // per phase) — generously rounded up.
  const Row rows[] = {
      {"securestore", 1, 1, 0},
      {"masking-q", 1, 1, 0},
      {"pbft", 0, 0, 2.0 * 4},
  };

  for (const bool wan : {false, true}) {
    // Measure pure network time with the crypto meter ignored.
    testkit::ClusterOptions options;
    options.n = 4;
    options.b = 1;
    options.link = wan ? sim::wan_profile() : sim::lan_profile();
    options.seed = wan ? 900 : 901;

    const LatencyPair ss = [&] {
      testkit::Cluster cluster(options);
      core::GroupPolicy policy = mrc_policy();
      cluster.set_group_policy(policy);
      core::SecureStoreClient::Options client_options;
      client_options.policy = policy;
      client_options.round_timeout = seconds(2);
      auto client = cluster.make_client(ClientId{1}, client_options);
      core::SyncClient sync(*client, cluster.scheduler());
      sim::Samples samples;
      for (int op = 0; op < 10; ++op) {
        const OpCost cost = measure(cluster, [&] {
          return sync.write(ItemId{100 + static_cast<std::uint64_t>(op)},
                            to_bytes("payload"))
              .ok();
        });
        if (cost.ok) samples.add(to_milliseconds(cost.latency));
      }
      return LatencyPair{samples.mean(), 0, {}};
    }();
    const LatencyPair mq = masking_quorum_latency(4, 1, options.seed + 10, options.link);
    const double pbft = pbft_latency(1, options.seed + 20, options.link);
    const double nets[] = {ss.write_ms, mq.write_ms, pbft};

    for (std::size_t i = 0; i < std::size(rows); ++i) {
      const double crypto_ms =
          (rows[i].signs * sign_us + rows[i].verifies * verify_us + rows[i].macs * mac_us) /
          1000.0;
      table.cell(std::string(wan ? "WAN" : "LAN"));
      table.cell(std::string(rows[i].name));
      table.cell(nets[i]);
      table.cell(crypto_ms, 3);
      table.cell(nets[i] + crypto_ms);
      table.end_row();
    }
  }

  std::printf(
      "\nOn the LAN, crypto dominates: PBFT's MACs (~%.0f us each) make its\n"
      "total competitive despite O(n^2) messages — §6's concession that [3]\n"
      "'is shown to be efficient in the common case'. On the WAN the network\n"
      "term takes over and the secure store's single small-quorum round trip\n"
      "wins — the same table, both halves of the paper's argument.\n",
      mac_us);
}

}  // namespace
}  // namespace securestore::bench

int main() {
  securestore::bench::run();
  return 0;
}
