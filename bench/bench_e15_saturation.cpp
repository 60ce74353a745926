// Experiment E15 — server hot-path saturation: batched Ed25519 verify.
//
// Two levels, one claim: draining request bursts from the delivery ring and
// verifying their signatures as one Ed25519 batch (shared-doubling
// multi-scalar multiplication) buys back most of the per-request signature
// cost that makes the server CPU-bound under load.
//
//   1. verify_micro — raw verification throughput, one-at-a-time vs
//      ed25519_batch_verify, at batch sizes 4/16/64. This is the
//      server-side verify path with everything else stripped away; the
//      acceptance bar is >= 2x at realistic drain sizes.
//   2. saturation — the full stack on the wall-clock threaded transport,
//      pipelined writes from several clients, with delivery batching
//      toggled via set_max_batch(1) (one request per wakeup: the old
//      handoff) vs set_max_batch(32). The server.batch_size histogram
//      shows how large the coalesced batches actually get.
#include <chrono>
#include <functional>
#include <future>

#include "bench_common.h"
#include "core/client.h"
#include "core/server.h"
#include "crypto/ed25519.h"
#include "crypto/ed25519_batch.h"
#include "net/thread_transport.h"

namespace securestore::bench {
namespace {

constexpr GroupId kGroup{1};

core::GroupPolicy mrc_policy() {
  return core::GroupPolicy{kGroup, core::ConsistencyModel::kMRC,
                           core::SharingMode::kSingleWriter, core::ClientTrust::kHonest};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Repeats `round` (which returns the number of verifies it performed)
/// until enough wall time accumulates for a stable rate.
double verifies_per_second(const std::function<std::size_t()>& round) {
  constexpr double kMinSeconds = 0.3;
  const auto start = std::chrono::steady_clock::now();
  std::size_t done = 0;
  double elapsed = 0;
  do {
    done += round();
    elapsed = seconds_since(start);
  } while (elapsed < kMinSeconds);
  return static_cast<double>(done) / elapsed;
}

void verify_micro_table(BenchJson& json) {
  std::printf("--- server-side verify throughput: one-at-a-time vs batch ---\n");
  Table table({"batch", "single_vps", "batch_vps", "speedup"});
  table.print_header();

  for (const std::size_t batch : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    // Distinct keys and messages per slot — exactly what a drained batch of
    // requests from different writers looks like.
    Rng rng(batch * 7 + 1);
    std::vector<crypto::KeyPair> pairs;
    std::vector<Bytes> messages;
    std::vector<Bytes> signatures;
    for (std::size_t i = 0; i < batch; ++i) {
      pairs.push_back(crypto::KeyPair::generate(rng));
      messages.push_back(rng.bytes(128));
      signatures.push_back(crypto::ed25519_sign(pairs.back(), messages.back()));
    }
    std::vector<crypto::BatchVerifyItem> items;
    for (std::size_t i = 0; i < batch; ++i) {
      items.push_back(
          crypto::BatchVerifyItem{pairs[i].public_key, messages[i], signatures[i]});
    }

    bool all_ok = true;
    const double single_vps = verifies_per_second([&] {
      for (std::size_t i = 0; i < batch; ++i) {
        all_ok &= crypto::ed25519_verify(pairs[i].public_key, messages[i], signatures[i]);
      }
      return batch;
    });
    const double batch_vps = verifies_per_second([&] {
      all_ok &= crypto::ed25519_batch_verify(items).all_valid;
      return batch;
    });
    if (!all_ok) {
      std::fprintf(stderr, "error: verification failed during measurement\n");
      std::exit(EXIT_FAILURE);
    }

    const double speedup = batch_vps / single_vps;
    json.begin_row();
    json.field("section", "verify_micro");
    json.field("batch", static_cast<std::uint64_t>(batch));
    json.field("single_verifies_per_s", single_vps);
    json.field("batch_verifies_per_s", batch_vps);
    json.field("speedup", speedup);
    table.cell(static_cast<std::uint64_t>(batch));
    table.cell(single_vps, 0);
    table.cell(batch_vps, 0);
    table.cell(speedup, 2);
    table.end_row();
  }
  std::printf(
      "\nStraus' trick shares the ~253 point doublings across the whole\n"
      "batch; per-signature cost falls toward the addition chains alone.\n\n");
}

/// E11's live deployment, widened: several client principals and a
/// configurable delivery batch cap on the dispatcher.
struct SaturationDeployment {
  net::ThreadTransport transport;
  core::StoreConfig config;
  std::vector<crypto::KeyPair> client_pairs;
  std::vector<std::unique_ptr<core::SecureStoreServer>> servers;
  std::vector<std::unique_ptr<core::SecureStoreClient>> clients;

  SaturationDeployment(std::uint32_t n, std::uint32_t b, std::size_t max_batch,
                       std::uint32_t client_count, std::shared_ptr<obs::Registry> registry)
      : transport(sim::NetworkModel(
                      Rng(1), sim::LinkProfile{microseconds(200), microseconds(100), 0}),
                  std::move(registry)) {
    transport.set_max_batch(max_batch);
    config.n = n;
    config.b = b;
    Rng rng(2);
    for (std::uint32_t c = 1; c <= client_count; ++c) {
      client_pairs.push_back(crypto::KeyPair::generate(rng));
      config.client_keys[c] = client_pairs.back().public_key;
    }
    std::vector<crypto::KeyPair> server_pairs;
    for (std::uint32_t i = 0; i < n; ++i) {
      config.servers.push_back(NodeId{i});
      server_pairs.push_back(crypto::KeyPair::generate(rng));
      config.server_keys[NodeId{i}] = server_pairs.back().public_key;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      core::SecureStoreServer::Options options;
      options.gossip.period = milliseconds(200);
      servers.push_back(std::make_unique<core::SecureStoreServer>(
          transport, NodeId{i}, config, server_pairs[i], options, rng.fork()));
      servers.back()->set_group_policy(mrc_policy());
    }
    for (std::uint32_t c = 1; c <= client_count; ++c) {
      core::SecureStoreClient::Options client_options;
      client_options.policy = mrc_policy();
      clients.push_back(std::make_unique<core::SecureStoreClient>(
          transport, NodeId{1000 + c}, ClientId{c}, client_pairs[c - 1], config,
          client_options, rng.fork()));
    }
  }

  ~SaturationDeployment() { transport.stop(); }
};

void saturation_table(BenchJson& json, std::shared_ptr<obs::Registry>& batched_registry) {
  std::printf("--- pipelined write saturation (n=4 b=1, 4 clients x 8 in flight) ---\n");
  Table table({"max_batch", "ops", "seconds", "ops_per_s", "batch_mean"});
  table.print_header();

  constexpr std::uint32_t kClients = 4;
  constexpr int kWindow = 8;
  constexpr int kOpsPerClient = 75;
  constexpr int kTotalOps = static_cast<int>(kClients) * kOpsPerClient;

  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{32}}) {
    auto registry = std::make_shared<obs::Registry>();
    SaturationDeployment deployment(4, 1, max_batch, kClients, registry);
    const Bytes value(256, 0x42);

    const auto start = std::chrono::steady_clock::now();
    std::atomic<int> completed{0};
    std::promise<void> all_done;
    std::vector<std::shared_ptr<std::atomic<int>>> issued;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      issued.push_back(std::make_shared<std::atomic<int>>(0));
    }

    // Per-client issue loop: keep `kWindow` writes in flight until the
    // client's quota is spent. All closures run on the dispatch thread.
    std::function<void(std::uint32_t)> issue_next = [&](std::uint32_t c) {
      const int op = issued[c]->fetch_add(1);
      if (op >= kOpsPerClient) return;
      deployment.clients[c]->write(
          ItemId{static_cast<std::uint64_t>(c * 100 + op % 16)}, value, [&, c](VoidResult) {
            if (completed.fetch_add(1) + 1 == kTotalOps) {
              all_done.set_value();
            } else {
              issue_next(c);
            }
          });
    };
    deployment.transport.schedule(0, [&] {
      for (std::uint32_t c = 0; c < kClients; ++c) {
        for (int i = 0; i < kWindow; ++i) issue_next(c);
      }
    });
    all_done.get_future().wait();
    const double seconds_elapsed = seconds_since(start);

    double batch_mean = 0;
    const obs::MetricsSnapshot snapshot = registry->snapshot();
    for (const auto& [name, histogram] : snapshot.histograms) {
      if (name == "server.batch_size") batch_mean = histogram.mean();
    }

    json.begin_row();
    json.field("section", "saturation");
    json.field("max_batch", static_cast<std::uint64_t>(max_batch));
    json.field("ops", static_cast<std::uint64_t>(kTotalOps));
    json.field("seconds", seconds_elapsed);
    json.field("ops_per_s", static_cast<double>(kTotalOps) / seconds_elapsed);
    json.field("server_batch_size_mean", batch_mean);
    table.cell(static_cast<std::uint64_t>(max_batch));
    table.cell(static_cast<std::uint64_t>(kTotalOps));
    table.cell(seconds_elapsed, 3);
    table.cell(static_cast<double>(kTotalOps) / seconds_elapsed, 0);
    table.cell(batch_mean, 2);
    table.end_row();

    if (max_batch > 1) batched_registry = registry;
  }
  std::printf(
      "\nmax_batch=1 re-creates the per-request handoff; max_batch=32 lets\n"
      "the dispatcher drain bursts and the server verify them as one batch.\n"
      "End-to-end gains are smaller than verify_micro because client-side\n"
      "signing (unbatchable) runs on the same dispatcher thread.\n");
}

void run() {
  print_title("E15: hot-path saturation — batched signature verification");
  print_claim(
      "'the computational overhead of digital signatures' (SS6) — amortized "
      "by verifying request bursts as one Ed25519 batch");
  BenchJson json("e15_saturation");
  verify_micro_table(json);
  std::shared_ptr<obs::Registry> batched_registry;
  saturation_table(json, batched_registry);
  if (batched_registry != nullptr) emit_metrics(json, *batched_registry);
}

}  // namespace
}  // namespace securestore::bench

int main() {
  securestore::bench::run();
  return 0;
}
