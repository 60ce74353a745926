// Tests for the real-time transport: the whole protocol stack running on
// wall-clock time with a background dispatch thread, driven from the main
// thread through promises.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <future>
#include <optional>
#include <string>

#include "core/client.h"
#include "core/server.h"
#include "net/thread_transport.h"

namespace securestore {
namespace {

using core::ConsistencyModel;
using core::GroupPolicy;
using core::SecureStoreClient;
using core::SecureStoreServer;
using core::SharingMode;

constexpr GroupId kGroup{1};
constexpr ItemId kX{10};

GroupPolicy mrc_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

/// How a LiveDeployment is built; the defaults are fast LAN-ish links,
/// gossip on, no durability.
struct LiveSetup {
  sim::LinkProfile link{microseconds(200), microseconds(100), 0};
  bool gossip = true;
  /// Durable servers: server i keeps its WAL under `<wal_root>/wal-<i>`.
  std::optional<std::string> wal_root;
};

/// Real-time deployment harness: n servers + key directory over a
/// ThreadTransport.
struct LiveDeployment {
  net::ThreadTransport transport;
  core::StoreConfig config;
  std::vector<crypto::KeyPair> client_pairs;
  std::vector<std::unique_ptr<SecureStoreServer>> servers;

  explicit LiveDeployment(std::uint32_t n, std::uint32_t b, std::uint64_t seed = 1,
                          const LiveSetup& setup = {})
      : transport(sim::NetworkModel(Rng(seed), setup.link)) {
    config.n = n;
    config.b = b;
    Rng rng(seed + 1);
    for (std::uint32_t c = 1; c <= 4; ++c) {
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
      SecureStoreServer::Options options;
      options.gossip.period = milliseconds(20);
      options.start_gossip = setup.gossip;
      options.gossip.push_on_write = setup.gossip;
      if (setup.wal_root.has_value()) {
        SecureStoreServer::DurabilityOptions durability;
        durability.wal_dir = *setup.wal_root + "/wal-" + std::to_string(i);
        options.durability = durability;
      }
      servers.push_back(std::make_unique<SecureStoreServer>(
          transport, NodeId{i}, config, server_pairs[i], options, rng.fork()));
      servers.back()->set_group_policy(mrc_policy());
    }
  }

  ~LiveDeployment() {
    // Stop dispatch BEFORE the servers are destroyed (pending jobs may
    // reference them).
    transport.stop();
  }

  std::unique_ptr<SecureStoreClient> make_client(ClientId id) {
    SecureStoreClient::Options options;
    options.policy = mrc_policy();
    options.round_timeout = milliseconds(500);
    return std::make_unique<SecureStoreClient>(transport, NodeId{1000 + id.value}, id,
                                               client_pairs[id.value - 1], config, options,
                                               Rng(id.value * 97));
  }
};

/// Blocking bridge. Protocol objects are single-threaded BY DESIGN (they
/// run entirely on the dispatch thread), so op *initiation* is posted onto
/// that thread via schedule(0); the completion callback fulfills a promise
/// the main thread waits on.
VoidResult wait_void(net::Transport& transport,
                     const std::function<void(SecureStoreClient::VoidCb)>& op) {
  auto promise = std::make_shared<std::promise<VoidResult>>();
  auto future = promise->get_future();
  transport.schedule(0, [op, promise] {
    op([promise](VoidResult r) { promise->set_value(std::move(r)); });
  });
  if (future.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    return VoidResult(Error::kTimeout, "wall-clock safety timeout");
  }
  return future.get();
}

Result<core::ReadOutput> wait_read(net::Transport& transport, SecureStoreClient& client,
                                   ItemId item) {
  auto promise = std::make_shared<std::promise<Result<core::ReadOutput>>>();
  auto future = promise->get_future();
  transport.schedule(0, [&client, item, promise] {
    client.read(item,
                [promise](Result<core::ReadOutput> r) { promise->set_value(std::move(r)); });
  });
  if (future.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    return Result<core::ReadOutput>(Error::kTimeout, "wall-clock safety timeout");
  }
  return future.get();
}

TEST(ThreadTransport, FullSessionOverRealTime) {
  LiveDeployment deployment(4, 1);
  auto client = deployment.make_client(ClientId{1});

  ASSERT_TRUE(
      wait_void(deployment.transport, [&](auto cb) { client->connect(kGroup, cb); }).ok());
  ASSERT_TRUE(wait_void(deployment.transport, [&](auto cb) {
                client->write(kX, to_bytes("live value"), cb);
              }).ok());

  const auto result = wait_read(deployment.transport, *client, kX);
  ASSERT_TRUE(result.ok()) << error_name(result.error());
  EXPECT_EQ(to_string(result->value), "live value");

  ASSERT_TRUE(wait_void(deployment.transport, [&](auto cb) { client->disconnect(cb); }).ok());
}

TEST(ThreadTransport, GossipDisseminatesInRealTime) {
  LiveDeployment deployment(4, 1);
  auto client = deployment.make_client(ClientId{1});
  ASSERT_TRUE(wait_void(deployment.transport, [&](auto cb) {
                client->write(kX, to_bytes("spread live"), cb);
              }).ok());

  // Written to b+1 = 2 servers; gossip (20 ms period) reaches the rest.
  // Stores are only touched on the dispatch thread, so inspect them there.
  auto count_replicas = [&] {
    auto promise = std::make_shared<std::promise<std::size_t>>();
    auto future = promise->get_future();
    deployment.transport.schedule(0, [&deployment, promise] {
      std::size_t have = 0;
      for (const auto& server : deployment.servers) {
        if (server->store().current(kX) != nullptr) ++have;
      }
      promise->set_value(have);
    });
    return future.get();
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t have = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    have = count_replicas();
    if (have == deployment.servers.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(have, deployment.servers.size());
}

TEST(ThreadTransport, ConcurrentClientsDoNotInterfere) {
  LiveDeployment deployment(4, 1);
  auto alice = deployment.make_client(ClientId{1});
  auto bob = deployment.make_client(ClientId{2});

  // Two clients issue interleaved async ops (both posted to the dispatch
  // thread); both complete correctly.
  auto alice_write = std::make_shared<std::promise<VoidResult>>();
  auto bob_write = std::make_shared<std::promise<VoidResult>>();
  deployment.transport.schedule(0, [&] {
    alice->write(ItemId{1}, to_bytes("alice data"),
                 [alice_write](VoidResult r) { alice_write->set_value(std::move(r)); });
    bob->write(ItemId{2}, to_bytes("bob data"),
               [bob_write](VoidResult r) { bob_write->set_value(std::move(r)); });
  });

  ASSERT_TRUE(alice_write->get_future().get().ok());
  ASSERT_TRUE(bob_write->get_future().get().ok());

  const auto alice_view = wait_read(deployment.transport, *alice, ItemId{1});
  const auto bob_view = wait_read(deployment.transport, *bob, ItemId{2});
  ASSERT_TRUE(alice_view.ok());
  ASSERT_TRUE(bob_view.ok());
  EXPECT_EQ(to_string(alice_view->value), "alice data");
  EXPECT_EQ(to_string(bob_view->value), "bob data");
}

/// Runs `fn` on the dispatch thread and waits for it: protocol objects
/// (WAL stats included) are only touched there.
template <typename Fn>
auto on_dispatch(net::Transport& transport, Fn fn) {
  using R = decltype(fn());
  auto promise = std::make_shared<std::promise<R>>();
  auto future = promise->get_future();
  transport.schedule(0, [fn, promise] { promise->set_value(fn()); });
  return future.get();
}

TEST(ThreadTransport, WritesDrainedInOneWakeupCostOneFsyncPerServer) {
  std::string dir = (std::filesystem::temp_directory_path() / "securestore_gc_XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  {
    // Zero-latency links put a send straight into the destination's ring,
    // so writes issued from one dispatch job are all pending when each
    // server's drain runs. No gossip: client writes are the only appends.
    LiveSetup setup;
    setup.link = sim::LinkProfile{0, 0, 0};
    setup.gossip = false;
    setup.wal_root = dir;
    LiveDeployment d(4, 1, /*seed=*/5, setup);
    std::vector<std::unique_ptr<SecureStoreClient>> clients;
    for (std::uint32_t c = 1; c <= 4; ++c) {
      clients.push_back(d.make_client(ClientId{c}));
      SecureStoreClient* client = clients.back().get();
      ASSERT_TRUE(wait_void(d.transport, [client](auto done) {
                    client->connect(kGroup, std::move(done));
                  }).ok());
    }
    using Counts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;  // appends, fsyncs
    const auto wal_counts = [&d] {
      return on_dispatch(d.transport, [&d] {
        Counts counts;
        for (const auto& server : d.servers) {
          counts.emplace_back(server->wal_stats()->appends, server->wal_stats()->fsyncs);
        }
        return counts;
      });
    };
    const Counts before = wal_counts();

    auto all_acked = std::make_shared<std::promise<int>>();
    auto acked_future = all_acked->get_future();
    d.transport.schedule(0, [&clients, all_acked] {
      auto acked = std::make_shared<int>(0);
      for (std::uint32_t c = 1; c <= clients.size(); ++c) {
        clients[c - 1]->write(ItemId{c}, to_bytes("burst"),
                              [acked, all_acked](VoidResult r) {
                                *acked += r.ok() ? 1 : 0;
                                if (*acked == 4) all_acked->set_value(*acked);
                              });
      }
    });
    ASSERT_EQ(acked_future.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    const Counts after = wal_counts();

    std::uint64_t total_appends = 0;
    std::uint64_t widest_batch = 0;
    for (std::size_t s = 0; s < after.size(); ++s) {
      const std::uint64_t appends = after[s].first - before[s].first;
      const std::uint64_t fsyncs = after[s].second - before[s].second;
      total_appends += appends;
      widest_batch = std::max(widest_batch, appends);
      EXPECT_EQ(fsyncs, appends > 0 ? 1u : 0u) << "server " << s << ", " << appends << " appends";
    }
    EXPECT_GE(total_appends, 4u * d.config.data_quorum_honest());
    EXPECT_GE(widest_batch, 2u);  // some server committed several writes at once
  }
  std::filesystem::remove_all(dir);
}

TEST(ThreadTransport, NowAdvancesWithWallClock) {
  net::ThreadTransport transport(sim::NetworkModel(Rng(1), sim::zero_profile()));
  const SimTime before = transport.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const SimTime after = transport.now();
  EXPECT_GE(after - before, milliseconds(15));
  transport.stop();
}

TEST(ThreadTransport, StopCountsDeliveriesStillInFlightDropped) {
  // A message on a slow link waits in the job heap as a timed delivery;
  // stop() drops it and counts it. The transport contract tests (shared
  // with TcpTransport) cover the rest of stop().
  net::ThreadTransport transport(
      sim::NetworkModel(Rng(1), sim::LinkProfile{seconds(60), 0, 0}));
  std::atomic<int> handled{0};
  transport.register_node(NodeId{1}, [&](NodeId, BytesView) { ++handled; });
  transport.send(NodeId{0}, NodeId{1}, to_bytes("slow"));
  EXPECT_EQ(transport.stats().messages_dropped, 0u);
  transport.stop();
  EXPECT_EQ(transport.stats().messages_sent, 1u);
  EXPECT_EQ(transport.stats().messages_dropped, 1u);
  transport.send(NodeId{0}, NodeId{1}, to_bytes("after stop"));
  EXPECT_EQ(transport.stats().messages_dropped, 2u);
  EXPECT_EQ(handled.load(), 0);
}

}  // namespace
}  // namespace securestore
