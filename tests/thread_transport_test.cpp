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

TEST(ThreadTransport, BatchedDeliveryDrainsBurstsWithCappedBatches) {
  // Zero-latency sends publish straight into the destination ring from the
  // caller thread; the dispatcher drains them in batches capped by
  // set_max_batch. Every message arrives exactly once, in send order.
  net::ThreadTransport transport(sim::NetworkModel(Rng(1), sim::zero_profile()));
  transport.set_max_batch(4);
  std::atomic<std::size_t> total{0};
  std::atomic<std::size_t> calls{0};
  std::atomic<bool> order_ok{true};
  auto next_expected = std::make_shared<std::uint32_t>(0);  // dispatch thread only
  transport.register_node_batched(NodeId{1}, [&, next_expected](
                                                 std::vector<net::Delivery>& batch) {
    if (batch.empty() || batch.size() > 4) order_ok = false;
    for (const net::Delivery& d : batch) {
      Reader r(d.payload);
      if (r.u32() != (*next_expected)++) order_ok = false;
    }
    calls.fetch_add(1);
    total.fetch_add(batch.size());
  });

  constexpr std::uint32_t kCount = 400;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    Writer w;
    w.u32(i);
    transport.send(NodeId{0}, NodeId{1}, w.take());
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (total.load() < kCount && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  transport.stop();
  EXPECT_EQ(total.load(), kCount);
  EXPECT_TRUE(order_ok.load());
  EXPECT_GE(calls.load(), kCount / 4);  // cap respected ⇒ at least count/cap calls
  EXPECT_EQ(transport.stats().messages_delivered, kCount);
  EXPECT_EQ(transport.stats().messages_dropped, 0u);
}

TEST(ThreadTransport, SendsRacingStopAreDeliveredOrCountedDropped) {
  // Same exact-accounting contract as the TCP transport: sends racing
  // stop() either reach the handler or land in messages_dropped.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  net::ThreadTransport transport(sim::NetworkModel(Rng(1), sim::zero_profile()));
  std::atomic<std::uint64_t> handled{0};
  transport.register_node_batched(NodeId{9}, [&](std::vector<net::Delivery>& batch) {
    handled.fetch_add(batch.size());
  });

  std::atomic<bool> go{false};
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        transport.send(NodeId{0}, NodeId{9}, to_bytes("racing"));
      }
    });
  }
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  transport.stop();
  for (auto& thread : senders) thread.join();

  const auto& stats = transport.stats();
  EXPECT_EQ(stats.messages_sent, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.messages_sent, stats.messages_delivered + stats.messages_dropped);
  EXPECT_EQ(stats.messages_delivered, handled.load());
}

TEST(ThreadTransport, StopIsIdempotentAndDropsPendingJobs) {
  auto transport =
      std::make_unique<net::ThreadTransport>(sim::NetworkModel(Rng(1), sim::zero_profile()));
  auto fired = std::make_shared<std::atomic<bool>>(false);
  transport->schedule(seconds(60), [fired] { *fired = true; });
  transport->stop();
  transport->stop();
  transport.reset();
  EXPECT_FALSE(*fired);
}

}  // namespace
}  // namespace securestore
