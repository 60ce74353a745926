// Tests for the TCP transport: real sockets on loopback, two transports
// (two "processes") hosting servers and client respectively, and the full
// secure-store protocol across them.
#include <gtest/gtest.h>

#include <future>

#include "core/client.h"
#include "core/server.h"
#include "net/tcp_transport.h"

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

TEST(TcpTransport, RawDatagramAcrossSockets) {
  net::TcpTransport a(0, {});
  net::TcpTransport b(0, {});
  // Tell A where node 2 (hosted by B) lives.
  a.set_endpoint(NodeId{2}, net::TcpEndpoint{"127.0.0.1", b.port()});

  std::promise<Bytes> received;
  b.register_node(NodeId{2}, [&](NodeId from, BytesView payload) {
    EXPECT_EQ(from, NodeId{1});
    received.set_value(Bytes(payload.begin(), payload.end()));
  });

  a.send(NodeId{1}, NodeId{2}, to_bytes("over real tcp"));
  auto future = received.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(to_string(future.get()), "over real tcp");

  // The new transport counters see the traffic: the sender's queue reached
  // depth >= 1 and the receiver counted the payload bytes.
  EXPECT_GE(a.stats().send_queue_highwater, 1u);
  EXPECT_EQ(b.stats().bytes_received, to_bytes("over real tcp").size());

  a.stop();
  b.stop();
}

TEST(TcpTransport, LocalNodesShortCircuit) {
  net::TcpTransport transport(0, {});
  std::promise<Bytes> received;
  transport.register_node(NodeId{2}, [&](NodeId, BytesView payload) {
    received.set_value(Bytes(payload.begin(), payload.end()));
  });
  transport.send(NodeId{1}, NodeId{2}, to_bytes("in-process"));
  auto future = received.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(to_string(future.get()), "in-process");
  // bytes_received counts what reached a handler, local deliveries too.
  EXPECT_EQ(transport.stats().bytes_received, to_bytes("in-process").size());
  transport.stop();
}

TEST(TcpTransport, UnknownDestinationDropsCleanly) {
  net::TcpTransport transport(0, {});
  transport.send(NodeId{1}, NodeId{99}, to_bytes("void"));
  // Give the counter a moment (send is synchronous for the drop path).
  EXPECT_GE(transport.stats().messages_dropped, 1u);
  transport.stop();
}

TEST(TcpTransport, FullProtocolAcrossTwoProcesses) {
  // "Process" A hosts the 4 servers; "process" B hosts the client. All
  // client/server traffic crosses real loopback TCP.
  constexpr std::uint32_t kN = 4, kB = 1;

  net::TcpTransport server_side(0, {});
  net::TcpTransport client_side(0, {});
  for (std::uint32_t i = 0; i < kN; ++i) {
    client_side.set_endpoint(NodeId{i}, net::TcpEndpoint{"127.0.0.1", server_side.port()});
  }
  server_side.set_endpoint(NodeId{1000}, net::TcpEndpoint{"127.0.0.1", client_side.port()});

  core::StoreConfig config;
  config.n = kN;
  config.b = kB;
  Rng rng(5);
  const crypto::KeyPair client_pair = crypto::KeyPair::generate(rng);
  config.client_keys[1] = client_pair.public_key;
  std::vector<crypto::KeyPair> server_pairs;
  for (std::uint32_t i = 0; i < kN; ++i) {
    config.servers.push_back(NodeId{i});
    server_pairs.push_back(crypto::KeyPair::generate(rng));
    config.server_keys[NodeId{i}] = server_pairs.back().public_key;
  }

  std::vector<std::unique_ptr<SecureStoreServer>> servers;
  for (std::uint32_t i = 0; i < kN; ++i) {
    SecureStoreServer::Options options;
    options.gossip.period = milliseconds(50);
    servers.push_back(std::make_unique<SecureStoreServer>(server_side, NodeId{i}, config,
                                                          server_pairs[i], options,
                                                          rng.fork()));
    servers.back()->set_group_policy(mrc_policy());
  }

  SecureStoreClient::Options client_options;
  client_options.policy = mrc_policy();
  client_options.round_timeout = seconds(2);
  SecureStoreClient client(client_side, NodeId{1000}, ClientId{1}, client_pair, config,
                           client_options, rng.fork());

  auto wait_void = [&](auto op) {
    auto promise = std::make_shared<std::promise<VoidResult>>();
    auto future = promise->get_future();
    client_side.schedule(0, [op, promise] {
      op([promise](VoidResult r) { promise->set_value(std::move(r)); });
    });
    if (future.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      return VoidResult(Error::kTimeout, "safety timeout");
    }
    return future.get();
  };

  ASSERT_TRUE(wait_void([&](auto cb) { client.connect(kGroup, cb); }).ok());
  ASSERT_TRUE(
      wait_void([&](auto cb) { client.write(kX, to_bytes("tcp roundtrip"), cb); }).ok());

  auto read_promise = std::make_shared<std::promise<Result<core::ReadOutput>>>();
  auto read_future = read_promise->get_future();
  client_side.schedule(0, [&client, read_promise] {
    client.read(kX, [read_promise](Result<core::ReadOutput> r) {
      read_promise->set_value(std::move(r));
    });
  });
  ASSERT_EQ(read_future.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  const auto result = read_future.get();
  ASSERT_TRUE(result.ok()) << error_name(result.error());
  EXPECT_EQ(to_string(result->value), "tcp roundtrip");

  ASSERT_TRUE(wait_void([&](auto cb) { client.disconnect(cb); }).ok());

  // Gossip between the co-hosted servers spreads the write to all 4. The
  // stores are only touched on the dispatch thread, so inspect them there.
  auto count_replicas = [&] {
    auto promise = std::make_shared<std::promise<std::size_t>>();
    auto future = promise->get_future();
    server_side.schedule(0, [&servers, promise] {
      std::size_t have = 0;
      for (const auto& server : servers) {
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
    if (have == servers.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(have, servers.size());

  client_side.stop();
  server_side.stop();
}

TEST(TcpTransport, SurvivesPeerShutdownMidStream) {
  net::TcpTransport a(0, {});
  auto b = std::make_unique<net::TcpTransport>(0, std::map<NodeId, net::TcpEndpoint>{});
  a.set_endpoint(NodeId{2}, net::TcpEndpoint{"127.0.0.1", b->port()});

  std::atomic<int> received{0};
  b->register_node(NodeId{2}, [&](NodeId, BytesView) { ++received; });
  a.send(NodeId{1}, NodeId{2}, to_bytes("one"));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), 1);

  // Kill the peer; sends drop but nothing crashes or hangs.
  b->stop();
  b.reset();
  for (int i = 0; i < 5; ++i) a.send(NodeId{1}, NodeId{2}, to_bytes("into the void"));
  a.stop();
}

TEST(TcpTransport, ReconnectsAfterPeerRestart) {
  net::TcpTransport a(0, {});
  auto b = std::make_unique<net::TcpTransport>(0, std::map<NodeId, net::TcpEndpoint>{});
  const std::uint16_t port = b->port();
  a.set_endpoint(NodeId{2}, net::TcpEndpoint{"127.0.0.1", port});

  std::atomic<int> received_before{0};
  b->register_node(NodeId{2}, [&](NodeId, BytesView) { ++received_before; });
  a.send(NodeId{1}, NodeId{2}, to_bytes("before restart"));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received_before.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(received_before.load(), 1);
  EXPECT_EQ(a.stats().reconnects, 0u);

  // Kill the peer. Sends during the outage are dropped (datagram
  // semantics) while the writer backs off between failed reconnects.
  b->stop();
  b.reset();
  for (int i = 0; i < 3; ++i) {
    a.send(NodeId{1}, NodeId{2}, to_bytes("into the outage"));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Restart the peer on the same port (the listener may sit in TIME_WAIT
  // briefly; SO_REUSEADDR normally lets the rebind through immediately).
  std::unique_ptr<net::TcpTransport> b2;
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!b2 && std::chrono::steady_clock::now() < deadline) {
    try {
      b2 = std::make_unique<net::TcpTransport>(port, std::map<NodeId, net::TcpEndpoint>{});
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_NE(b2, nullptr) << "could not rebind restart port";

  std::atomic<int> received_after{0};
  b2->register_node(NodeId{2}, [&](NodeId, BytesView) { ++received_after; });

  // Traffic resumes: the connection writer re-establishes the link and the
  // reconnect is visible in the stats.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received_after.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    a.send(NodeId{1}, NodeId{2}, to_bytes("after restart"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(received_after.load(), 0);
  EXPECT_GE(a.stats().reconnects, 1u);
  EXPECT_GE(a.stats().connect_failures + a.stats().messages_dropped, 1u);

  b2->stop();
  a.stop();
}

}  // namespace
}  // namespace securestore
