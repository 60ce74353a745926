// Unit tests for the transport/rpc/quorum layer.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_transport.h"
#include "net/quorum.h"
#include "net/rpc.h"
#include "net/sim_transport.h"
#include "sim/scheduler.h"

namespace securestore::net {
namespace {

/// Installs a request handler that answers each request of a delivered
/// batch with `answer(from, type, body)`, in batch order.
template <typename Answer>
void serve_each(RpcNode& node, Answer answer) {
  node.set_batch_request_handler([answer](std::vector<IncomingRequest>& batch) mutable {
    std::vector<std::optional<std::pair<MsgType, Bytes>>> out;
    for (const IncomingRequest& request : batch) {
      out.push_back(answer(request.from, request.type, request.body));
    }
    return out;
  });
}

struct Harness {
  sim::Scheduler scheduler;
  SimTransport transport;

  explicit Harness(sim::LinkProfile profile = sim::lan_profile(), std::uint64_t seed = 1)
      : transport(scheduler, sim::NetworkModel(Rng(seed), profile)) {}
};

/// Transport that delivers synchronously inside send() — the sharpest
/// scheduling regime QuorumCall must survive (a reply can arrive before
/// send_request even returns). Timers are collected and run manually.
class InlineTransport final : public Transport {
 public:
  void register_node(NodeId node, DeliverFn deliver) override {
    handlers_[node] = std::move(deliver);
  }
  void unregister_node(NodeId node) override { handlers_.erase(node); }
  void send(NodeId from, NodeId to, Bytes payload) override {
    ++stats_.messages_sent;
    stats_.bytes_sent += payload.size();
    const auto it = handlers_.find(to);
    if (it == handlers_.end()) {
      ++stats_.messages_dropped;
      return;
    }
    ++stats_.messages_delivered;
    it->second(from, payload);
  }
  SimTime now() const override { return 0; }
  void schedule(SimDuration, std::function<void()> callback) override {
    timers_.push_back(std::move(callback));
  }
  const sim::TransportStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }

  void fire_timers() {
    auto timers = std::move(timers_);
    timers_.clear();
    for (auto& timer : timers) timer();
  }

 private:
  std::unordered_map<NodeId, DeliverFn> handlers_;
  std::vector<std::function<void()>> timers_;
  sim::TransportStats stats_;
};

/// Crafts a raw kResponse envelope as a Byzantine node would: kind=1, the
/// echoed rpc id, a type tag and body.
Bytes forge_response(std::uint64_t rpc_id, MsgType type, const Bytes& body) {
  Writer w;
  w.u8(1);  // Kind::kResponse
  w.u64(rpc_id);
  w.u16(static_cast<std::uint16_t>(type));
  w.raw(body);
  return w.take();
}

TEST(SimTransport, DeliversWithLatency) {
  Harness h(sim::LinkProfile{milliseconds(10), 0, 0.0});
  std::optional<SimTime> delivered_at;
  h.transport.register_node(NodeId{1}, [&](NodeId from, BytesView payload) {
    EXPECT_EQ(from, NodeId{0});
    EXPECT_EQ(Bytes(payload.begin(), payload.end()), to_bytes("hi"));
    delivered_at = h.scheduler.now();
  });
  h.transport.send(NodeId{0}, NodeId{1}, to_bytes("hi"));
  h.scheduler.run_until_idle();
  ASSERT_TRUE(delivered_at.has_value());
  EXPECT_EQ(*delivered_at, milliseconds(10));
}

TEST(SimTransport, UnregisteredDestinationDrops) {
  Harness h;
  h.transport.send(NodeId{0}, NodeId{42}, to_bytes("void"));
  h.scheduler.run_until_idle();
  EXPECT_EQ(h.transport.stats().messages_sent, 1u);
  EXPECT_EQ(h.transport.stats().messages_delivered, 0u);
  EXPECT_EQ(h.transport.stats().messages_dropped, 1u);
}

TEST(SimTransport, StatsCountBytes) {
  Harness h;
  h.transport.register_node(NodeId{1}, [](NodeId, BytesView) {});
  h.transport.send(NodeId{0}, NodeId{1}, Bytes(100, 0xaa));
  h.scheduler.run_until_idle();
  EXPECT_EQ(h.transport.stats().bytes_sent, 100u);
  h.transport.reset_stats();
  EXPECT_EQ(h.transport.stats().messages_sent, 0u);
}

TEST(SimTransport, SameTickDeliveriesCoalesceIntoOneBatch) {
  // Fixed latency, no jitter: five sends at t=0 all arrive at the same sim
  // instant, and the zero-delay flush event hands them to the batch handler
  // as ONE batch — the coalescing the server's batched verify pipeline
  // feeds on.
  Harness h(sim::LinkProfile{milliseconds(10), 0, 0.0});
  std::vector<std::size_t> batch_sizes;
  h.transport.register_node_batched(NodeId{1}, [&](std::vector<Delivery>& batch) {
    batch_sizes.push_back(batch.size());
    for (const Delivery& d : batch) EXPECT_EQ(d.from, NodeId{0});
  });
  for (std::uint8_t i = 0; i < 5; ++i) {
    h.transport.send(NodeId{0}, NodeId{1}, Bytes{i});
  }
  h.scheduler.run_until_idle();
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes.front(), 5u);
  EXPECT_EQ(h.transport.stats().messages_delivered, 5u);
}

TEST(SimTransport, OversizedBurstSplitsAtMaxBatch) {
  Harness h(sim::LinkProfile{milliseconds(10), 0, 0.0});
  std::vector<std::size_t> batch_sizes;
  h.transport.register_node_batched(NodeId{1}, [&](std::vector<Delivery>& batch) {
    batch_sizes.push_back(batch.size());
  });
  const std::size_t count = Transport::kMaxDeliveryBatch + 8;
  for (std::size_t i = 0; i < count; ++i) {
    h.transport.send(NodeId{0}, NodeId{1}, to_bytes("m"));
  }
  h.scheduler.run_until_idle();
  ASSERT_EQ(batch_sizes.size(), 2u);
  EXPECT_EQ(batch_sizes[0], Transport::kMaxDeliveryBatch);
  EXPECT_EQ(batch_sizes[1], 8u);
}

TEST(SimTransport, BatchCoalescingIsDeterministicAcrossRuns) {
  // Coalescing is a pure function of the seeded event sequence: two runs
  // with the same seed and jittered latencies produce identical batch
  // shapes. The deterministic chaos replay depends on this.
  const auto run = [] {
    Harness h(sim::LinkProfile{milliseconds(1), microseconds(500), 0.0}, /*seed=*/42);
    std::vector<std::size_t> sizes;
    h.transport.register_node_batched(
        NodeId{1}, [&](std::vector<Delivery>& batch) { sizes.push_back(batch.size()); });
    for (int i = 0; i < 20; ++i) h.transport.send(NodeId{0}, NodeId{1}, to_bytes("m"));
    h.scheduler.run_until_idle();
    return sizes;
  };
  EXPECT_EQ(run(), run());
}

TEST(Rpc, RequestResponse) {
  Harness h;
  RpcNode server(h.transport, NodeId{0});
  RpcNode client(h.transport, NodeId{1});

  serve_each(server, [](NodeId, MsgType type, BytesView body) {
    EXPECT_EQ(type, MsgType::kRead);
    Bytes echoed(body.begin(), body.end());
    echoed.push_back('!');
    return std::make_optional(std::make_pair(MsgType::kAck, echoed));
  });

  std::optional<Bytes> response;
  client.send_request(NodeId{0}, MsgType::kRead, to_bytes("ping"),
                      [&](NodeId from, MsgType type, BytesView body) {
                        EXPECT_EQ(from, NodeId{0});
                        EXPECT_EQ(type, MsgType::kAck);
                        response = Bytes(body.begin(), body.end());
                      });
  h.scheduler.run_until_idle();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(to_string(*response), "ping!");
}

TEST(Rpc, HandlerReturningNulloptMeansSilence) {
  Harness h;
  RpcNode server(h.transport, NodeId{0});
  RpcNode client(h.transport, NodeId{1});
  serve_each(server, [](NodeId, MsgType, BytesView) -> std::optional<std::pair<MsgType, Bytes>> {
        return std::nullopt;
      });

  bool responded = false;
  client.send_request(NodeId{0}, MsgType::kRead, {},
                      [&](NodeId, MsgType, BytesView) { responded = true; });
  h.scheduler.run_until_idle();
  EXPECT_FALSE(responded);
}

TEST(Rpc, CancelledRpcIgnoresLateResponse) {
  Harness h;
  RpcNode server(h.transport, NodeId{0});
  RpcNode client(h.transport, NodeId{1});
  serve_each(server, [](NodeId, MsgType, BytesView) {
    return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
  });

  bool fired = false;
  const std::uint64_t rpc_id = client.send_request(
      NodeId{0}, MsgType::kRead, {}, [&](NodeId, MsgType, BytesView) { fired = true; });
  client.cancel(rpc_id);
  h.scheduler.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(Rpc, OnewayDelivery) {
  Harness h;
  RpcNode a(h.transport, NodeId{0});
  RpcNode b(h.transport, NodeId{1});

  std::optional<MsgType> received;
  b.set_oneway_handler([&](NodeId from, MsgType type, BytesView) {
    EXPECT_EQ(from, NodeId{0});
    received = type;
  });
  a.send_oneway(NodeId{1}, MsgType::kGossipDigest, to_bytes("digest"));
  h.scheduler.run_until_idle();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, MsgType::kGossipDigest);
}

TEST(Rpc, BatchRequestHandlerReceivesCoalescedRequests) {
  // Three requests landing in one transport batch reach the batch handler
  // in ONE call, and every caller still gets its own correctly-correlated
  // response.
  Harness h(sim::LinkProfile{milliseconds(5), 0, 0.0});
  RpcNode server(h.transport, NodeId{0});
  RpcNode client(h.transport, NodeId{1});

  std::vector<std::size_t> batch_sizes;
  server.set_batch_request_handler([&](std::vector<IncomingRequest>& batch) {
    batch_sizes.push_back(batch.size());
    std::vector<std::optional<std::pair<MsgType, Bytes>>> out;
    for (const IncomingRequest& req : batch) {
      EXPECT_EQ(req.type, MsgType::kRead);
      Bytes echoed = req.body;
      echoed.push_back('!');
      out.emplace_back(std::make_pair(MsgType::kAck, std::move(echoed)));
    }
    return out;
  });

  int replies = 0;
  for (int i = 0; i < 3; ++i) {
    client.send_request(NodeId{0}, MsgType::kRead, to_bytes("q"),
                        [&](NodeId from, MsgType type, BytesView body) {
                          EXPECT_EQ(from, NodeId{0});
                          EXPECT_EQ(type, MsgType::kAck);
                          EXPECT_EQ(to_string(Bytes(body.begin(), body.end())), "q!");
                          ++replies;
                        });
  }
  h.scheduler.run_until_idle();
  EXPECT_EQ(replies, 3);
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes.front(), 3u);
}

TEST(Rpc, ShortBatchResultLeavesTailSilent) {
  // A batch handler returning fewer entries than requests means "no
  // response" for the tail — same semantics as a nullopt entry, never an
  // out-of-bounds read or a garbage reply.
  Harness h(sim::LinkProfile{milliseconds(5), 0, 0.0});
  RpcNode server(h.transport, NodeId{0});
  RpcNode client(h.transport, NodeId{1});
  server.set_batch_request_handler([](std::vector<IncomingRequest>& batch) {
    std::vector<std::optional<std::pair<MsgType, Bytes>>> out;
    if (!batch.empty()) out.emplace_back(std::make_pair(MsgType::kAck, Bytes{}));
    return out;  // only the first request gets an answer
  });

  int replies = 0;
  for (int i = 0; i < 3; ++i) {
    client.send_request(NodeId{0}, MsgType::kRead, to_bytes("q"),
                        [&](NodeId, MsgType, BytesView) { ++replies; });
  }
  h.scheduler.run_until_idle();
  EXPECT_EQ(replies, 1);
}

/// Transport double with native batching, driven by hand: the test hands a
/// node a batch of raw envelopes, and every send lands in the shared event
/// log instead of being delivered — so a log shows exactly where responses
/// leave relative to handlers and the commit hook.
class ManualBatchTransport final : public Transport {
 public:
  explicit ManualBatchTransport(std::vector<std::string>& log) : log_(log) {}
  void register_node(NodeId, DeliverFn) override {}
  void register_node_batched(NodeId node, BatchDeliverFn deliver) override {
    handlers_[node] = std::move(deliver);
  }
  void unregister_node(NodeId node) override { handlers_.erase(node); }
  void send(NodeId, NodeId, Bytes) override { log_.push_back("send"); }
  SimTime now() const override { return 0; }
  void schedule(SimDuration, std::function<void()>) override {}
  const sim::TransportStats& stats() const override { return stats_; }
  void reset_stats() override {}

  void deliver(NodeId to, std::vector<Delivery> batch) { handlers_.at(to)(batch); }

 private:
  std::vector<std::string>& log_;
  std::unordered_map<NodeId, BatchDeliverFn> handlers_;
  sim::TransportStats stats_;
};

Delivery request_envelope(NodeId from, std::uint64_t rpc_id) {
  Writer w;
  w.u8(0);  // Kind::kRequest
  w.u64(rpc_id);
  w.u16(static_cast<std::uint16_t>(MsgType::kWrite));
  return Delivery{from, w.take()};
}

Delivery oneway_envelope(NodeId from) {
  Writer w;
  w.u8(2);  // Kind::kOneway
  w.u64(0);
  w.u16(static_cast<std::uint16_t>(MsgType::kGossipUpdates));
  return Delivery{from, w.take()};
}

TEST(Rpc, CommitHookRunsOncePerBatchAfterHandlersBeforeResponses) {
  // One-ways run inline, the batch's requests in one handler call, then the
  // commit hook exactly once, then the responses leave.
  std::vector<std::string> log;
  ManualBatchTransport transport(log);
  RpcNode server(transport, NodeId{0});
  serve_each(server, [&](NodeId, MsgType, BytesView) {
    log.push_back("request");
    return std::make_optional(std::make_pair(MsgType::kWrite, Bytes{}));
  });
  server.set_oneway_handler([&](NodeId, MsgType, BytesView) { log.push_back("oneway"); });
  server.set_commit_hook([&] { log.push_back("commit"); });

  transport.deliver(NodeId{0}, {request_envelope(NodeId{1}, 7), oneway_envelope(NodeId{2}),
                                request_envelope(NodeId{3}, 8), oneway_envelope(NodeId{2})});
  EXPECT_EQ(log, (std::vector<std::string>{"oneway", "oneway", "request", "request", "commit",
                                           "send", "send"}));

  // A batch of one-ways alone still reaches the commit point once.
  log.clear();
  transport.deliver(NodeId{0}, {oneway_envelope(NodeId{2}), oneway_envelope(NodeId{3})});
  EXPECT_EQ(log, (std::vector<std::string>{"oneway", "oneway", "commit"}));
}

TEST(Rpc, CommitHookRunsPerMessageOnTheBatchOfOneAdapter) {
  // InlineTransport has no native batching: each message is a batch of one
  // through Transport's adapter, and delivers inline — so the client's
  // response callback runs at the very moment the server sends.
  InlineTransport transport;
  RpcNode server(transport, NodeId{0});
  RpcNode client(transport, NodeId{1});
  std::vector<std::string> log;
  server.set_batch_request_handler([&](std::vector<IncomingRequest>& batch) {
    log.push_back("request");
    return std::vector<std::optional<std::pair<MsgType, Bytes>>>(
        batch.size(), std::make_pair(MsgType::kAck, Bytes{}));
  });
  server.set_oneway_handler([&](NodeId, MsgType, BytesView) { log.push_back("oneway"); });
  server.set_commit_hook([&] { log.push_back("commit"); });

  client.send_request(NodeId{0}, MsgType::kWrite, Bytes{},
                      [&](NodeId, MsgType, BytesView) { log.push_back("response"); });
  client.send_oneway(NodeId{0}, MsgType::kGossipUpdates, Bytes{});
  EXPECT_EQ(log, (std::vector<std::string>{"request", "commit", "response", "oneway", "commit"}));
}

TEST(Rpc, MalformedDatagramIgnored) {
  Harness h;
  RpcNode receiver(h.transport, NodeId{1});
  bool crashed = false;
  serve_each(receiver, [&](NodeId, MsgType, BytesView) {
    crashed = true;
    return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
  });
  h.transport.send(NodeId{0}, NodeId{1}, Bytes{0x01});  // truncated envelope
  h.scheduler.run_until_idle();
  EXPECT_FALSE(crashed);
}

TEST(Rpc, SpoofedResponseFromNonTargetDropped) {
  Harness h;
  RpcNode mute(h.transport, NodeId{0});  // target: never answers
  RpcNode byzantine(h.transport, NodeId{2});
  RpcNode client(h.transport, NodeId{1});

  int fired = 0;
  NodeId reply_from{};
  const std::uint64_t rpc_id =
      client.send_request(NodeId{0}, MsgType::kRead, to_bytes("q"),
                          [&](NodeId from, MsgType, BytesView) {
                            ++fired;
                            reply_from = from;
                          });

  // A Byzantine server that somehow learned the rpc id answers for the
  // honest target. The reply must be dropped: it is not from node 0.
  h.transport.send(NodeId{2}, NodeId{1},
                   forge_response(rpc_id, MsgType::kAck, to_bytes("forged")));
  h.scheduler.run_until_idle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(client.pending_count(), 1u);  // spoof did not consume the rpc

  // The genuine reply from the target is still accepted afterwards.
  h.transport.send(NodeId{0}, NodeId{1},
                   forge_response(rpc_id, MsgType::kAck, to_bytes("real")));
  h.scheduler.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reply_from, NodeId{0});
  EXPECT_EQ(client.pending_count(), 0u);
  (void)byzantine;
}

TEST(Rpc, InitialRpcIdsRandomized) {
  // Ids start at a random 63-bit value per node: two independent nodes
  // colliding (or starting at the historical 1) would be a 2^-63 event.
  Harness h;
  RpcNode a(h.transport, NodeId{1});
  RpcNode b(h.transport, NodeId{2});
  const std::uint64_t id_a =
      a.send_request(NodeId{0}, MsgType::kRead, {}, [](NodeId, MsgType, BytesView) {});
  const std::uint64_t id_b =
      b.send_request(NodeId{0}, MsgType::kRead, {}, [](NodeId, MsgType, BytesView) {});
  EXPECT_NE(id_a, id_b);
  EXPECT_NE(id_a, 1u);
  a.cancel(id_a);
  b.cancel(id_b);
}

TEST(Quorum, SynchronousReplyDoesNotLeakPendingRpcs) {
  // Replies delivered inside send_request() used to finish the call before
  // later rpc ids were recorded, leaking their callbacks in pending_.
  InlineTransport transport;
  std::vector<std::unique_ptr<RpcNode>> servers;
  std::atomic<int> requests_seen{0};
  for (std::uint32_t i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<RpcNode>(transport, NodeId{i}));
    serve_each(*servers.back(), [&requests_seen](NodeId, MsgType, BytesView) {
      ++requests_seen;
      return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
    });
  }
  RpcNode client(transport, NodeId{100});

  std::optional<QuorumOutcome> outcome;
  QuorumCall::start(
      client, {NodeId{0}, NodeId{1}, NodeId{2}}, MsgType::kRead, {},
      [](NodeId, MsgType, BytesView) { return true; },  // first reply satisfies
      [&](QuorumOutcome result, std::size_t count) {
        outcome = result;
        EXPECT_EQ(count, 1u);
      });

  EXPECT_EQ(outcome, QuorumOutcome::kSatisfied);
  // The call was satisfied during the first send: the remaining targets
  // are never contacted and nothing lingers in pending_.
  EXPECT_EQ(requests_seen.load(), 1);
  EXPECT_EQ(client.pending_count(), 0u);

  // The (now moot) timeout timer must be a no-op, not a second done().
  transport.fire_timers();
  EXPECT_EQ(outcome, QuorumOutcome::kSatisfied);
}

TEST(Quorum, SynchronousExhaustionDrainsPending) {
  InlineTransport transport;
  std::vector<std::unique_ptr<RpcNode>> servers;
  for (std::uint32_t i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<RpcNode>(transport, NodeId{i}));
    serve_each(*servers.back(), [](NodeId, MsgType, BytesView) {
      return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
    });
  }
  RpcNode client(transport, NodeId{100});

  std::optional<QuorumOutcome> outcome;
  std::size_t replies = 0;
  QuorumCall::start(
      client, {NodeId{0}, NodeId{1}, NodeId{2}}, MsgType::kRead, {},
      [&](NodeId, MsgType, BytesView) {
        ++replies;
        return false;  // never satisfied: exhausts after all three
      },
      [&](QuorumOutcome result, std::size_t) { outcome = result; });

  EXPECT_EQ(outcome, QuorumOutcome::kExhausted);
  EXPECT_EQ(replies, 3u);
  EXPECT_EQ(client.pending_count(), 0u);
}

TEST(Quorum, SatisfiedCallReleasesStateBeforeTimeout) {
  // The timeout timer holds only a weak reference: once satisfied, the
  // call state — and the buffers captured in its callbacks — must be
  // released immediately, not pinned until the timer fires.
  InlineTransport transport;
  RpcNode server(transport, NodeId{0});
  serve_each(server, [](NodeId, MsgType, BytesView) {
    return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
  });
  RpcNode client(transport, NodeId{100});

  auto sentinel = std::make_shared<int>(7);  // stands in for captured buffers
  std::weak_ptr<int> weak = sentinel;
  QuorumCall::start(
      client, {NodeId{0}}, MsgType::kRead, {},
      [sentinel](NodeId, MsgType, BytesView) { return true; },
      [](QuorumOutcome, std::size_t) {});
  sentinel.reset();

  EXPECT_TRUE(weak.expired());  // released at satisfaction, timer still pending
  transport.fire_timers();      // and the timer finds nothing to do
}

TEST(Quorum, SatisfiedWhenPredicateAccepts) {
  Harness h;
  std::vector<std::unique_ptr<RpcNode>> servers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    servers.push_back(std::make_unique<RpcNode>(h.transport, NodeId{i}));
    serve_each(*servers.back(), [i](NodeId, MsgType, BytesView) {
      Writer w;
      w.u32(i);
      return std::make_optional(std::make_pair(MsgType::kAck, w.take()));
    });
  }
  RpcNode client(h.transport, NodeId{100});

  std::size_t replies = 0;
  std::optional<QuorumOutcome> outcome;
  QuorumCall::start(
      client, {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}, MsgType::kRead, {},
      [&](NodeId, MsgType, BytesView) { return ++replies >= 3; },
      [&](QuorumOutcome result, std::size_t count) {
        outcome = result;
        EXPECT_EQ(count, 3u);
      });
  h.scheduler.run_until_idle();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, QuorumOutcome::kSatisfied);
}

TEST(Quorum, ExhaustedWhenAllReplyWithoutAcceptance) {
  Harness h;
  RpcNode server(h.transport, NodeId{0});
  serve_each(server, [](NodeId, MsgType, BytesView) {
    return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
  });
  RpcNode client(h.transport, NodeId{100});

  std::optional<QuorumOutcome> outcome;
  QuorumCall::start(
      client, {NodeId{0}}, MsgType::kRead, {},
      [](NodeId, MsgType, BytesView) { return false; },
      [&](QuorumOutcome result, std::size_t) { outcome = result; });
  h.scheduler.run_until_idle();
  EXPECT_EQ(outcome, QuorumOutcome::kExhausted);
}

TEST(Quorum, TimeoutWhenServersSilent) {
  Harness h;
  RpcNode mute(h.transport, NodeId{0});  // no handler: drops requests
  RpcNode client(h.transport, NodeId{100});

  std::optional<QuorumOutcome> outcome;
  std::optional<SimTime> finished_at;
  QuorumCall::start(
      client, {NodeId{0}}, MsgType::kRead, {},
      [](NodeId, MsgType, BytesView) { return true; },
      [&](QuorumOutcome result, std::size_t) {
        outcome = result;
        finished_at = h.scheduler.now();
      },
      QuorumCall::Options{milliseconds(500)});
  h.scheduler.run_until_idle();
  EXPECT_EQ(outcome, QuorumOutcome::kTimeout);
  EXPECT_EQ(*finished_at, milliseconds(500));
}

TEST(Quorum, EmptyTargetsExhaustImmediately) {
  Harness h;
  RpcNode client(h.transport, NodeId{100});
  std::optional<QuorumOutcome> outcome;
  QuorumCall::start(
      client, {}, MsgType::kRead, {}, [](NodeId, MsgType, BytesView) { return true; },
      [&](QuorumOutcome result, std::size_t) { outcome = result; });
  EXPECT_EQ(outcome, QuorumOutcome::kExhausted);
}

TEST(Quorum, DuplicateTargetEntriesCountDistinctResponders) {
  // A target list naming one server twice sends it two rpcs, but the quorum
  // tally counts responders: the second reply from the same node must not
  // advance the count, and exhaustion means "every DISTINCT target spoke".
  Harness h;
  std::vector<std::unique_ptr<RpcNode>> servers;
  for (std::uint32_t i = 0; i < 2; ++i) {
    servers.push_back(std::make_unique<RpcNode>(h.transport, NodeId{i}));
    serve_each(*servers.back(), [](NodeId, MsgType, BytesView) {
      return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
    });
  }
  RpcNode client(h.transport, NodeId{100});

  std::size_t on_reply_calls = 0;
  std::optional<QuorumOutcome> outcome;
  std::size_t final_count = 0;
  QuorumCall::start(
      client, {NodeId{0}, NodeId{0}, NodeId{1}}, MsgType::kRead, {},
      [&](NodeId, MsgType, BytesView) {
        ++on_reply_calls;
        return false;
      },
      [&](QuorumOutcome result, std::size_t count) {
        outcome = result;
        final_count = count;
      });
  h.scheduler.run_until_idle();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, QuorumOutcome::kExhausted);
  EXPECT_EQ(on_reply_calls, 2u);
  EXPECT_EQ(final_count, 2u);
}

TEST(Quorum, DuplicatedFramesCannotFakeAQuorum) {
  // Chaos rule: every frame is duplicated (requests and responses). A
  // collector that would be satisfied by hearing the same server twice must
  // never be — replayed frames are deduplicated before the tally.
  Harness h;
  FaultInjectingTransport chaotic(h.transport, /*seed=*/7);
  FaultRule duplicate_everything;
  duplicate_everything.duplicate = 1.0;
  chaotic.set_default_rule(duplicate_everything);

  RpcNode server(chaotic, NodeId{0});
  serve_each(server, [](NodeId, MsgType, BytesView) {
    return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
  });
  RpcNode client(chaotic, NodeId{100});

  std::size_t replies = 0;
  std::optional<QuorumOutcome> outcome;
  QuorumCall::start(
      client, {NodeId{0}}, MsgType::kRead, {},
      [&](NodeId, MsgType, BytesView) { return ++replies >= 2; },
      [&](QuorumOutcome result, std::size_t) { outcome = result; },
      QuorumCall::Options{milliseconds(500)});
  h.scheduler.run_until_idle();
  EXPECT_GT(chaotic.injected_count(), 0u);  // the duplicate rule really fired
  EXPECT_EQ(replies, 1u);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_NE(*outcome, QuorumOutcome::kSatisfied);
}

TEST(Quorum, DoneFiresExactlyOnce) {
  Harness h;
  RpcNode server(h.transport, NodeId{0});
  serve_each(server, [](NodeId, MsgType, BytesView) {
    return std::make_optional(std::make_pair(MsgType::kAck, Bytes{}));
  });
  RpcNode client(h.transport, NodeId{100});

  int done_count = 0;
  QuorumCall::start(
      client, {NodeId{0}}, MsgType::kRead, {},
      [](NodeId, MsgType, BytesView) { return true; },
      [&](QuorumOutcome, std::size_t) { ++done_count; },
      QuorumCall::Options{milliseconds(100)});
  h.scheduler.run_until_idle();  // runs past the timeout too
  EXPECT_EQ(done_count, 1);
}

}  // namespace
}  // namespace securestore::net
