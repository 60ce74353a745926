// Self-test of the benchmark's TimingTransport decorator on a live
// ThreadTransport. Checks that the decorator
//   * forwards backlog(), registry() and events() unchanged,
//   * hands handlers the original payload (the send-time prefix is stripped),
//   * never charges a node more handler CPU than the dispatch thread used,
//   * keeps its message counts equal to the inner TransportStats,
//   * files a timer under the layer of the node that armed it.
// Prints "selftest: ok" and exits 0, or names the failed check and exits 1.
#include <cstdio>
#include <future>

#include "net/thread_transport.h"
#include "timing_transport.h"

namespace {

using namespace securestore;
using perfbench::Layer;
using perfbench::TimingTransport;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED: %s\n", what);
    ++failures;
  }
}

template <typename Fn>
auto on_dispatch(net::Transport& transport, Fn fn) {
  std::promise<decltype(fn())> done;
  transport.schedule(0, [&] { done.set_value(fn()); });
  return done.get_future().get();
}

}  // namespace

int main() {
  constexpr SimDuration kDelay = microseconds(200);
  net::ThreadTransport inner(sim::NetworkModel(Rng(1), sim::LinkProfile{kDelay, 0, 0}));
  const NodeId server{0};
  const NodeId peer{1};
  const NodeId client{1000};
  TimingTransport timing(inner, [](NodeId n) { return n.value < 1000; }, kDelay);

  check(&timing.registry() == &inner.registry(), "registry() forwards to the inner transport");
  check(&timing.events() == &inner.events(), "events() forwards to the inner transport");

  constexpr int kRequests = 400;
  const Bytes request = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  std::promise<void> all_replied;
  int replies = 0;
  int bad_payloads = 0;
  bool timer_fired = false;

  timing.register_node(server, [&](NodeId from, BytesView payload) {
    if (!std::equal(payload.begin(), payload.end(), request.begin(), request.end())) {
      ++bad_payloads;
    }
    timing.send(server, from, Bytes(payload.begin(), payload.end()));
    timing.send(server, peer, Bytes{42});
  });
  timing.register_node(peer, [&](NodeId, BytesView payload) {
    if (payload.size() != 1 || payload[0] != 42) ++bad_payloads;
  });
  timing.register_node(client, [&](NodeId, BytesView payload) {
    if (!std::equal(payload.begin(), payload.end(), request.begin(), request.end())) {
      ++bad_payloads;
    }
    if (++replies == kRequests) {
      // Armed from a client handler: must land under client.timer.
      timing.schedule(milliseconds(1), [&] {
        timer_fired = true;
        all_replied.set_value();
      });
    }
  });

  on_dispatch(timing, [&] {
    timing.set_timing(true);
    return 0;
  });
  for (int i = 0; i < kRequests; ++i) {
    timing.schedule(0, [&] {
      timing.measure(Layer::kClientIssue, [&] { timing.send(client, server, request); });
    });
  }
  all_replied.get_future().wait();
  // Let the last server→peer messages land.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  struct Observed {
    std::uint64_t dispatch_cpu_ns;
    TimingTransport::Totals totals;
    std::unordered_map<std::uint32_t, std::uint64_t> node_cpu;
    std::size_t waits;
    std::size_t backlog_inner;
    std::size_t backlog_decorated;
  };
  const Observed seen = on_dispatch(timing, [&] {
    return Observed{perfbench::thread_cpu_ns(), timing.totals(),     timing.node_cpu_ns(),
                    timing.delivery_wait_us().size(), inner.backlog(server),
                    timing.backlog(server)};
  });
  inner.stop();

  check(timer_fired, "timer armed from a client handler fired");
  check(bad_payloads == 0, "handlers see the payload without the send-time prefix");
  check(seen.backlog_inner == seen.backlog_decorated, "backlog() forwards unchanged");
  std::uint64_t attributed = 0;
  for (const std::uint64_t ns : seen.totals.cpu_ns) attributed += ns;
  check(attributed <= seen.dispatch_cpu_ns, "layer CPU sum stays within dispatch-thread CPU");
  for (const auto& [node, ns] : seen.node_cpu) {
    check(ns <= seen.dispatch_cpu_ns, "per-node handler CPU stays within dispatch-thread CPU");
  }
  check(seen.node_cpu.contains(server.value) && seen.node_cpu.contains(client.value) &&
            seen.node_cpu.contains(peer.value),
        "every node's handler time is recorded");
  check(seen.totals.frames[static_cast<std::size_t>(Layer::kClientTimer)] == 1,
        "a timer armed by a client is filed under client.timer");
  check(seen.totals.frames[static_cast<std::size_t>(Layer::kClientIssue)] == kRequests,
        "every measured issue opened one client.issue frame");
  check(seen.totals.frames[static_cast<std::size_t>(Layer::kGossip)] > 0,
        "server-to-server deliveries are filed under gossip");

  const sim::TransportStats stats = inner.stats();
  check(timing.messages_sent() == stats.messages_sent, "sent count matches TransportStats");
  check(timing.messages_delivered() == stats.messages_delivered,
        "delivered count matches TransportStats");
  check(stats.messages_sent == 3u * kRequests, "every message was sent");
  check(stats.messages_delivered == stats.messages_sent, "every message was delivered");
  check(seen.waits == stats.messages_delivered, "one delivery-wait sample per delivered message");
  const std::uint64_t payload_bytes =
      2u * kRequests * request.size() + 1u * kRequests;  // requests, echoes, peer pings
  check(stats.bytes_sent == payload_bytes + stats.messages_sent * TimingTransport::kPrefixBytes,
        "bytes sent are the payload plus one prefix per message");

  if (failures != 0) return 1;
  std::printf("selftest: ok (%llu µs dispatch CPU, %llu µs attributed)\n",
              static_cast<unsigned long long>(seen.dispatch_cpu_ns / 1000),
              static_cast<unsigned long long>(attributed / 1000));
  return 0;
}
