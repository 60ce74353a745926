// A net::Transport decorator that attributes dispatch-thread CPU to layers.
//
// The store's thread transport runs every server and client handler, and
// every timer callback, on one dispatch thread. This decorator sits between
// the protocol objects and that transport and times, on the dispatch
// thread, each delivery batch, each timer callback and each benchmark job,
// charging the thread CPU time spent to one layer:
//
//   client.issue   the benchmark's synchronous write()/read() calls
//   client.reply   deliveries to client nodes (replies, completion callbacks)
//   client.timer   timers a client scheduled (quorum timeouts, retry backoff)
//   server.request deliveries to a server from a client
//   gossip         deliveries to a server from another server, plus every
//                  timer a server scheduled (gossip ticks)
//   bench          benchmark-owned jobs (samplers, barriers)
//
// Frames nest (a client completion callback that issues the next op charges
// the issue to client.issue, not twice), so the layer totals are exclusive
// and their sum never exceeds the dispatch thread's CPU time. What the
// transport itself spends between frames (ring drains, job queue) is left
// unattributed on purpose; the benchmark reports it as a residual.
//
// Each payload is prefixed with its send time (8 bytes, stripped before the
// inner handler sees it), so the decorator can measure how long a message
// waited beyond the fixed link delay before its handler started.
//
// Everything except the atomic message counters is written only on the
// dispatch thread; read it from a job on that thread (or after stop()).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace perfbench {

using securestore::Bytes;
using securestore::NodeId;
using securestore::SimDuration;
using securestore::SimTime;

enum class Layer : std::uint8_t {
  kClientIssue,
  kClientReply,
  kClientTimer,
  kServerRequest,
  kGossip,
  kBench,
  kCount,
};

/// CPU time consumed by the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns();

class TimingTransport final : public securestore::net::Transport {
 public:
  /// `is_server` classifies node ids; `link_delay` is the inner transport's
  /// fixed one-way delay, subtracted from the measured delivery wait.
  TimingTransport(securestore::net::Transport& inner, std::function<bool(NodeId)> is_server,
                  SimDuration link_delay);

  TimingTransport(const TimingTransport&) = delete;
  TimingTransport& operator=(const TimingTransport&) = delete;

  void register_node(NodeId node, DeliverFn deliver) override;
  void register_node_batched(NodeId node, BatchDeliverFn deliver) override;
  void unregister_node(NodeId node) override;
  void send(NodeId from, NodeId to, Bytes payload) override;
  SimTime now() const override { return inner_.now(); }
  void schedule(SimDuration delay, std::function<void()> callback) override;
  std::size_t backlog(NodeId node) const override { return inner_.backlog(node); }
  void refund_service(NodeId node) override { inner_.refund_service(node); }
  const securestore::sim::TransportStats& stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }
  securestore::obs::Registry& registry() override { return inner_.registry(); }
  securestore::obs::EventLog& events() override { return inner_.events(); }

  /// Turns CPU and wait measurement on or off (the send-time prefix is
  /// always applied, so messages in flight across a toggle stay valid).
  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  bool timing() const { return timing_.load(std::memory_order_relaxed); }

  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

  /// Runs `fn` on the calling (dispatch) thread, charging its CPU to `layer`
  /// (and to `node`, if given). Timers `fn` arms inherit the frame, so
  /// constructing a server inside measure(kGossip, ..., server) files its
  /// gossip ticks under gossip.
  void measure(Layer layer, const std::function<void()>& fn, std::uint32_t node = kNoNode);

  /// Bytes added to every payload by the send-time prefix.
  static constexpr std::size_t kPrefixBytes = 8;

  struct Totals {
    std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> cpu_ns{};
    std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> frames{};
  };
  /// Dispatch thread only.
  const Totals& totals() const { return totals_; }
  /// Per-node CPU of that node's delivery handlers. Dispatch thread only.
  const std::unordered_map<std::uint32_t, std::uint64_t>& node_cpu_ns() const {
    return node_cpu_ns_;
  }
  /// Handler start − send time − link delay, µs, one per delivered message
  /// while timing was on. Dispatch thread only.
  const std::vector<float>& delivery_wait_us() const { return delivery_wait_us_; }

  std::uint64_t messages_sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t messages_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  /// Opens a frame; returns the frame it interrupted (restored by leave).
  struct Frame {
    Layer layer = Layer::kCount;  // kCount: outside every frame
    std::uint32_t node = kNoNode;
  };
  Frame enter(Layer layer, std::uint32_t node);
  void leave(Frame outer);
  void charge(std::uint64_t now_ns);
  BatchDeliverFn wrap(NodeId node, BatchDeliverFn deliver);

  securestore::net::Transport& inner_;
  std::function<bool(NodeId)> is_server_;
  const std::int64_t link_delay_ns_;
  std::atomic<bool> timing_{false};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};

  Totals totals_;
  std::unordered_map<std::uint32_t, std::uint64_t> node_cpu_ns_;
  std::vector<float> delivery_wait_us_;
};

}  // namespace perfbench
