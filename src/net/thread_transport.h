// Real-time transport: wall-clock latencies, background dispatch thread.
//
// The simulator (SimTransport) gives deterministic virtual time; this
// transport runs the exact same protocol stack in *real* time — the
// "actual implementations" half of the paper's evaluation plan (§6). It
// models the network with the same LinkProfile sampling, but delays are
// slept through on a dispatch thread instead of skipped by a scheduler.
//
// `send` samples the link's latency; everything else — the dispatch
// thread, delivery rings, batched drains, shutdown accounting and the
// threading model — is the shared net::Executor (see executor.h). Call
// `stop()` BEFORE destroying servers/clients registered on the transport.
#pragma once

#include <memory>

#include "net/executor.h"
#include "net/transport.h"
#include "sim/network.h"

namespace securestore::net {

class ThreadTransport final : public Transport {
 public:
  /// `registry` scopes this deployment's metrics; null = own a fresh one.
  /// `events` scopes the event log the same way.
  explicit ThreadTransport(sim::NetworkModel network,
                           std::shared_ptr<obs::Registry> registry = nullptr,
                           std::shared_ptr<obs::EventLog> events = nullptr);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  void register_node(NodeId node, DeliverFn deliver) override {
    executor_.register_node(node, std::move(deliver));
  }
  void register_node_batched(NodeId node, BatchDeliverFn deliver) override {
    executor_.register_node_batched(node, std::move(deliver));
  }
  void unregister_node(NodeId node) override { executor_.unregister_node(node); }
  void send(NodeId from, NodeId to, Bytes payload) override;
  /// Microseconds of wall-clock time since construction.
  SimTime now() const override { return executor_.now(); }
  void schedule(SimDuration delay, std::function<void()> callback) override {
    executor_.schedule(delay, std::move(callback));
  }
  /// Delivery-ring occupancy of `node` (approximate; racing producers).
  std::size_t backlog(NodeId node) const override { return executor_.backlog(node); }
  const sim::TransportStats& stats() const override { return executor_.stats_view(); }
  void reset_stats() override { executor_.reset_stats(); }
  obs::Registry& registry() override { return executor_.registry(); }
  obs::EventLog& events() override { return executor_.events(); }

  /// Joins the dispatch thread; idempotent. Undelivered messages (queued
  /// jobs, ring remnants) are counted as dropped.
  void stop() { executor_.stop(); }

  /// Caps how many pending messages one drain hands a batch handler.
  /// Clamped to [1, kMaxDeliveryBatch]; 1 disables batching (benches A/B
  /// the verify pipeline with this).
  void set_max_batch(std::size_t n) { executor_.set_max_batch(n); }

  sim::NetworkModel& network() { return network_; }

 private:
  sim::NetworkModel network_;  // sampled under the executor's stats mutex (rng state)
  Executor executor_;
};

}  // namespace securestore::net
