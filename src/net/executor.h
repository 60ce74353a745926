// Real-time executor: the one dispatcher under ThreadTransport and
// TcpTransport.
//
// Threading model: ALL deliveries and scheduled callbacks execute on one
// dispatch thread, serializing every protocol handler — the protocol
// objects themselves stay single-threaded, exactly as under the simulator.
// Initiate client operations via schedule(0, ...). `deliver`, `schedule`,
// `register_node*` and the stats calls may be called from any thread.
//
// Jobs: a `(due time, sequence)` min-heap on the steady clock, so jobs due
// at the same instant run in the order they were enqueued.
//
// Delivery hot path: each registered node owns a bounded lock-free
// DeliveryRing. A due message is pushed into the destination's ring (two
// atomic ops) and the dispatcher is woken at most once per burst — the
// first push into an idle ring schedules a drain job; subsequent pushes
// ride for free. The drain hands the batch (up to `max_batch`, default
// Transport::kMaxDeliveryBatch) to the node's handler in one call, which
// is what lets a server verify a whole batch of signatures per wakeup.
// `bytes_received` counts the payload bytes handed to a handler.
//
// Shutdown: call `stop()` (joins the dispatch thread, drops pending jobs)
// BEFORE destroying nodes registered on the transport; pending jobs may
// otherwise run against destroyed objects. Messages undelivered at stop —
// queued delivery jobs and ring remnants alike — are counted dropped, and
// a delivery racing stop() finds its ring closed and counts its own drop,
// so messages_sent == messages_delivered + messages_dropped holds across
// a shutdown race.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>

#include "net/ring.h"
#include "net/transport.h"

namespace securestore::net {

class Executor {
 public:
  /// `registry` scopes the deployment's metrics (the executor folds its
  /// TransportStats in as `transport.*` gauges); null = own a fresh one.
  /// `events` scopes the event log the same way.
  Executor(std::shared_ptr<obs::Registry> registry, std::shared_ptr<obs::EventLog> events);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void register_node(NodeId node, Transport::DeliverFn deliver);
  void register_node_batched(NodeId node, Transport::BatchDeliverFn deliver);
  /// Tombstones the node: ring entries still in flight are counted dropped.
  void unregister_node(NodeId node);
  bool registered(NodeId node) const;
  /// Delivery-ring occupancy of `node` (approximate; racing producers).
  std::size_t backlog(NodeId node) const;

  /// Pushes `payload` into `to`'s ring after `delay` (0 = from the calling
  /// thread, no timer hop). Every failure path counts the drop.
  void deliver(NodeId from, NodeId to, Bytes payload, SimDuration delay = 0);
  void schedule(SimDuration delay, std::function<void()> callback);
  /// Microseconds of wall-clock time since construction.
  SimTime now() const;

  /// Caps how many pending messages one drain hands a batch handler.
  /// Clamped to [1, Transport::kMaxDeliveryBatch].
  void set_max_batch(std::size_t n);

  /// Joins the dispatch thread; idempotent. Undelivered messages (queued
  /// delivery jobs, ring remnants) are counted as dropped.
  void stop();

  /// Runs `fn(stats)` under the stats mutex and returns its result.
  template <typename Fn>
  decltype(auto) with_stats(Fn&& fn) {
    std::lock_guard lock(stats_mutex_);
    return fn(stats_);
  }
  void count_dropped(std::uint64_t n);
  /// The counters with the ring high-watermark folded in, copied under the
  /// stats mutex.
  sim::TransportStats stats() const;
  /// The same snapshot in storage that stays valid until the next call:
  /// the Transport::stats() contract.
  const sim::TransportStats& stats_view() const;
  void reset_stats();

  obs::Registry& registry() { return *registry_; }
  obs::EventLog& events() { return *events_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    Clock::time_point at;
    std::uint64_t sequence;
    std::function<void()> run;
    bool delivery = false;  // carries a message: dropping it must be counted
  };
  struct Later {
    bool operator()(const Job& a, const Job& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.sequence > b.sequence;
    }
  };

  /// One registered node's delivery state. Kept (as a tombstone with
  /// registered=false) after unregister_node so in-flight ring entries are
  /// still accounted.
  struct Endpoint {
    DeliveryRing ring;
    Transport::BatchDeliverFn deliver;  // guarded by handlers_mutex_
    bool registered = true;             // guarded by handlers_mutex_
    std::atomic<bool> drain_pending{false};
    /// The drain's batch, reused across drains so a wakeup allocates
    /// nothing. Touched only by the dispatch thread.
    std::vector<Delivery> batch;
  };

  /// False when the executor is stopping (the job will never run).
  bool enqueue(Clock::time_point at, std::function<void()> run, bool delivery = false);
  void dispatch_loop();
  void push(NodeId from, NodeId to, Bytes payload);
  void drain_endpoint(const std::shared_ptr<Endpoint>& endpoint);

  const Clock::time_point start_ = Clock::now();

  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::priority_queue<Job, std::vector<Job>, Later> jobs_;
  std::uint64_t next_sequence_ = 0;
  bool stopping_ = false;

  mutable std::mutex handlers_mutex_;
  std::unordered_map<NodeId, std::shared_ptr<Endpoint>> endpoints_;

  mutable std::mutex stats_mutex_;
  sim::TransportStats stats_;             // guarded by stats_mutex_
  mutable sim::TransportStats snapshot_;  // stats_view() storage, written under stats_mutex_
  /// Per-snapshot ring-occupancy high-watermark; lock-free because it is
  /// recorded on every successful ring push (the hot path).
  std::atomic<std::uint64_t> ring_highwater_{0};
  std::atomic<std::size_t> max_batch_{Transport::kMaxDeliveryBatch};

  std::shared_ptr<obs::Registry> registry_;
  std::shared_ptr<obs::EventLog> events_;
  std::uint64_t collector_id_ = 0;

  std::thread dispatcher_;
};

}  // namespace securestore::net
