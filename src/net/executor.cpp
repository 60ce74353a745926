#include "net/executor.h"

#include <algorithm>

namespace securestore::net {

namespace {

/// Relaxed CAS-max into an atomic high-watermark: the successful-push path
/// records ring occupancy and therefore cannot take the stats mutex.
void record_highwater(std::atomic<std::uint64_t>& highwater, std::uint64_t value) {
  std::uint64_t current = highwater.load(std::memory_order_relaxed);
  while (value > current &&
         !highwater.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Executor::Executor(std::shared_ptr<obs::Registry> registry,
                   std::shared_ptr<obs::EventLog> events)
    : registry_(registry != nullptr ? std::move(registry) : std::make_shared<obs::Registry>()),
      events_(events != nullptr ? std::move(events) : std::make_shared<obs::EventLog>()) {
  collector_id_ = registry_->add_collector([this](obs::Registry& r) {
    // A by-value copy: a concurrent stats_view() caller rewrites
    // snapshot_, so the fold must not read it outside the lock.
    fold_transport_stats(r, stats());
    // The high-watermark is a per-snapshot signal: reset after folding so
    // successive snapshots show the pressure ramp, not one all-time peak.
    ring_highwater_.store(0, std::memory_order_relaxed);
  });
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

Executor::~Executor() {
  stop();
  registry_->remove_collector(collector_id_);
}

void Executor::stop() {
  {
    std::lock_guard lock(jobs_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  jobs_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();

  // Nothing drains the queues anymore: account every undelivered message
  // so `sent == delivered + dropped` survives a send racing stop().
  std::uint64_t undelivered = 0;
  {
    std::lock_guard lock(jobs_mutex_);
    while (!jobs_.empty()) {
      if (jobs_.top().delivery) ++undelivered;
      jobs_.pop();
    }
  }
  std::vector<std::shared_ptr<Endpoint>> endpoints;
  {
    std::lock_guard lock(handlers_mutex_);
    for (auto& [node, endpoint] : endpoints_) endpoints.push_back(endpoint);
  }
  std::vector<Delivery> rest;
  for (const auto& endpoint : endpoints) {
    // close() waits out in-flight pushes; racing senders from here on get
    // kClosed back and count their own drop.
    endpoint->ring.close();
    rest.clear();
    while (endpoint->ring.drain(rest, Transport::kMaxDeliveryBatch) != 0) {
      undelivered += rest.size();
      rest.clear();
    }
  }
  if (undelivered != 0) count_dropped(undelivered);
}

void Executor::set_max_batch(std::size_t n) {
  max_batch_.store(std::clamp<std::size_t>(n, 1, Transport::kMaxDeliveryBatch),
                   std::memory_order_relaxed);
}

void Executor::register_node(NodeId node, Transport::DeliverFn deliver) {
  register_node_batched(node, [fn = std::move(deliver)](std::vector<Delivery>& batch) {
    for (Delivery& d : batch) fn(d.from, d.payload);
  });
}

void Executor::register_node_batched(NodeId node, Transport::BatchDeliverFn deliver) {
  std::lock_guard lock(handlers_mutex_);
  auto& endpoint = endpoints_[node];
  if (endpoint == nullptr) endpoint = std::make_shared<Endpoint>();
  endpoint->deliver = std::move(deliver);
  endpoint->registered = true;
}

void Executor::unregister_node(NodeId node) {
  // Tombstone, not erase: in-flight ring entries still get drained — and
  // counted dropped — by the pending drain job or by stop().
  std::lock_guard lock(handlers_mutex_);
  const auto it = endpoints_.find(node);
  if (it == endpoints_.end()) return;
  it->second->registered = false;
  it->second->deliver = nullptr;
}

bool Executor::registered(NodeId node) const {
  std::lock_guard lock(handlers_mutex_);
  const auto it = endpoints_.find(node);
  return it != endpoints_.end() && it->second->registered;
}

std::size_t Executor::backlog(NodeId node) const {
  std::lock_guard lock(handlers_mutex_);
  const auto it = endpoints_.find(node);
  if (it == endpoints_.end() || !it->second->registered) return 0;
  return it->second->ring.size();
}

SimTime Executor::now() const {
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_).count());
}

bool Executor::enqueue(Clock::time_point at, std::function<void()> run, bool delivery) {
  {
    std::lock_guard lock(jobs_mutex_);
    if (stopping_) return false;
    jobs_.push(Job{at, next_sequence_++, std::move(run), delivery});
  }
  jobs_cv_.notify_all();
  return true;
}

void Executor::schedule(SimDuration delay, std::function<void()> callback) {
  (void)enqueue(Clock::now() + std::chrono::microseconds(delay), std::move(callback));
}

void Executor::deliver(NodeId from, NodeId to, Bytes payload, SimDuration delay) {
  if (delay == 0) {
    push(from, to, std::move(payload));
    return;
  }
  if (!enqueue(Clock::now() + std::chrono::microseconds(delay),
               [this, from, to, payload = std::move(payload)]() mutable {
                 push(from, to, std::move(payload));
               },
               /*delivery=*/true)) {
    count_dropped(1);  // stopping: this message will never run
  }
}

void Executor::push(NodeId from, NodeId to, Bytes payload) {
  std::shared_ptr<Endpoint> endpoint;
  {
    std::lock_guard lock(handlers_mutex_);
    const auto it = endpoints_.find(to);
    if (it != endpoints_.end() && it->second->registered) endpoint = it->second;
  }
  if (endpoint == nullptr) {
    count_dropped(1);
    return;
  }
  const DeliveryRing::PushResult pushed =
      endpoint->ring.try_push(Delivery{from, std::move(payload)});
  if (pushed != DeliveryRing::PushResult::kOk) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.messages_dropped;
    if (pushed == DeliveryRing::PushResult::kFull) ++stats_.ring_full_drops;
    return;
  }
  record_highwater(ring_highwater_, endpoint->ring.size());
  // One wakeup per burst: only the push that found the ring idle schedules
  // a drain. If the executor is stopping the job is refused and the entry
  // stays in the ring for stop() to account.
  if (!endpoint->drain_pending.exchange(true, std::memory_order_acq_rel)) {
    (void)enqueue(Clock::now(), [this, endpoint] { drain_endpoint(endpoint); });
  }
}

void Executor::drain_endpoint(const std::shared_ptr<Endpoint>& endpoint) {
  // Disarm BEFORE draining: a push that lands after this re-arms and
  // schedules the next drain, so nothing published is ever stranded.
  endpoint->drain_pending.store(false, std::memory_order_release);

  std::vector<Delivery>& batch = endpoint->batch;
  endpoint->ring.drain(batch, max_batch_.load(std::memory_order_relaxed));
  if (!batch.empty()) {
    Transport::BatchDeliverFn handler;
    {
      std::lock_guard lock(handlers_mutex_);
      if (endpoint->registered) handler = endpoint->deliver;
    }
    std::size_t bytes = 0;
    for (const Delivery& d : batch) bytes += d.payload.size();
    {
      std::lock_guard lock(stats_mutex_);
      if (handler) {
        stats_.messages_delivered += batch.size();
        stats_.bytes_received += bytes;
      } else {
        stats_.messages_dropped += batch.size();  // unregistered meanwhile
      }
    }
    if (handler) handler(batch);
    batch.clear();
  }

  // A capped drain can leave entries behind with no producer left to wake
  // us; keep draining until the ring is visibly empty.
  if (!endpoint->ring.empty() &&
      !endpoint->drain_pending.exchange(true, std::memory_order_acq_rel)) {
    (void)enqueue(Clock::now(), [this, endpoint] { drain_endpoint(endpoint); });
  }
}

void Executor::dispatch_loop() {
  std::unique_lock lock(jobs_mutex_);
  while (true) {
    if (stopping_) return;
    if (jobs_.empty()) {
      jobs_cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      continue;
    }
    const Clock::time_point due = jobs_.top().at;
    if (Clock::now() < due) {
      jobs_cv_.wait_until(lock, due, [this, due] {
        return stopping_ || (!jobs_.empty() && jobs_.top().at < due);
      });
      continue;
    }
    Job job = std::move(const_cast<Job&>(jobs_.top()));
    jobs_.pop();
    lock.unlock();
    job.run();
    lock.lock();
  }
}

void Executor::count_dropped(std::uint64_t n) {
  std::lock_guard lock(stats_mutex_);
  stats_.messages_dropped += n;
}

sim::TransportStats Executor::stats() const {
  std::lock_guard lock(stats_mutex_);
  sim::TransportStats copy = stats_;
  copy.ring_occupancy_highwater = ring_highwater_.load(std::memory_order_relaxed);
  return copy;
}

const sim::TransportStats& Executor::stats_view() const {
  std::lock_guard lock(stats_mutex_);
  snapshot_ = stats_;
  snapshot_.ring_occupancy_highwater = ring_highwater_.load(std::memory_order_relaxed);
  return snapshot_;
}

void Executor::reset_stats() {
  std::lock_guard lock(stats_mutex_);
  stats_.reset();
  ring_highwater_.store(0, std::memory_order_relaxed);
}

}  // namespace securestore::net
