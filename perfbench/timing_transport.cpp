#include "timing_transport.h"

#include <time.h>

#include <cstring>

namespace perfbench {

namespace {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool is_client_layer(Layer layer) {
  return layer == Layer::kClientIssue || layer == Layer::kClientReply ||
         layer == Layer::kClientTimer;
}

}  // namespace

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

TimingTransport::TimingTransport(securestore::net::Transport& inner,
                                 std::function<bool(NodeId)> is_server, SimDuration link_delay)
    : inner_(inner),
      is_server_(std::move(is_server)),
      link_delay_ns_(static_cast<std::int64_t>(link_delay) * 1000) {}

// The frame stack is per thread: schedule() and send() may be called from
// any thread, and only the dispatch thread ever opens frames.
namespace {
thread_local Layer tls_layer = Layer::kCount;
thread_local std::uint32_t tls_node = 0xFFFFFFFFu;
thread_local std::uint64_t tls_mark_ns = 0;  // 0: no valid mark
}  // namespace

void TimingTransport::charge(std::uint64_t now_ns) {
  if (tls_mark_ns != 0 && tls_layer != Layer::kCount) {
    const std::uint64_t spent = now_ns - tls_mark_ns;
    totals_.cpu_ns[static_cast<std::size_t>(tls_layer)] += spent;
    if (tls_node != kNoNode) node_cpu_ns_[tls_node] += spent;
  }
}

TimingTransport::Frame TimingTransport::enter(Layer layer, std::uint32_t node) {
  const Frame outer{tls_layer, tls_node};
  if (timing()) {
    const std::uint64_t now = thread_cpu_ns();
    charge(now);
    tls_mark_ns = now;
    ++totals_.frames[static_cast<std::size_t>(layer)];
  } else {
    tls_mark_ns = 0;
  }
  tls_layer = layer;
  tls_node = node;
  return outer;
}

void TimingTransport::leave(Frame outer) {
  if (timing()) {
    const std::uint64_t now = thread_cpu_ns();
    charge(now);
    tls_mark_ns = now;
  } else {
    tls_mark_ns = 0;
  }
  tls_layer = outer.layer;
  tls_node = outer.node;
}

void TimingTransport::measure(Layer layer, const std::function<void()>& fn,
                              std::uint32_t node) {
  const Frame outer = enter(layer, node);
  fn();
  leave(outer);
}

TimingTransport::BatchDeliverFn TimingTransport::wrap(NodeId node, BatchDeliverFn deliver) {
  const bool server = is_server_(node);
  return [this, node, server, deliver = std::move(deliver)](
             std::vector<securestore::net::Delivery>& batch) {
    const bool timed = timing();
    const std::int64_t start_ns = timed ? wall_ns() : 0;
    bool from_server = false;
    for (securestore::net::Delivery& d : batch) {
      if (d.payload.size() >= kPrefixBytes) {
        if (timed) {
          std::int64_t sent_ns = 0;
          std::memcpy(&sent_ns, d.payload.data(), kPrefixBytes);
          delivery_wait_us_.push_back(
              static_cast<float>(start_ns - sent_ns - link_delay_ns_) / 1000.0f);
        }
        d.payload.erase(d.payload.begin(), d.payload.begin() + kPrefixBytes);
      }
      from_server = from_server || is_server_(d.from);
    }
    delivered_.fetch_add(batch.size(), std::memory_order_relaxed);
    // A server batch containing any peer message is charged to gossip:
    // peer traffic is gossip-only, and batches rarely mix the two.
    const Layer layer = !server ? Layer::kClientReply
                        : from_server ? Layer::kGossip
                                      : Layer::kServerRequest;
    const Frame outer = enter(layer, node.value);
    deliver(batch);
    leave(outer);
  };
}

void TimingTransport::register_node(NodeId node, DeliverFn deliver) {
  register_node_batched(node, [fn = std::move(deliver)](
                                  std::vector<securestore::net::Delivery>& batch) {
    for (securestore::net::Delivery& d : batch) fn(d.from, d.payload);
  });
}

void TimingTransport::register_node_batched(NodeId node, BatchDeliverFn deliver) {
  inner_.register_node_batched(node, wrap(node, std::move(deliver)));
}

void TimingTransport::unregister_node(NodeId node) { inner_.unregister_node(node); }

void TimingTransport::send(NodeId from, NodeId to, Bytes payload) {
  Bytes framed(kPrefixBytes + payload.size());
  const std::int64_t now_ns = wall_ns();
  std::memcpy(framed.data(), &now_ns, kPrefixBytes);
  if (!payload.empty()) std::memcpy(framed.data() + kPrefixBytes, payload.data(), payload.size());
  sent_.fetch_add(1, std::memory_order_relaxed);
  inner_.send(from, to, std::move(framed));
}

void TimingTransport::schedule(SimDuration delay, std::function<void()> callback) {
  // A timer belongs to whoever armed it: clients arm quorum timeouts and
  // backoff, servers arm gossip ticks. Jobs armed outside any frame (other
  // threads, benchmark set-up) are the benchmark's own.
  const Layer armed_by = tls_layer;
  const std::uint32_t node = tls_node;
  const Layer layer = is_client_layer(armed_by) ? Layer::kClientTimer
                      : (armed_by == Layer::kServerRequest || armed_by == Layer::kGossip)
                          ? Layer::kGossip
                          : Layer::kBench;
  inner_.schedule(delay, [this, layer, node, callback = std::move(callback)] {
    const Frame outer = enter(layer, layer == Layer::kBench ? kNoNode : node);
    callback();
    leave(outer);
  });
}

}  // namespace perfbench
