#include "net/thread_transport.h"

namespace securestore::net {

ThreadTransport::ThreadTransport(sim::NetworkModel network,
                                 std::shared_ptr<obs::Registry> registry,
                                 std::shared_ptr<obs::EventLog> events)
    : network_(std::move(network)), executor_(std::move(registry), std::move(events)) {}

ThreadTransport::~ThreadTransport() { stop(); }

void ThreadTransport::send(NodeId from, NodeId to, Bytes payload) {
  const std::optional<SimDuration> latency =
      executor_.with_stats([&](sim::TransportStats& stats) {
        ++stats.messages_sent;
        stats.bytes_sent += payload.size();
        std::optional<SimDuration> sampled = network_.sample_delivery(from, to);
        if (!sampled.has_value()) ++stats.messages_dropped;
        return sampled;
      });
  if (latency.has_value()) executor_.deliver(from, to, std::move(payload), *latency);
}

}  // namespace securestore::net
