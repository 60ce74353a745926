// Measurement helpers for the benchmark harness.
//
// `Samples` accumulates scalar observations (operation latencies, message
// counts per op) and reports the summary statistics the experiment tables
// print: mean, percentiles, min/max.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace securestore::sim {

class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double mean() const;
  double min() const;
  double max() const;
  /// Percentile in [0, 100], by nearest-rank on the sorted samples.
  double percentile(double p) const;
  double median() const { return percentile(50); }
  double stddev() const;

  void clear() { values_.clear(); }

 private:
  std::vector<double> values_;
};

/// Cumulative transport-level counters, kept by every transport. The
/// message counters apply to all transports; the connection counters are
/// only meaningful for connection-oriented transports (TcpTransport) and
/// stay zero elsewhere.
struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Payload bytes handed to a receive handler (counted at delivery).
  std::uint64_t bytes_received = 0;

  /// Outbound connections re-established after a previous connection to the
  /// same endpoint was lost.
  std::uint64_t reconnects = 0;
  /// Failed connect() attempts (initial or during reconnect backoff).
  std::uint64_t connect_failures = 0;
  /// Messages dropped because a per-connection send queue was full.
  std::uint64_t send_queue_drops = 0;
  /// Highest depth (in frames) any send queue ever reached.
  std::uint64_t send_queue_highwater = 0;
  /// Messages dropped because a receiving node's delivery ring was full
  /// (thread/TCP transports; the consumer is not keeping up).
  std::uint64_t ring_full_drops = 0;
  /// Highest delivery-ring occupancy (in messages) any endpoint reached
  /// since the last metrics snapshot — the transports reset it per snapshot
  /// so `Cluster::start_metrics_snapshots` timelines show pressure ramps,
  /// not one all-time peak.
  std::uint64_t ring_occupancy_highwater = 0;

  void reset() { *this = TransportStats{}; }
};

}  // namespace securestore::sim
