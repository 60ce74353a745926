// Server-side admission control (DESIGN.md §13).
//
// Under open-loop overload the offered load does not slow down when the
// system does, so queues grow without bound and every request — admitted or
// not — times out: queueing collapse. The defense is to shed work *before*
// queues grow: the server samples live pressure signals (delivery-ring /
// service-queue backlog, WAL commit latency, storage-engine memtable and
// compaction debt) and, past a high watermark, refuses new client requests
// with `kOverloaded` plus a signed retry-after hint. Quorum-critical
// traffic — gossip anti-entropy, stability certificates, responses to
// rounds already in flight — is never shed, so shedding degrades
// throughput, never safety (PoWerStore's robustness framing: guarantees
// must hold under worst-case conditions, and honest-client overload is a
// worst-case condition).
//
// Hysteresis: shedding latches on when ANY signal crosses its high
// watermark and off only when ALL signals fall below their low watermarks,
// so the controller does not flap at the boundary and admitted requests see
// a drained system, not one hovering at the cliff.
#pragma once

#include <cstdint>

#include "storage/engine.h"
#include "util/time.h"

namespace securestore::core {

/// One sample of everything the controller watches. The server assembles
/// this per evaluation from the transport, its WAL latency EWMA and the
/// storage engine (all signals already exist; admission only reads them).
struct AdmissionSignals {
  /// Inbound messages accepted for this node but not yet delivered
  /// (delivery-ring occupancy on real transports, modeled service queue
  /// under the simulator).
  std::size_t net_backlog = 0;
  /// Exponentially-weighted moving average of WAL commit latency (wall µs):
  /// the per-batch fsync, where a slow disk shows. (Named for the append
  /// that carried the fsync before group commit.)
  double wal_append_ewma_us = 0;
  /// Memtable fill and compaction debt; zeros for the in-memory engine.
  storage::StorageEngine::Pressure engine;
};

class AdmissionController {
 public:
  struct Options {
    /// Master switch; off restores the pre-§13 always-admit behavior.
    bool enabled = true;
    /// Network backlog hysteresis band, in queued messages. The defaults
    /// sit far above anything a healthy deployment reaches (the delivery
    /// ring holds 1024) and well below the point where every queued
    /// request is already doomed to time out.
    std::size_t net_backlog_high = 192;
    std::size_t net_backlog_low = 48;
    /// WAL commit-latency EWMA band (wall µs). A commit is one fsync,
    /// normally well under a millisecond; a persistent multi-millisecond
    /// average means the disk is the bottleneck and acks are lying about
    /// responsiveness.
    double wal_append_high_us = 50'000;
    double wal_append_low_us = 10'000;
    /// EWMA smoothing factor for WAL commit samples (weight of the new
    /// sample).
    double wal_ewma_alpha = 0.1;
    /// Engine pressure: shed when the memtable exceeds this multiple of
    /// its flush budget (flush is not keeping up) ...
    double memtable_overrun_high = 4.0;
    double memtable_overrun_low = 1.5;
    /// ... or when compaction is this many L0 runs past its trigger.
    std::uint64_t compaction_lag_high = 8;
    std::uint64_t compaction_lag_low = 2;
    /// Retry-after hint band. The hint scales with how far past the high
    /// watermark the worst signal is; clients clamp it again on their side
    /// so a Byzantine server cannot stall anyone regardless.
    SimDuration retry_after_min = milliseconds(2);
    SimDuration retry_after_max = milliseconds(200);
  };

  explicit AdmissionController(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// Feeds one WAL commit latency sample (wall µs) into the EWMA.
  void note_wal_commit(double us) {
    wal_ewma_us_ += options_.wal_ewma_alpha * (us - wal_ewma_us_);
  }
  double wal_append_ewma_us() const { return wal_ewma_us_; }

  /// Re-evaluates the hysteresis state against fresh signals. True = shed
  /// new client work (callers still admit quorum-critical traffic).
  bool should_shed(const AdmissionSignals& signals);

  /// Latched state from the last evaluation.
  bool overloaded() const { return overloaded_; }

  /// Retry-after hint for a shed request, scaled by the severity of the
  /// last evaluation (how far past its high watermark the worst signal
  /// sits) and clamped to [retry_after_min, retry_after_max]. Quantized to
  /// a power-of-two microsecond bucket so the server can cache one
  /// signature per distinct hint instead of signing per refusal.
  std::uint32_t retry_after_us() const;

  /// Evaluations that decided to shed / total evaluations (diagnostics).
  std::uint64_t shed_decisions() const { return shed_decisions_; }

 private:
  Options options_;
  double wal_ewma_us_ = 0;
  bool overloaded_ = false;
  double severity_ = 0;  // worst signal / its high watermark, last eval
  std::uint64_t shed_decisions_ = 0;
};

}  // namespace securestore::core
