// Observability: the deployment-side health watchdog (DESIGN.md §8).
//
// Servers expose raw signals through the introspection endpoint
// (PROTOCOL.md §13); this module turns a stream of those per-server
// samples into an operator answer: which servers are unhealthy, why, and
// how close the deployment is to exceeding its fault budget `b`.
//
// The monitor is deliberately passive — it never talks to a transport
// (obs sits below net in the layering) and owns no timer. A driver
// (`net::IntrospectScraper` under a chaos runner, an operator loop in a
// real deployment) calls `begin_round(now)`, feeds one
// `observe(server, sample-or-timeout)` per server, then `end_round()`,
// which evaluates the declarative SLO rules with hysteresis:
//
//   * a server flips unhealthy only after `unhealthy_after` consecutive
//     bad rounds, and back only after `healthy_after` consecutive good
//     rounds — a single blip can never flap the verdict;
//   * an observed uptime regression means the server restarted (the one
//     signal even a Byzantine flip cannot hide, because fault injection
//     restarts the process); it pins the server bad for `restart_hold_us`
//     so post-restart state is not trusted instantly.
//
// Cluster verdict: green when every server is healthy, degraded while
// every shard group still tolerates its unhealthy count (u ≤ b), critical
// once any group's unhealthy count exceeds b — the paper's availability
// bound is gone. `quorum_margin` is min over groups of (b − u): how many
// more failures until critical.
//
// Every transition emits `health.*` metrics and (when the event log is
// on) `health.mark_*`/`health.verdict_change` instants; the chaos
// harness subscribes to the same transitions to score detection latency
// against injected ground truth (src/testkit/health_scorer.h).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"

namespace securestore::obs {

/// One server's answer to a status introspect (PROTOCOL.md §13): the raw
/// signals the watchdog's rules consume. Counters are since-boot, so the
/// monitor differences consecutive samples itself (and an uptime that
/// moved backwards exposes the reset).
struct ServerSample {
  std::uint32_t node = 0;           // responding NodeId
  std::uint32_t shard = 0;          // shard/group id (0 unsharded)
  std::uint64_t now_us = 0;         // server transport clock at assembly
  std::uint64_t uptime_us = 0;      // since server construction/restart
  std::uint64_t ring_version = 0;   // routing ring version (sharded)
  std::uint64_t gossip_ticks = 0;   // anti-entropy rounds since boot
  std::uint64_t gossip_idle_us = 0; // time since the last gossip tick
  double wal_append_ewma_us = 0;    // admission's smoothed WAL commit cost
  double wal_append_p99_us = 0;     // this server's local WAL commit p99
  std::uint64_t compaction_lag = 0; // storage engine pressure (LSM)
  std::uint64_t memtable_bytes = 0;
  std::uint64_t requests = 0;       // requests dispatched since boot
  std::uint64_t shed = 0;           // requests shed since boot
  std::uint64_t net_backlog = 0;    // transport receive backlog
  std::uint64_t hold_depth = 0;     // open per-object holds
  bool overloaded = false;          // admission latch currently tripped
};

enum class Verdict : std::uint8_t {
  kGreen = 0,     // every server healthy
  kDegraded = 1,  // unhealthy servers present, every group still ≤ b
  kCritical = 2,  // some group's unhealthy count exceeds b
};

const char* verdict_name(Verdict verdict);

/// Declarative SLO rules (the DESIGN.md §8 table). A sample breaching any
/// threshold makes the round "bad"; hysteresis turns runs of bad rounds
/// into state. Thresholds are deliberately loose — the chaos oracle
/// treats an unhealthy mark outside a fault window as a violation, so a
/// rule that fires on healthy jitter is a bug, not vigilance.
struct SloRules {
  std::uint32_t unhealthy_after = 2;     // consecutive bad rounds to mark
  std::uint32_t healthy_after = 2;       // consecutive good rounds to clear
  std::uint64_t gossip_stale_us = 2'000'000;
  double wal_p99_us = 50'000;            // wall-clock WAL commit tail
  std::uint64_t compaction_lag = 16;     // engine pressure units
  double shed_fraction = 0.05;           // shed/dispatched over one round
  std::uint64_t net_backlog = 256;       // queued inbound messages
  std::uint64_t restart_hold_us = 400'000;
};

class HealthMonitor {
 public:
  /// Identity of one monitored server: transport NodeId plus the shard
  /// group whose fault budget it counts against (0 when unsharded).
  struct ServerInfo {
    std::uint32_t node = 0;
    std::uint32_t group = 0;
  };

  struct Options {
    SloRules rules;
    std::uint32_t b = 1;  // per-group fault budget (paper's b)
  };

  /// Queryable per-server watchdog state.
  struct ServerState {
    bool healthy = true;
    std::uint32_t consecutive_bad = 0;
    std::uint32_t consecutive_good = 0;
    std::vector<std::string> causes;   // breached rules from the last round
    std::optional<ServerSample> last;  // last successful sample
    std::uint64_t restart_hold_until_us = 0;
    std::uint64_t scrapes = 0;   // successful samples observed
    std::uint64_t failures = 0;  // rounds with no sample (timeout)
  };

  using MarkFn = std::function<void(std::uint32_t server_index, bool healthy,
                                    std::uint64_t at_us,
                                    const std::vector<std::string>& causes)>;
  using VerdictFn = std::function<void(Verdict verdict, std::uint64_t at_us)>;

  /// `events` may be null (no event emission). `servers[i]` describes the
  /// server fed as `observe(i, ...)`.
  HealthMonitor(Registry& registry, EventLog* events, std::vector<ServerInfo> servers,
                Options options);

  /// Transition subscriptions (the chaos scorer): invoked from end_round.
  void set_on_mark(MarkFn fn) { on_mark_ = std::move(fn); }
  void set_on_verdict(VerdictFn fn) { on_verdict_ = std::move(fn); }

  /// One scrape round: begin with the monitor-side clock, observe every
  /// server (nullopt = scrape timed out), end to evaluate rules,
  /// hysteresis, and the cluster verdict.
  void begin_round(std::uint64_t now_us);
  void observe(std::size_t server_index, std::optional<ServerSample> sample);
  void end_round();

  std::size_t server_count() const { return servers_.size(); }
  const ServerState& server(std::size_t i) const { return state_[i]; }
  Verdict verdict() const { return verdict_; }
  /// min over groups of (b − unhealthy); negative once critical.
  std::int64_t quorum_margin() const { return margin_; }
  std::uint32_t unhealthy_in_group(std::uint32_t group) const;
  std::uint64_t rounds() const { return rounds_; }
  const Options& options() const { return options_; }

 private:
  void evaluate(std::size_t i);
  void emit_instant(std::uint32_t node, std::string_view name);

  const std::vector<ServerInfo> servers_;
  const Options options_;
  EventLog* events_;

  Counter& scrapes_;
  Counter& scrape_failures_;
  Counter& state_changes_;
  Gauge& verdict_gauge_;
  Gauge& unhealthy_gauge_;
  Gauge& margin_gauge_;

  std::vector<ServerState> state_;
  std::vector<std::optional<ServerSample>> pending_;  // staged this round
  std::vector<bool> observed_;
  std::uint64_t now_us_ = 0;
  std::uint64_t rounds_ = 0;
  bool in_round_ = false;

  std::uint32_t group_count_ = 1;
  std::vector<std::uint32_t> group_unhealthy_;
  Verdict verdict_ = Verdict::kGreen;
  std::int64_t margin_ = 0;

  MarkFn on_mark_;
  VerdictFn on_verdict_;
};

}  // namespace securestore::obs
