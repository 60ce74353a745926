// Overload robustness tests (DESIGN.md §13, experiment E18).
//
// Three regressions pin the §13 contract — a shed request is never
// acknowledged (shed-exclusivity), the client's circuit breaker trips
// under refusals and the server rejoins after the cooldown, and a
// server's retry-after hint never stretches an operation past its
// absolute deadline — plus unit coverage for the admission hysteresis
// and the open-loop load generator. The headline suite is the 8-seed
// overload-storm soak: hand-built storm schedules (offered load always
// past the victim's service capacity) run against a live cluster with
// every workload under the ConsistencyOracle, zero violations tolerated.
//
// Determinism note: all regressions run in-memory clusters, so nothing
// touches the wall clock (the WAL latency EWMA is the one wall-time
// admission signal; it stays zero here) — every run of a test is
// bit-identical. Shedding is forced through the net-backlog signal: a
// burst through the transport's finite-service-capacity model, with
// `net_backlog_low = 0`, latches admission permanently (the calm check
// requires every signal strictly below its low watermark).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/admission.h"
#include "core/messages.h"
#include "core/sync.h"
#include "net/quorum.h"
#include "net/rpc.h"
#include "sim/open_loop.h"
#include "testkit/chaos.h"
#include "testkit/cluster.h"
#include "testkit/seed.h"

namespace securestore {
namespace {

using core::AdmissionController;
using core::AdmissionSignals;
using core::SyncClient;
using testkit::ChaosEvent;
using testkit::ChaosReport;
using testkit::ChaosRunner;
using testkit::ChaosRunnerOptions;
using testkit::ChaosSchedule;
using testkit::Cluster;
using testkit::ClusterOptions;

bool gtest_failed() { return ::testing::Test::HasFailure(); }

core::GroupPolicy single_writer_policy() {
  return core::GroupPolicy{GroupId{1}, core::ConsistencyModel::kMRC,
                           core::SharingMode::kSingleWriter, core::ClientTrust::kHonest};
}

std::uint64_t counter_value(Cluster& cluster, const std::string& name) {
  const auto snapshot = cluster.registry().snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// One well-formed sheddable request (the same shape the chaos harness
/// floods with): admission is evaluated before decode, so the reply being
/// an error does not matter — only that the request walks the gate.
Bytes probe_body() {
  core::MetaReq req;
  req.item = ItemId{100};
  req.group = GroupId{1};
  req.requester = ClientId{999};
  return req.serialize();
}

/// Latches every server's admission controller through the net-backlog
/// signal: each server briefly gets a finite per-message service cost and
/// a same-instant burst of sheddable probes, so the first probe already
/// sees the rest of the burst queued behind it. With the backlog low
/// watermark at 0 the latch can never release (calm requires strictly
/// below every low), so the cluster sheds client work forever after —
/// service times are restored so subsequent refusals are fast.
void latch_all_servers(Cluster& cluster, net::RpcNode& probe) {
  const Bytes body = probe_body();
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    cluster.transport().set_service_time(cluster.server_node(s), milliseconds(1));
    for (int i = 0; i < 8; ++i) {
      net::QuorumOptions options;
      options.timeout = milliseconds(200);
      net::QuorumCall::start(
          probe, {cluster.server_node(s)}, net::MsgType::kMetaRequest, body,
          [](NodeId, net::MsgType, BytesView) { return true; },
          [](net::QuorumOutcome, std::size_t) {}, options);
    }
  }
  cluster.run_for(milliseconds(300));  // bursts drain; every latch is set
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    cluster.transport().set_service_time(cluster.server_node(s), 0);
  }
}

// ---------------------------------------------------------------------------
// AdmissionController: hysteresis and hint shaping.
// ---------------------------------------------------------------------------

TEST(Admission, HysteresisLatchesOnHighAndOffBelowLow) {
  AdmissionController::Options options;
  options.net_backlog_high = 100;
  options.net_backlog_low = 10;
  AdmissionController admission(options);

  AdmissionSignals signals;
  signals.net_backlog = 99;
  EXPECT_FALSE(admission.should_shed(signals)) << "below high: stay open";

  signals.net_backlog = 100;
  EXPECT_TRUE(admission.should_shed(signals)) << "at high: latch on";

  // Between the watermarks the latch must HOLD — a single cutoff would
  // re-admit here and flap at the boundary.
  signals.net_backlog = 50;
  EXPECT_TRUE(admission.should_shed(signals));
  EXPECT_TRUE(admission.overloaded());

  signals.net_backlog = 9;
  EXPECT_FALSE(admission.should_shed(signals)) << "below low: latch off";
  EXPECT_FALSE(admission.overloaded());

  // And from below-low it must not re-latch until high again.
  signals.net_backlog = 50;
  EXPECT_FALSE(admission.should_shed(signals));
}

TEST(Admission, AnySignalLatchesAllSignalsMustCalm) {
  AdmissionController::Options options;
  options.net_backlog_high = 100;
  options.net_backlog_low = 10;
  options.wal_append_high_us = 1000;
  options.wal_append_low_us = 100;
  options.wal_ewma_alpha = 1.0;  // EWMA == last sample, for the test
  AdmissionController admission(options);

  // The WAL alone trips the latch.
  admission.note_wal_commit(2000);
  AdmissionSignals signals;
  signals.net_backlog = 0;
  signals.wal_append_ewma_us = admission.wal_append_ewma_us();
  EXPECT_TRUE(admission.should_shed(signals));

  // Network calm but WAL still above its low: stay latched.
  admission.note_wal_commit(500);
  signals.wal_append_ewma_us = admission.wal_append_ewma_us();
  EXPECT_TRUE(admission.should_shed(signals));

  // Every signal below its low watermark: release.
  admission.note_wal_commit(50);
  signals.wal_append_ewma_us = admission.wal_append_ewma_us();
  EXPECT_FALSE(admission.should_shed(signals));
}

TEST(Admission, RetryAfterScalesWithSeverityQuantizedAndClamped) {
  AdmissionController::Options options;
  options.net_backlog_high = 100;
  options.net_backlog_low = 10;
  options.retry_after_min = milliseconds(2);
  options.retry_after_max = milliseconds(200);
  AdmissionController admission(options);

  AdmissionSignals signals;
  signals.net_backlog = 100;  // severity 1.0
  ASSERT_TRUE(admission.should_shed(signals));
  const std::uint32_t at_watermark = admission.retry_after_us();
  EXPECT_GE(at_watermark, 2000u);

  signals.net_backlog = 1000;  // severity 10x
  ASSERT_TRUE(admission.should_shed(signals));
  const std::uint32_t deep = admission.retry_after_us();
  EXPECT_GT(deep, at_watermark) << "hint must grow with severity";
  EXPECT_LE(deep, 200'000u) << "hint must respect retry_after_max";
  // Power-of-two quantization: the whole point is a tiny signature cache.
  EXPECT_EQ(deep & (deep - 1), 0u) << "hint " << deep << " not a power of two";

  signals.net_backlog = 1u << 20;  // absurd severity still clamps
  ASSERT_TRUE(admission.should_shed(signals));
  EXPECT_LE(admission.retry_after_us(), 200'000u);
}

TEST(Admission, DisabledNeverSheds) {
  AdmissionController::Options options;
  options.enabled = false;
  options.net_backlog_high = 1;
  AdmissionController admission(options);
  AdmissionSignals signals;
  signals.net_backlog = 1u << 30;
  EXPECT_FALSE(admission.should_shed(signals));
}

// ---------------------------------------------------------------------------
// OpenLoopLoad: deterministic Poisson arrivals, overflow accounting.
// ---------------------------------------------------------------------------

TEST(OpenLoopLoad, SameSeedSameArrivals) {
  const auto run_once = [](std::uint64_t seed) {
    sim::Scheduler scheduler;
    sim::OpenLoopLoad::Options options;
    options.arrivals_per_sec = 5000;
    options.seed = seed;
    std::vector<SimTime> at;
    sim::OpenLoopLoad load(scheduler, options, [&](sim::OpenLoopLoad::DoneFn done) {
      at.push_back(scheduler.now());
      done(true);
    });
    load.start(seconds(1));
    scheduler.run_until(seconds(2));
    return at;
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  const auto c = run_once(8);
  EXPECT_EQ(a, b) << "same seed must reproduce the arrival process";
  EXPECT_NE(a, c) << "different seed must vary it";
  // λ=5000 over 1s: the Poisson count lands near 5000 (±14σ bounds).
  EXPECT_GT(a.size(), 4000u);
  EXPECT_LT(a.size(), 6000u);
}

TEST(OpenLoopLoad, ArrivalsPastTheCapCountAsOverflowNotDeferredWork) {
  sim::Scheduler scheduler;
  sim::OpenLoopLoad::Options options;
  options.arrivals_per_sec = 1000;
  options.max_in_flight = 4;
  std::vector<sim::OpenLoopLoad::DoneFn> parked;
  sim::OpenLoopLoad load(scheduler, options, [&](sim::OpenLoopLoad::DoneFn done) {
    parked.push_back(std::move(done));  // ops never finish on their own
  });
  load.start(seconds(1));
  scheduler.run_until(milliseconds(500));

  EXPECT_EQ(load.stats().issued, 4u) << "only the stand-in pool issues";
  EXPECT_GT(load.stats().overflow, 0u) << "the rest is overflow, not a backlog";
  EXPECT_EQ(load.stats().arrivals, load.stats().issued + load.stats().overflow);
  EXPECT_EQ(load.in_flight(), 4u);

  // Completions free pool slots for later arrivals.
  for (auto& done : parked) done(true);
  parked.clear();
  scheduler.run_until(seconds(2));
  EXPECT_GT(load.stats().issued, 4u);
  EXPECT_EQ(load.stats().succeeded, 4u);
}

// ---------------------------------------------------------------------------
// Regression 1: a shed request is never acknowledged, and refusals are
// classified as kOverloaded (client.refused), never as timeouts.
// ---------------------------------------------------------------------------

TEST(Overload, ShedWriteIsNeverAckedAnywhere) {
  ClusterOptions options;
  options.start_gossip = false;
  options.op_timeout = milliseconds(400);
  options.admission.net_backlog_high = 2;
  options.admission.net_backlog_low = 0;  // permanent latch once tripped
  // Wide retry hints relative to the deadline: the final retry decision
  // lands well before the deadline, so the op ends on a refused round.
  options.admission.retry_after_min = milliseconds(150);
  options.admission.retry_after_max = milliseconds(150);
  Cluster cluster(options);
  cluster.set_group_policy(single_writer_policy());

  core::SecureStoreClient::Options client_opts;
  client_opts.policy = single_writer_policy();
  client_opts.round_timeout = milliseconds(100);
  auto client = cluster.make_client(ClientId{1}, client_opts);
  SyncClient sync(*client, cluster.scheduler());

  ASSERT_TRUE(sync.connect(GroupId{1}).ok());  // pre-latch: admitted
  ASSERT_TRUE(sync.write(ItemId{101}, to_bytes("admitted")).ok());

  net::RpcNode probe(cluster.endpoint_transport(), NodeId{4999});
  latch_all_servers(cluster, probe);

  const SimTime start = cluster.transport().now();
  const auto refused = sync.write(ItemId{102}, to_bytes("shed me"));
  const SimTime elapsed = cluster.transport().now() - start;

  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), Error::kOverloaded)
      << "refusals are their own outcome, not timeouts: " << error_name(refused.error());
  EXPECT_LE(elapsed, milliseconds(900)) << "refused op must end at its deadline";

  // Shed-exclusivity, checked against the replicas themselves: no server
  // ever applied the refused write (the gate sits before decode/WAL/state).
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    EXPECT_EQ(cluster.server(s).store().current(ItemId{102}), nullptr)
        << "server " << s << " applied a write it shed";
  }

  EXPECT_GT(counter_value(cluster, "client.refused"), 0u);
  EXPECT_GT(counter_value(cluster, "server.shed"), 0u);
}

// ---------------------------------------------------------------------------
// Regression 2: the circuit breaker trips under sustained refusals, and a
// circuit-broken server is re-probed after the cooldown and rejoins.
// ---------------------------------------------------------------------------

TEST(Overload, BreakerTripsAndServerRejoinsAfterCooldown) {
  ClusterOptions options;
  options.start_gossip = false;
  options.op_timeout = seconds(2);
  options.admission.net_backlog_high = 2;
  options.admission.net_backlog_low = 0;  // permanent latch once tripped
  options.admission.retry_after_min = milliseconds(150);
  options.admission.retry_after_max = milliseconds(150);
  Cluster cluster(options);
  cluster.set_group_policy(single_writer_policy());

  core::SecureStoreClient::Options client_opts;
  client_opts.policy = single_writer_policy();
  client_opts.round_timeout = milliseconds(100);
  client_opts.breaker_threshold = 2;
  client_opts.breaker_cooldown = milliseconds(300);
  auto client = cluster.make_client(ClientId{1}, client_opts);
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(GroupId{1}).ok());

  // Latch every replica permanently (low = 0): with the whole cluster
  // refusing, each retry round strikes all four breakers, and the 150ms
  // hint fits ~13 rounds inside the 2s deadline — far past the threshold.
  net::RpcNode probe(cluster.endpoint_transport(), NodeId{4999});
  latch_all_servers(cluster, probe);

  const auto stormy = sync.write(ItemId{110}, to_bytes("stormy"));
  EXPECT_FALSE(stormy.ok());
  EXPECT_GT(counter_value(cluster, "client.refused"), 0u)
      << "overloaded cluster never caused a counted refusal — vacuous";
  EXPECT_GT(counter_value(cluster, "client.breaker_trips"), 0u);
  bool any_open = false;
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    any_open = any_open || client->breaker_open(cluster.server_node(s));
  }
  EXPECT_TRUE(any_open) << "repeated refusals must open a breaker";

  // Overload over: reboot every replica with its state (a fresh admission
  // controller boots unlatched), then wait out the breaker cooldown. The
  // first picks after the cooldown are half-open probes; useful replies
  // must clear the breakers and the cluster must serve writes again.
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    cluster.restart_server(s, /*restore_state=*/true);
  }
  cluster.run_for(milliseconds(400));  // > breaker_cooldown

  bool recovered = false;
  for (std::uint64_t i = 0; i < 5 && !recovered; ++i) {
    recovered = sync.write(ItemId{120 + i}, to_bytes("calm")).ok();
  }
  EXPECT_TRUE(recovered) << "servers never rejoined after the cooldown";
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    EXPECT_FALSE(client->breaker_open(cluster.server_node(s)))
        << "server " << s << " still circuit-broken after recovery";
  }
}

// ---------------------------------------------------------------------------
// Regression 2b: admission sees the disk through the WAL commit. Appends
// only write; the fsync runs once per delivery batch, so a slow disk shows
// in commit latency — which is what the EWMA must follow to shed.
// ---------------------------------------------------------------------------

TEST(Overload, SlowDiskCommitLatencyDrivesAdmission) {
  std::string dir = (std::filesystem::temp_directory_path() / "securestore_ovl_XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  {
    ClusterOptions options;
    options.durability_dir = dir;
    // Every write is pushed to every peer, so the slow-disk server commits
    // (and stalls) once per write whichever servers the client picks.
    options.gossip.push_on_write = true;
    options.gossip.fanout = 3;
    options.server_faults = {{3, {faults::ServerFault::kSlowDisk}}};
    options.admission.wal_append_high_us = 10'000;
    options.admission.wal_append_low_us = 2'000;
    Cluster cluster(options);
    cluster.set_group_policy(single_writer_policy());

    core::SecureStoreClient::Options client_opts;
    client_opts.policy = single_writer_policy();
    auto client = cluster.make_client(ClientId{1}, client_opts);
    SyncClient sync(*client, cluster.scheduler());
    ASSERT_TRUE(sync.connect(GroupId{1}).ok());
    for (std::uint64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(sync.write(ItemId{200 + i}, to_bytes("w" + std::to_string(i))).ok());
    }
    cluster.run_for(milliseconds(500));

    // The stalled commits pull the slow server's EWMA toward the stall:
    // after k commits it sits at stall·(1 − 0.9^k), past 10 ms from k = 7.
    const core::AdmissionController& slow = cluster.server(3).admission();
    const double stall_us = std::chrono::microseconds(faults::kSlowDiskStall).count();
    EXPECT_GE(slow.wal_append_ewma_us(), options.admission.wal_append_high_us);
    EXPECT_LE(slow.wal_append_ewma_us(), 2 * stall_us);
    // The introspection field keeps its wire name and carries the commit
    // EWMA; its p99 is the commit tail.
    const obs::ServerSample sample = cluster.server(3).introspect_status();
    EXPECT_EQ(sample.wal_append_ewma_us, slow.wal_append_ewma_us());
    EXPECT_GE(sample.wal_append_p99_us, stall_us);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_LT(cluster.server(s).admission().wal_append_ewma_us(),
                slow.wal_append_ewma_us() / 2)
          << "healthy server " << s;
    }

    // And admission acts on it: a client request to the slow server is
    // refused while the healthy ones answer.
    net::RpcNode probe(cluster.endpoint_transport(), NodeId{4999});
    std::vector<std::optional<net::MsgType>> replies(cluster.server_count());
    for (std::size_t s = 0; s < cluster.server_count(); ++s) {
      probe.send_request(cluster.server_node(s), net::MsgType::kMetaRequest, probe_body(),
                         [&replies, s](NodeId, net::MsgType type, BytesView) {
                           replies[s] = type;
                         });
    }
    cluster.run_for(milliseconds(100));
    EXPECT_EQ(replies[3], net::MsgType::kOverloaded);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(replies[s], net::MsgType::kMetaRequest) << "server " << s;
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Regression 3: retry-after hints are honored but never extend the
// absolute deadline (and the remaining budget never underflows).
// ---------------------------------------------------------------------------

TEST(Overload, RetryAfterNeverOutlivesTheDeadline) {
  ClusterOptions options;
  options.start_gossip = false;
  options.op_timeout = milliseconds(300);
  options.admission.net_backlog_high = 2;
  options.admission.net_backlog_low = 0;  // permanent latch
  // The servers' hint exceeds the whole operation budget.
  options.admission.retry_after_min = milliseconds(400);
  options.admission.retry_after_max = milliseconds(400);
  Cluster cluster(options);
  cluster.set_group_policy(single_writer_policy());

  core::SecureStoreClient::Options client_opts;
  client_opts.policy = single_writer_policy();
  client_opts.round_timeout = milliseconds(100);
  client_opts.retry_after_clamp = seconds(1);  // the clamp is NOT the guard here
  auto client = cluster.make_client(ClientId{1}, client_opts);
  SyncClient sync(*client, cluster.scheduler());

  ASSERT_TRUE(sync.connect(GroupId{1}).ok());
  net::RpcNode probe(cluster.endpoint_transport(), NodeId{4999});
  latch_all_servers(cluster, probe);

  const SimTime start = cluster.transport().now();
  const auto refused = sync.write(ItemId{102}, to_bytes("hinted"));
  const SimTime elapsed = cluster.transport().now() - start;

  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), Error::kOverloaded);
  // The 400ms hint cannot fit before the 300ms deadline: the client must
  // give up right after the first refused round instead of sleeping
  // through the deadline (or wrapping a negative budget into a huge one).
  EXPECT_LE(elapsed, milliseconds(150))
      << "retry-after hint stretched the operation toward/past its deadline";
  EXPECT_GT(counter_value(cluster, "client.refused"), 0u);
}

// ---------------------------------------------------------------------------
// The 8-seed overload-storm soak.
// ---------------------------------------------------------------------------

/// A storms-first schedule: three overlapping windows flood distinct
/// servers at 2-5x their (service-time-capped) capacity, plus one
/// crash/restart window on a server no storm touches, for interaction
/// coverage inside the b=1 fault budget (storms cost no budget: an
/// overloaded server is still honest).
ChaosSchedule storm_schedule(std::uint64_t seed, std::uint32_t n, SimTime horizon) {
  Rng rng(seed);
  ChaosSchedule schedule;
  const SimTime latest = horizon - milliseconds(200);
  for (std::uint32_t w = 0; w < 3; ++w) {
    ChaosEvent open;
    ChaosEvent close;
    open.server = close.server = w;  // distinct victims: windows may overlap
    open.at = milliseconds(100) + rng.next_below(horizon / 2);
    close.at = std::min<SimTime>(
        open.at + milliseconds(800) + rng.next_below(horizon / 4), latest);
    open.kind = ChaosEvent::Kind::kOverloadStorm;
    close.kind = ChaosEvent::Kind::kEndOverloadStorm;
    open.storm_rate = 4000.0 + static_cast<double>(rng.next_below(4000));
    open.storm_service = microseconds(400 + rng.next_below(400));
    schedule.events.push_back(open);
    schedule.events.push_back(close);
  }
  ChaosEvent crash;
  crash.kind = ChaosEvent::Kind::kCrash;
  crash.server = 3 + static_cast<std::uint32_t>(rng.next_below(n - 3));
  crash.at = milliseconds(500) + rng.next_below(horizon / 3);
  ChaosEvent restart;
  restart.kind = ChaosEvent::Kind::kRestart;
  restart.server = crash.server;
  restart.at = std::min<SimTime>(crash.at + seconds(1), latest);
  schedule.events.push_back(crash);
  schedule.events.push_back(restart);
  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });
  return schedule;
}

ChaosReport run_overload_soak(std::uint64_t seed, std::uint64_t* shed_total) {
  ClusterOptions options;
  options.n = 5;
  options.b = 1;
  options.seed = seed * 9173;
  options.chaos_seed = seed * 52501;
  options.gossip.period = milliseconds(50);
  options.op_timeout = seconds(2);
  // Lower backlog band than the production defaults so even the shortest
  // storm window reliably latches; the release threshold stays above idle.
  options.admission.net_backlog_high = 64;
  options.admission.net_backlog_low = 8;
  Cluster cluster(options);

  ChaosSchedule schedule = storm_schedule(seed, options.n, seconds(8));
  ChaosRunnerOptions runner_options;
  runner_options.horizon = seconds(8);
  runner_options.quiesce = seconds(3);
  ChaosRunner runner(cluster, std::move(schedule), runner_options,
                     /*workload_seed=*/seed * 131 + 3);
  ChaosReport report = runner.run();
  if (shed_total != nullptr) *shed_total = counter_value(cluster, "server.shed");
  return report;
}

struct OverloadSoakCase {
  std::uint64_t seed;
};

class OverloadSoak : public ::testing::TestWithParam<OverloadSoakCase> {};

TEST_P(OverloadSoak, SheddingDegradesThroughputNeverSafety) {
  testkit::SeedBanner banner("overload_soak", GetParam().seed, gtest_failed);
  const std::uint64_t seed = banner.seed();

  std::uint64_t shed = 0;
  const ChaosReport report = run_overload_soak(seed, &shed);

  EXPECT_TRUE(report.violations.empty()) << report.violation_report;
  EXPECT_GT(report.oracle_checks, 0u) << "oracle checked nothing — vacuous run";
  EXPECT_GT(report.events_applied, 0u);
  EXPECT_GT(report.storm_arrivals, 0u) << "storms generated no load — vacuous run";
  EXPECT_GT(shed, 0u) << "no server ever shed — storms never caused overload";
  // Shedding degraded throughput, never safety: acked writes and good
  // reads still flowed around the drowning replicas.
  EXPECT_GT(report.writes_acked, 0u);
  EXPECT_GT(report.reads_ok, 0u);

  // Determinism: the same seed reproduces the same storm and outcome
  // counts (the reproducibility contract chaos debugging relies on).
  std::uint64_t shed_replay = 0;
  const ChaosReport replay = run_overload_soak(seed, &shed_replay);
  EXPECT_EQ(report.storm_arrivals, replay.storm_arrivals);
  EXPECT_EQ(report.writes_acked, replay.writes_acked);
  EXPECT_EQ(shed, shed_replay);
}

std::vector<OverloadSoakCase> overload_seeds() {
  std::vector<OverloadSoakCase> cases;
  for (std::uint64_t i = 0; i < 8; ++i) cases.push_back(OverloadSoakCase{3000 + i * 13});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadSoak, ::testing::ValuesIn(overload_seeds()),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace securestore
