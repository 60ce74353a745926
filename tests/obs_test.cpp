// Observability subsystem tests: histogram quantile math against known
// answers, registry handle stability and thread-safety (run under tsan via
// the `obs` label), OpTrace phase attribution under both clock domains, and
// end-to-end assertions that a cluster workload populates the per-protocol,
// gossip, WAL, and rpc-drop metrics the dumps promise.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "net/fault_transport.h"

#include "core/sync.h"
#include "net/rpc.h"
#include "obs/export.h"
#include "net/sim_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "testkit/cluster.h"
#include "testkit/sharded_cluster.h"
#include "util/serial.h"

namespace securestore {
namespace {

namespace fs = std::filesystem;
using core::ConsistencyModel;
using core::GroupPolicy;
using core::SecureStoreClient;
using core::SharingMode;
using core::SyncClient;
using testkit::Cluster;
using testkit::ClusterOptions;

struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "securestore_obs_XXXXXX").string();
    path = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// ---------------------------------------------------------------------------
// Histogram quantiles
// ---------------------------------------------------------------------------

TEST(Histogram, KnownAnswerQuantiles) {
  obs::Histogram histogram({10.0, 20.0, 40.0});
  for (int i = 0; i < 5; ++i) histogram.observe(7.0);
  for (int i = 0; i < 5; ++i) histogram.observe(15.0);

  const obs::HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.count, 10u);
  EXPECT_DOUBLE_EQ(snap.min, 7.0);
  EXPECT_DOUBLE_EQ(snap.max, 15.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 11.0);
  ASSERT_EQ(snap.bucket_counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.bucket_counts[0], 5u);
  EXPECT_EQ(snap.bucket_counts[1], 5u);

  // Rank q*count = 5 lands at the end of the first bucket [0, 10]:
  // interpolation gives exactly its upper bound.
  EXPECT_DOUBLE_EQ(snap.p50(), 10.0);
  // Rank 9 is the 4th of 5 observations in [10, 20]: interpolation says
  // 10 + 10 * 4/5 = 18, but nothing above 15 was ever recorded — the
  // estimate clamps to the observed max.
  EXPECT_DOUBLE_EQ(snap.quantile(0.9), 15.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 15.0);
}

TEST(Histogram, TopBucketQuantileNeverExceedsObservedMax) {
  // Every observation is 3.0, landing in the (2, 5] bucket. Naive
  // interpolation would report p99 ~= 4.97 — past anything recorded.
  obs::Histogram histogram({1.0, 2.0, 5.0});
  for (int i = 0; i < 100; ++i) histogram.observe(3.0);

  const obs::HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_DOUBLE_EQ(snap.p50(), 3.0);
  EXPECT_DOUBLE_EQ(snap.p99(), 3.0);
  // Quantiles below the max still interpolate normally.
  EXPECT_DOUBLE_EQ(snap.quantile(0.1), 2.3);
}

TEST(Histogram, OverflowBucketClampsToObservedMax) {
  obs::Histogram histogram({10.0});
  histogram.observe(5.0);
  histogram.observe(50.0);
  histogram.observe(70.0);

  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.bucket_counts[1], 2u);  // overflow
  EXPECT_DOUBLE_EQ(snap.p99(), 70.0);
  EXPECT_DOUBLE_EQ(snap.max, 70.0);
}

TEST(Histogram, ResetKeepsBounds) {
  obs::Histogram histogram({10.0, 20.0});
  histogram.observe(15.0);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  histogram.observe(15.0);
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.bucket_counts[1], 1u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, FindOrCreateReturnsStableHandles) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  EXPECT_EQ(registry.find_counter("nope"), nullptr);
  EXPECT_EQ(registry.find_counter("x")->value(), 3u);

  // First creator fixes histogram bounds; later bounds are ignored.
  obs::Histogram& h1 = registry.histogram("h", {1.0, 2.0});
  obs::Histogram& h2 = registry.histogram("h", {100.0});
  EXPECT_EQ(&h1, &h2);
  h1.observe(1.5);
  EXPECT_EQ(registry.snapshot().histograms.at("h").bucket_counts[1], 1u);
}

TEST(Registry, ResetZeroesButKeepsHandles) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("c");
  obs::Gauge& gauge = registry.gauge("g");
  obs::Histogram& histogram = registry.histogram("h");
  counter.inc(5);
  gauge.set(-2);
  histogram.observe(3.0);

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(histogram.count(), 0u);
  counter.inc();  // handle still live
  EXPECT_EQ(registry.find_counter("c")->value(), 1u);
}

TEST(Registry, CollectorsRunAtSnapshotUntilRemoved) {
  obs::Registry registry;
  int runs = 0;
  const std::uint64_t id = registry.add_collector([&](obs::Registry& r) {
    ++runs;
    r.gauge("collected").set(42);
  });

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(snap.gauges.at("collected"), 42);

  registry.remove_collector(id);
  (void)registry.snapshot();
  EXPECT_EQ(runs, 1);
}

TEST(Registry, ConcurrentUpdatesAndSnapshots) {
  // Exercised under ThreadSanitizer via the `obs` ctest label: concurrent
  // find-or-create, relaxed updates, and snapshots must be race-free.
  obs::Registry registry;
  constexpr int kThreads = 4;
  constexpr int kIters = 10'000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      obs::Counter& counter = registry.counter("shared.counter");
      obs::Histogram& histogram = registry.histogram("shared.histogram");
      obs::Gauge& gauge = registry.gauge("shared.gauge");
      for (int i = 0; i < kIters; ++i) {
        counter.inc();
        histogram.observe(static_cast<double>(i % 100));
        gauge.record_max(i);
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 100; ++i) (void)registry.snapshot();
  });
  for (auto& thread : threads) thread.join();

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("shared.counter"), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.histograms.at("shared.histogram").count,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.gauges.at("shared.gauge"), kIters - 1);
}

// ---------------------------------------------------------------------------
// OpTrace
// ---------------------------------------------------------------------------

TEST(OpTrace, PhaseAttributionAndCounters) {
  obs::Registry registry;
  std::uint64_t fake_now = 1000;

  {
    obs::OpTrace trace(registry, "op", [&fake_now] { return fake_now; });
    fake_now += 5;  // unnamed first span: not attributed to any phase
    trace.phase("sign");
    fake_now += 30;
    trace.phase("quorum");
    fake_now += 100;
    trace.phase("sign");  // re-entry accumulates
    fake_now += 10;
    trace.add("retries", 2);
    trace.finish(true);
    trace.finish(false);  // idempotent: must not double-record
  }

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("op.ops"), 1u);
  EXPECT_EQ(snap.counters.at("op.retries"), 2u);
  EXPECT_EQ(snap.counters.count("op.failures"), 0u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("op.latency_us").sum, 145.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("op.sign_us").sum, 40.0);
  EXPECT_DOUBLE_EQ(snap.histograms.at("op.quorum_us").sum, 100.0);
}

TEST(OpTrace, UnfinishedTraceRecordsFailure) {
  obs::Registry registry;
  { obs::OpTrace trace(registry, "dropped", [] { return std::uint64_t{0}; }); }
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("dropped.failures"), 1u);
  EXPECT_EQ(snap.counters.at("dropped.ops"), 1u);
}

TEST(OpTrace, SimAndWallClocksProduceIdenticalMetricNames) {
  // The clock is the only thing that differs between the simulated and real
  // deployments; the metric namespace must not.
  obs::Registry sim_registry;
  obs::Registry wall_registry;
  std::uint64_t virtual_now = 0;

  const auto run = [](obs::Registry& registry, obs::ClockFn clock) {
    obs::OpTrace trace(registry, "client.p3.write", std::move(clock));
    trace.phase("sign");
    trace.phase("quorum");
    trace.add("retries");
    trace.finish(true);
  };
  run(sim_registry, [&virtual_now] { return virtual_now += 7; });
  run(wall_registry, obs::wall_now_us);

  const obs::MetricsSnapshot sim_snap = sim_registry.snapshot();
  const obs::MetricsSnapshot wall_snap = wall_registry.snapshot();
  ASSERT_EQ(sim_snap.counters.size(), wall_snap.counters.size());
  for (auto sim_it = sim_snap.counters.begin(), wall_it = wall_snap.counters.begin();
       sim_it != sim_snap.counters.end(); ++sim_it, ++wall_it) {
    EXPECT_EQ(sim_it->first, wall_it->first);
    EXPECT_EQ(sim_it->second, wall_it->second);
  }
  ASSERT_EQ(sim_snap.histograms.size(), wall_snap.histograms.size());
  for (auto sim_it = sim_snap.histograms.begin(), wall_it = wall_snap.histograms.begin();
       sim_it != sim_snap.histograms.end(); ++sim_it, ++wall_it) {
    EXPECT_EQ(sim_it->first, wall_it->first);
    EXPECT_EQ(sim_it->second.count, wall_it->second.count);
  }
}

TEST(OpTrace, WallClockIsMonotone) {
  const std::uint64_t a = obs::wall_now_us();
  const std::uint64_t b = obs::wall_now_us();
  EXPECT_GE(b, a);
}

// ---------------------------------------------------------------------------
// Protocol instrumentation, end to end
// ---------------------------------------------------------------------------

GroupPolicy p3_policy() {
  return GroupPolicy{GroupId{1}, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

GroupPolicy p5_policy() {
  return GroupPolicy{GroupId{2}, ConsistencyModel::kCC, SharingMode::kMultiWriter,
                     core::ClientTrust::kHonest};
}

TEST(ObsCluster, SimLatencyHistogramMatchesVirtualElapsed) {
  // Under the simulator the trace clock is transport.now(): the recorded
  // write latency must equal the virtual time the op took, exactly.
  ClusterOptions options;
  options.link = sim::LinkProfile{milliseconds(10), 0, 0.0};
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(p3_policy());

  SecureStoreClient::Options client_options;
  client_options.policy = p3_policy();
  auto client = cluster.make_client(ClientId{1}, client_options);
  SyncClient sync(*client, cluster.scheduler());

  const SimTime before = cluster.scheduler().now();
  ASSERT_TRUE(sync.write(ItemId{100}, to_bytes("v")).ok());
  const SimTime elapsed = cluster.scheduler().now() - before;

  const obs::MetricsSnapshot snap = cluster.registry().snapshot();
  const obs::HistogramSnapshot& latency = snap.histograms.at("client.p3.write.latency_us");
  ASSERT_EQ(latency.count, 1u);
  EXPECT_DOUBLE_EQ(latency.sum, static_cast<double>(elapsed));
  EXPECT_EQ(snap.counters.at("client.p3.write.ops"), 1u);
}

TEST(ObsCluster, MixedWorkloadPopulatesProtocolGossipAndWalMetrics) {
  TempDir dir;
  ClusterOptions options;
  options.gossip.period = milliseconds(100);
  options.durability_dir = dir.path;
  Cluster cluster(options);
  cluster.set_group_policy(p3_policy());
  cluster.set_group_policy(p5_policy());

  SecureStoreClient::Options p3_options;
  p3_options.policy = p3_policy();
  auto single = cluster.make_client(ClientId{1}, p3_options);
  SyncClient single_sync(*single, cluster.scheduler());

  SecureStoreClient::Options p5_options;
  p5_options.policy = p5_policy();
  auto multi = cluster.make_client(ClientId{2}, p5_options);
  SyncClient multi_sync(*multi, cluster.scheduler());
  ASSERT_TRUE(single_sync.connect(GroupId{1}).ok());
  ASSERT_TRUE(multi_sync.connect(GroupId{2}).ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(single_sync.write(ItemId{100 + static_cast<std::uint64_t>(i)},
                                  to_bytes("p3 " + std::to_string(i)))
                    .ok());
    ASSERT_TRUE(single_sync.read_value(ItemId{100 + static_cast<std::uint64_t>(i)}).ok());
    ASSERT_TRUE(multi_sync.write(ItemId{200 + static_cast<std::uint64_t>(i)},
                                 to_bytes("p5 " + std::to_string(i)))
                    .ok());
    ASSERT_TRUE(multi_sync.read_value(ItemId{200 + static_cast<std::uint64_t>(i)}).ok());
  }
  cluster.run_for(seconds(2));  // gossip rounds + WAL flush timers

  const obs::MetricsSnapshot snap = cluster.registry().snapshot();

  // Per-protocol histograms: P3/P4 from the single-writer client, P5 from
  // the multi-writer one.
  EXPECT_GE(snap.histograms.at("client.p3.write.latency_us").count, 3u);
  EXPECT_GE(snap.histograms.at("client.p4.read.latency_us").count, 3u);
  EXPECT_GE(snap.histograms.at("client.p5.write.latency_us").count, 3u);
  EXPECT_GE(snap.histograms.at("client.p5.read.latency_us").count, 3u);
  EXPECT_GE(snap.histograms.at("client.p3.write.quorum_us").count, 3u);
  EXPECT_EQ(snap.counters.at("client.p3.write.ops"), 3u);
  EXPECT_EQ(snap.counters.count("client.p3.write.failures"), 0u);

  // Server request mix and apply timing.
  EXPECT_GE(snap.counters.at("server.req.write"), 6u);
  EXPECT_GE(snap.counters.at("server.req.meta"), 6u);
  EXPECT_GE(snap.histograms.at("server.apply_us").count, 6u);

  // Gossip made progress and measured its rounds.
  EXPECT_GT(snap.counters.at("gossip.rounds"), 0u);
  EXPECT_GT(snap.counters.at("gossip.records_sent"), 0u);
  EXPECT_GT(snap.histograms.at("gossip.digest_entries").count, 0u);
  EXPECT_GT(snap.histograms.at("gossip.round_us").count, 0u);

  // Durable servers timed their WAL appends (wall clock).
  EXPECT_GT(snap.histograms.at("server.wal.append_us").count, 0u);

  // Transport stats were folded in via the snapshot collector.
  EXPECT_GT(snap.gauges.at("transport.messages_sent"), 0);
}

TEST(ObsCluster, PeriodicSnapshotsFollowVirtualTime) {
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);

  int snapshots = 0;
  cluster.start_metrics_snapshots(milliseconds(100),
                                  [&](const obs::MetricsSnapshot&) { ++snapshots; });
  cluster.run_for(milliseconds(1050));
  EXPECT_GE(snapshots, 9);
  EXPECT_LE(snapshots, 11);
}

// ---------------------------------------------------------------------------
// Drop accounting: gossip garbage and expired rpc responses
// ---------------------------------------------------------------------------

TEST(ObsDrops, MalformedGossipIsCountedNotSwallowed) {
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(p3_policy());

  ASSERT_EQ(cluster.registry().counter("gossip.malformed_dropped").value(), 0u);

  // A peer sprays garbage at the gossip port: an undecodable digest...
  net::RpcNode attacker(cluster.transport(), NodeId{4000});
  attacker.send_oneway(NodeId{0}, net::MsgType::kGossipDigest, to_bytes("not a digest"));
  cluster.run_for(milliseconds(50));
  EXPECT_EQ(cluster.registry().counter("gossip.malformed_dropped").value(), 1u);

  // ...and a protocol message routed to the gossip handler.
  cluster.server(0).gossip().handle(NodeId{4000}, net::MsgType::kRead, to_bytes("nope"));
  EXPECT_EQ(cluster.registry().counter("gossip.non_gossip_dropped").value(), 1u);
}

TEST(ObsDrops, ExpiredRpcResponseIsCounted) {
  sim::Scheduler scheduler;
  net::SimTransport transport(scheduler, sim::NetworkModel(Rng(1), sim::lan_profile()));

  net::RpcNode server(transport, NodeId{0});
  server.set_batch_request_handler([](std::vector<net::IncomingRequest>& batch) {
    return std::vector<std::optional<std::pair<net::MsgType, Bytes>>>(
        batch.size(), std::make_pair(net::MsgType::kAck, to_bytes("late")));
  });
  net::RpcNode client(transport, NodeId{1});

  bool fired = false;
  const std::uint64_t rpc_id = client.send_request(
      NodeId{0}, net::MsgType::kRead, to_bytes("q"),
      [&](NodeId, net::MsgType, BytesView) { fired = true; });
  client.cancel(rpc_id);  // caller gave up (timeout) before the reply lands
  scheduler.run_until_idle();

  EXPECT_FALSE(fired);
  EXPECT_EQ(transport.registry().counter("rpc.response_expired").value(), 1u);
}

TEST(ObsDrops, MisdirectedRpcResponseIsCounted) {
  sim::Scheduler scheduler;
  net::SimTransport transport(scheduler, sim::NetworkModel(Rng(2), sim::lan_profile()));

  net::RpcNode silent(transport, NodeId{0});  // never answers
  net::RpcNode client(transport, NodeId{1});

  bool fired = false;
  const std::uint64_t rpc_id = client.send_request(
      NodeId{0}, net::MsgType::kRead, to_bytes("q"),
      [&](NodeId, net::MsgType, BytesView) { fired = true; });
  scheduler.run_until_idle();

  // A Byzantine third party answers for the silent target with the right
  // rpc id but the wrong sender: rejected, and counted.
  Writer forged;
  forged.u8(1);  // Kind::kResponse
  forged.u64(rpc_id);
  forged.u16(static_cast<std::uint16_t>(net::MsgType::kAck));
  transport.send(NodeId{2}, NodeId{1}, forged.take());
  scheduler.run_until_idle();

  EXPECT_FALSE(fired);
  EXPECT_EQ(transport.registry().counter("rpc.response_misdirected").value(), 1u);
}

// ---------------------------------------------------------------------------
// Catalog conformance (DESIGN.md §8): every metric/event name a mixed
// P3/P5/P6 cluster run emits must appear in the documented catalog, so
// instrumentation cannot drift away from the docs unnoticed.
// ---------------------------------------------------------------------------

GroupPolicy p6_policy() {
  return GroupPolicy{GroupId{3}, ConsistencyModel::kMRC, SharingMode::kMultiWriter,
                     core::ClientTrust::kByzantine};
}

// Every `backticked` token between the catalog markers in DESIGN.md §8.
std::set<std::string> load_catalog() {
  std::ifstream in(std::string(SECURESTORE_SOURCE_DIR) + "/DESIGN.md");
  EXPECT_TRUE(in.is_open()) << "DESIGN.md not found under SECURESTORE_SOURCE_DIR";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const std::size_t begin = text.find("<!-- metric-event-catalog:begin -->");
  const std::size_t end = text.find("<!-- metric-event-catalog:end -->");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);

  std::set<std::string> catalog;
  std::size_t pos = begin;
  while (pos < end) {
    const std::size_t open = text.find('`', pos);
    if (open == std::string::npos || open >= end) break;
    const std::size_t close = text.find('`', open + 1);
    if (close == std::string::npos || close >= end) break;
    catalog.insert(text.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return catalog;
}

// Folds concrete names onto their catalog form: per-server gauges become
// `server.<id>.*`, per-protocol client names become `client.<op>*`, and the
// `{shard=<id>}` suffix sharded deployments append (DESIGN.md §11) is
// stripped — the catalog documents the base series.
std::string normalize_name(std::string name) {
  const std::size_t brace = name.find("{shard=");
  if (brace != std::string::npos && !name.empty() && name.back() == '}') {
    name = name.substr(0, brace);
  }
  if (name.rfind("server.", 0) == 0) {
    std::size_t digits_end = 7;
    while (digits_end < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[digits_end]))) {
      ++digits_end;
    }
    if (digits_end > 7 && digits_end < name.size() && name[digits_end] == '.') {
      return "server.<id>" + name.substr(digits_end);
    }
  }
  if (name.rfind("client.p", 0) == 0) {
    std::size_t digits_end = 8;
    while (digits_end < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[digits_end]))) {
      ++digits_end;
    }
    if (digits_end > 8 && digits_end < name.size() && name[digits_end] == '.') {
      std::size_t verb_end = digits_end + 1;
      while (verb_end < name.size() &&
             (std::islower(static_cast<unsigned char>(name[verb_end])) ||
              name[verb_end] == '_')) {
        ++verb_end;
      }
      return "client.<op>" + name.substr(verb_end);
    }
  }
  return name;
}

TEST(ObsCatalog, MixedWorkloadEmitsOnlyCatalogedNames) {
  const std::set<std::string> catalog = load_catalog();
  ASSERT_FALSE(catalog.empty());

  TempDir dir;
  ClusterOptions options;
  options.gossip.period = milliseconds(100);
  options.durability_dir = dir.path;
  // The LSM engine (DESIGN.md §12), with a budget small enough that the
  // workload actually flushes: the storage.* series must be emitted here to
  // be held against the catalog.
  options.engine.kind = core::StorageEngineKind::kLsm;
  options.engine.memtable_budget_bytes = 1u << 10;
  options.tracing = true;
  options.chaos_seed = 11;  // fault instants + chaos counters, but no loss
  Cluster cluster(options);
  net::FaultRule rule;
  rule.duplicate = 0.3;
  cluster.chaos()->set_default_rule(rule);
  cluster.set_group_policy(p3_policy());
  cluster.set_group_policy(p5_policy());
  cluster.set_group_policy(p6_policy());

  const auto run_workload = [&](ClientId id, const GroupPolicy& policy) {
    SecureStoreClient::Options client_options;
    client_options.policy = policy;
    auto client = cluster.make_client(id, client_options);
    SyncClient sync(*client, cluster.scheduler());
    ASSERT_TRUE(sync.connect(policy.group).ok());
    const std::uint64_t base = policy.group.value * 100;
    for (std::uint64_t k = 0; k < 2; ++k) {
      ASSERT_TRUE(sync.write(ItemId{base + k}, to_bytes("v" + std::to_string(k))).ok());
      ASSERT_TRUE(sync.read_value(ItemId{base + k}).ok());
    }
  };
  run_workload(ClientId{1}, p3_policy());
  run_workload(ClientId{2}, p5_policy());
  run_workload(ClientId{3}, p6_policy());
  cluster.run_for(seconds(2));  // gossip + WAL timers

  const auto check = [&](const std::string& name, const char* what) {
    EXPECT_TRUE(catalog.count(normalize_name(name)) == 1)
        << what << " `" << name << "` (normalized `" << normalize_name(name)
        << "`) is missing from the DESIGN.md §8 catalog";
  };
  const obs::MetricsSnapshot snap = cluster.registry().snapshot();
  for (const auto& [name, value] : snap.counters) check(name, "counter");
  for (const auto& [name, value] : snap.gauges) check(name, "gauge");
  for (const auto& [name, histogram] : snap.histograms) check(name, "histogram");
  const std::vector<obs::Event> events = cluster.events().snapshot();
  ASSERT_FALSE(events.empty());
  for (const obs::Event& event : events) {
    check(event.name, "event name");
    check(event.category, "event category");
  }

  // Non-vacuous LSM coverage: the engine's storage.* series were actually
  // emitted (registered counters/gauges appear in the snapshot), and the
  // tiny memtable budget forced real flush traffic through them.
  std::uint64_t lsm_flushes = 0;
  bool saw_memtable_gauge = false;
  bool saw_sst_gauge = false;
  for (const auto& [name, value] : snap.counters) {
    if (normalize_name(name) == "server.<id>.storage.flushes") lsm_flushes += value;
  }
  for (const auto& [name, value] : snap.gauges) {
    if (normalize_name(name) == "server.<id>.storage.memtable_bytes") saw_memtable_gauge = true;
    if (normalize_name(name) == "server.<id>.storage.sst_files") saw_sst_gauge = true;
  }
  EXPECT_GT(lsm_flushes, 0u) << "LSM workload never flushed — storage.* series vacuous";
  EXPECT_TRUE(saw_memtable_gauge);
  EXPECT_TRUE(saw_sst_gauge);
}

// The sharded counterpart: a two-group deployment grown to three mid-run,
// so the `shard.*` series (ring installs, wrong-shard refusals, client
// refresh/reroute) and the `{shard=<id>}`-suffixed server/gossip series are
// actually emitted, then held to the same catalog.
TEST(ObsCatalog, ShardedWorkloadEmitsOnlyCatalogedNames) {
  const std::set<std::string> catalog = load_catalog();
  ASSERT_FALSE(catalog.empty());

  testkit::ShardedClusterOptions options;
  options.groups = 2;
  options.seed = 11;
  options.gossip.period = milliseconds(100);
  options.tracing = true;
  testkit::ShardedCluster cluster(options);
  for (std::uint32_t g = 1; g <= 16; ++g) {
    cluster.set_group_policy(GroupPolicy{GroupId{g}, ConsistencyModel::kMRC,
                                         SharingMode::kSingleWriter,
                                         core::ClientTrust::kHonest});
  }

  SecureStoreClient::Options client_options;
  client_options.round_timeout = seconds(1);
  auto client = cluster.make_client(ClientId{1}, client_options);
  shard::SyncShardedClient sync(*client, cluster.scheduler());
  for (std::uint32_t g = 1; g <= 16; ++g) {
    ASSERT_TRUE(sync.connect(GroupId{g}).ok());
    ASSERT_TRUE(sync.write(GroupId{g}, ItemId{g * 100}, to_bytes("v1")).ok());
  }
  // Growing the deployment bounces the now-stale client with kWrongShard on
  // every moved group: servers count the refusals, the client counts the
  // ring refresh and the reroutes.
  cluster.add_group();
  for (std::uint32_t g = 1; g <= 16; ++g) {
    ASSERT_TRUE(sync.write(GroupId{g}, ItemId{g * 100 + 1}, to_bytes("v2")).ok());
  }
  cluster.run_for(seconds(2));  // ring + record gossip

  const auto check = [&](const std::string& name, const char* what) {
    EXPECT_TRUE(catalog.count(normalize_name(name)) == 1)
        << what << " `" << name << "` (normalized `" << normalize_name(name)
        << "`) is missing from the DESIGN.md §8 catalog";
  };
  const obs::MetricsSnapshot snap = cluster.registry().snapshot();
  for (const auto& [name, value] : snap.counters) check(name, "counter");
  for (const auto& [name, value] : snap.gauges) check(name, "gauge");
  for (const auto& [name, histogram] : snap.histograms) check(name, "histogram");
  for (const obs::Event& event : cluster.events().snapshot()) {
    check(event.name, "event name");
    check(event.category, "event category");
  }
  // The names this test exists for must really have been exercised.
  EXPECT_GE(snap.counters.count("shard.ring_refresh"), 1u);
  EXPECT_GE(snap.counters.count("shard.reroute"), 1u);
  bool saw_wrong_shard = false;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("shard.wrong_shard", 0) == 0 && value > 0) saw_wrong_shard = true;
  }
  EXPECT_TRUE(saw_wrong_shard);
}

// Round-trip conformance (DESIGN.md §8): every catalog name, instantiated
// with concrete placeholder values and optionally carrying the §11 shard
// suffix, must (a) split back into exactly its base name and shard, and
// (b) map through `prometheus_name` onto the exposition-format name
// grammar WITHOUT collisions — two distinct catalog series may never fold
// into one Prometheus family, or dashboards silently sum unrelated data.
TEST(ObsCatalog, PrometheusNamesRoundTripInjectively) {
  const std::set<std::string> catalog = load_catalog();
  ASSERT_FALSE(catalog.empty());

  // Instantiate the documented placeholders the way real deployments do.
  std::vector<std::string> concrete;
  for (std::string name : catalog) {
    for (std::string::size_type at; (at = name.find("<id>")) != std::string::npos;) {
      name.replace(at, 4, "7");
    }
    for (std::string::size_type at; (at = name.find("<op>")) != std::string::npos;) {
      name.replace(at, 4, "p3.write");
    }
    concrete.push_back(std::move(name));
  }

  std::map<std::string, std::string> prometheus_to_base;
  const auto grammar_ok = [](const std::string& name) {
    if (name.empty()) return false;
    const auto head = static_cast<unsigned char>(name.front());
    if (!std::isalpha(head) && name.front() != '_' && name.front() != ':') return false;
    for (const char c : name) {
      const auto u = static_cast<unsigned char>(c);
      if (!std::isalnum(u) && c != '_' && c != ':') return false;
    }
    return true;
  };

  for (const std::string& base : concrete) {
    // The shard suffix must split off exactly — and its absence must not
    // invent one (names with inner braces would corrupt label folding).
    const auto [plain, no_shard] = obs::split_shard_suffix(base);
    EXPECT_EQ(plain, base);
    EXPECT_FALSE(no_shard.has_value()) << base;
    const auto [stripped, shard] = obs::split_shard_suffix(base + "{shard=2}");
    EXPECT_EQ(stripped, base);
    ASSERT_TRUE(shard.has_value()) << base;
    EXPECT_EQ(*shard, 2u);

    const std::string prom = obs::prometheus_name(base);
    EXPECT_TRUE(grammar_ok(prom))
        << "`" << base << "` maps to `" << prom << "`, which breaks the "
        << "exposition name grammar [a-zA-Z_:][a-zA-Z0-9_:]*";
    const auto [it, inserted] = prometheus_to_base.emplace(prom, base);
    EXPECT_TRUE(inserted) << "catalog names `" << it->second << "` and `" << base
                          << "` collide as Prometheus family `" << prom << "`";
  }
}

// The text exposition itself: dotted names escaped, shard suffixes folded
// into a `shard` label within one family, histograms emitting cumulative
// buckets with `+Inf`, `_sum` and `_count`.
TEST(Export, PrometheusTextEscapesNamesAndFoldsShardLabels) {
  obs::Registry registry;
  registry.counter("server.req.write").inc(3);
  registry.counter("gossip.rounds{shard=1}").inc(5);
  registry.counter("gossip.rounds{shard=2}").inc(7);
  auto& h = registry.histogram("client.op_latency_us");
  h.observe(50);
  h.observe(150);
  registry.histogram("wal.unused_us");  // zero observations: skipped

  const std::string text = obs::to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE server_req_write counter"), std::string::npos) << text;
  EXPECT_NE(text.find("server_req_write 3"), std::string::npos);
  EXPECT_NE(text.find("gossip_rounds{shard=\"1\"} 5"), std::string::npos) << text;
  EXPECT_NE(text.find("gossip_rounds{shard=\"2\"} 7"), std::string::npos);
  EXPECT_EQ(text.find("{shard="), text.find("{shard=\""))
      << "raw suffix leaked into the exposition:\n" << text;
  EXPECT_NE(text.find("client_op_latency_us_bucket{le="), std::string::npos) << text;
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("client_op_latency_us_sum 200"), std::string::npos);
  EXPECT_NE(text.find("client_op_latency_us_count 2"), std::string::npos);
  EXPECT_EQ(text.find("wal_unused_us"), std::string::npos)
      << "empty histograms must be skipped";
}

}  // namespace
}  // namespace securestore
