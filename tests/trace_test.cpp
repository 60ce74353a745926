// Distributed-tracing tests (DESIGN.md §8).
//
// Covers the trace context's wire format and envelope carriage (including
// malformed/oversized fields from Byzantine peers, which must be counted
// and stripped, never trusted), the bounded event ring and its sampling
// knob, cross-node span stitching for a client write, gossip's origin-
// context hand-off, and the headline acceptance run: an 8-seed chaos soak
// with tracing on, each seed writing a Perfetto-loadable TRACE_*.json in
// which at least one client operation's span stitches to server
// verify/apply spans on three or more distinct nodes, with the injected
// fault timeline overlaid as instant events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/sync.h"
#include "net/fault_transport.h"
#include "net/rpc.h"
#include "net/sim_transport.h"
#include "obs/events.h"
#include "obs/export.h"
#include "sim/scheduler.h"
#include "testkit/chaos.h"
#include "testkit/cluster.h"
#include "testkit/seed.h"
#include "util/serial.h"

namespace securestore {
namespace {

using core::SyncClient;
using obs::Event;
using obs::EventKind;
using obs::EventLog;
using obs::TraceContext;
using testkit::ChaosReport;
using testkit::ChaosRunner;
using testkit::ChaosRunnerOptions;
using testkit::ChaosSchedule;
using testkit::Cluster;
using testkit::ClusterOptions;

bool gtest_failed() { return ::testing::Test::HasFailure(); }

core::GroupPolicy p3_policy() {
  return core::GroupPolicy{GroupId{1}, core::ConsistencyModel::kMRC,
                           core::SharingMode::kSingleWriter, core::ClientTrust::kHonest};
}

// The hardened multi-writer Byzantine policy writes to the full 2b+1
// quorum, so its spans land on >= 3 distinct nodes (b=1).
core::GroupPolicy p6_policy() {
  return core::GroupPolicy{GroupId{1}, core::ConsistencyModel::kMRC,
                           core::SharingMode::kMultiWriter, core::ClientTrust::kByzantine};
}

// Envelope byte-crafting constants (PROTOCOL.md §1b). Mirrored from
// rpc.cpp on purpose: these tests pin the wire format.
constexpr std::uint8_t kKindRequest = 0;
constexpr std::uint8_t kKindOneway = 2;
constexpr std::uint8_t kTraceFlag = 0x80;

TraceContext sampled_ctx(std::uint64_t trace_id, std::uint64_t span_id,
                         std::uint64_t origin_us = 0) {
  TraceContext ctx;
  ctx.trace_id = trace_id;
  ctx.span_id = span_id;
  ctx.flags = TraceContext::kSampledFlag;
  ctx.origin_us = origin_us;
  return ctx;
}

// ---------------------------------------------------------------------------
// TraceContext wire format
// ---------------------------------------------------------------------------

TEST(TraceContext, RoundTripsThroughTheWireFormat) {
  const TraceContext ctx = sampled_ctx(0x1122334455667788u, 0x99aabbccddeeff00u, 42);
  Writer w;
  ctx.encode(w);
  const Bytes bytes = w.take();
  ASSERT_EQ(bytes.size(), TraceContext::kWireSize);

  Reader r(bytes);
  const TraceContext decoded = TraceContext::decode(r);
  r.expect_end();
  EXPECT_EQ(decoded, ctx);
  EXPECT_TRUE(decoded.valid());
  EXPECT_TRUE(decoded.sampled());
}

TEST(TraceContext, DefaultIsInvalidAndDecodeThrowsWhenTruncated) {
  EXPECT_FALSE(TraceContext{}.valid());

  Writer w;
  sampled_ctx(1, 2).encode(w);
  Bytes bytes = w.take();
  bytes.resize(TraceContext::kWireSize - 1);
  Reader r(bytes);
  EXPECT_THROW(TraceContext::decode(r), DecodeError);
}

// ---------------------------------------------------------------------------
// EventLog: gating, sampling, bounded ring
// ---------------------------------------------------------------------------

TEST(EventLog, DisabledLogAdmitsNothing) {
  EventLog log(8);
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.begin_root(0).valid());
  log.span(1, sampled_ctx(1, 2), "s", "c", 0, 1);
  log.instant(1, 0, TraceContext{}, "i", "c", 0);
  Event event;
  event.name = "direct";
  log.record(event);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
}

TEST(EventLog, WantRequiresEnabledAndSampledParent) {
  EventLog log(8);
  EXPECT_FALSE(log.want(sampled_ctx(1, 2)));  // disabled
  log.set_enabled(true);
  EXPECT_TRUE(log.want(sampled_ctx(1, 2)));
  EXPECT_FALSE(log.want(TraceContext{}));  // unsampled/invalid parent
}

TEST(EventLog, RootSamplingAdmitsOneInN) {
  EventLog log(64);
  log.set_enabled(true);
  log.set_sample_every(4);
  int admitted = 0;
  std::set<std::uint64_t> trace_ids;
  for (int i = 0; i < 8; ++i) {
    const TraceContext ctx = log.begin_root(7);
    if (!ctx.valid()) continue;
    ++admitted;
    EXPECT_TRUE(ctx.sampled());
    EXPECT_EQ(ctx.origin_us, 7u);
    trace_ids.insert(ctx.trace_id);
  }
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(trace_ids.size(), 2u) << "every admitted root gets a fresh trace id";
}

TEST(EventLog, RingOverwritesOldestAndCountsDrops) {
  EventLog log(4);
  log.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    Event event;
    event.name = "e" + std::to_string(i);
    log.record(std::move(event));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 2u);
  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e2");  // oldest-first, e0/e1 overwritten
  EXPECT_EQ(events.back().name, "e5");
}

// ---------------------------------------------------------------------------
// Envelope carriage: propagation, interop, Byzantine containment
// ---------------------------------------------------------------------------

struct RpcPair {
  sim::Scheduler scheduler;
  net::SimTransport transport{scheduler, sim::NetworkModel(Rng(3), sim::lan_profile())};
  net::RpcNode server{transport, NodeId{0}};
  net::RpcNode client{transport, NodeId{1}};

  std::uint64_t malformed() {
    return transport.registry().counter("rpc.trace_ctx_malformed").value();
  }
};

TEST(RpcTrace, RequestCarriesContextAndResponseDoesNot) {
  RpcPair net;
  const TraceContext sent = sampled_ctx(100, 200, 5);
  TraceContext seen;
  net.server.set_batch_request_handler([&](std::vector<net::IncomingRequest>& batch) {
    seen = batch.front().trace;
    return std::vector<std::optional<std::pair<net::MsgType, Bytes>>>(
        batch.size(), std::make_pair(net::MsgType::kAck, to_bytes("ok")));
  });

  bool responded = false;
  net.client.send_request(NodeId{0}, net::MsgType::kRead, to_bytes("q"),
                          [&](NodeId, net::MsgType, BytesView) {
                            responded = true;
                            // Responses never carry a context back.
                            EXPECT_FALSE(net.client.incoming_trace().valid());
                          },
                          sent);
  net.scheduler.run_until_idle();

  ASSERT_TRUE(responded);
  EXPECT_EQ(seen, sent);
  // Outside handler invocation the incoming context is cleared.
  EXPECT_FALSE(net.server.incoming_trace().valid());
  EXPECT_EQ(net.malformed(), 0u);
}

TEST(RpcTrace, OnewayCarriesContextAndUnknownFlagsAreCleared) {
  RpcPair net;
  TraceContext sent = sampled_ctx(7, 8);
  sent.flags = 0xFF;  // a Byzantine peer sets every bit
  TraceContext seen;
  net.server.set_oneway_handler(
      [&](NodeId, net::MsgType, BytesView) { seen = net.server.incoming_trace(); });

  net.client.send_oneway(NodeId{0}, net::MsgType::kStability, to_bytes("m"), sent);
  net.scheduler.run_until_idle();

  EXPECT_EQ(seen.trace_id, 7u);
  EXPECT_EQ(seen.span_id, 8u);
  EXPECT_EQ(seen.flags, TraceContext::kSampledFlag) << "unknown flag bits must not survive";
}

TEST(RpcTrace, LegacyEnvelopeWithoutTraceFieldInterops) {
  RpcPair net;
  int handled = 0;
  net.server.set_oneway_handler([&](NodeId, net::MsgType, BytesView body) {
    ++handled;
    EXPECT_EQ(to_string(Bytes(body.begin(), body.end())), "old");
    EXPECT_FALSE(net.server.incoming_trace().valid());
  });

  // A frame from a pre-trace sender: plain kind byte, no trace field.
  Writer w;
  w.u8(kKindOneway);
  w.u64(1);  // rpc id (unused for oneways)
  w.u16(static_cast<std::uint16_t>(net::MsgType::kStability));
  w.raw(to_bytes("old"));
  net.transport.send(NodeId{1}, NodeId{0}, w.take());
  net.scheduler.run_until_idle();

  EXPECT_EQ(handled, 1);
  EXPECT_EQ(net.malformed(), 0u);
}

TEST(RpcTrace, ForwardCompatibilitySuffixIsSkipped) {
  RpcPair net;
  TraceContext seen;
  net.server.set_oneway_handler(
      [&](NodeId, net::MsgType, BytesView) { seen = net.server.incoming_trace(); });

  // A future sender appends 5 extra bytes after the v1 context; a v1
  // receiver decodes the prefix and skips the rest.
  Writer w;
  w.u8(kKindOneway | kTraceFlag);
  w.u8(static_cast<std::uint8_t>(TraceContext::kWireSize + 5));
  sampled_ctx(11, 12).encode(w);
  w.raw(to_bytes("xxxxx"));
  w.u64(1);
  w.u16(static_cast<std::uint16_t>(net::MsgType::kStability));
  net.transport.send(NodeId{1}, NodeId{0}, w.take());
  net.scheduler.run_until_idle();

  EXPECT_EQ(seen.trace_id, 11u);
  EXPECT_EQ(net.malformed(), 0u);
}

// Builds a oneway envelope whose trace field claims `ctx_len` bytes and
// carries `ctx_bytes` of them, followed by a well-formed message.
Bytes envelope_with_ctx(std::uint8_t ctx_len, const Bytes& ctx_bytes) {
  Writer w;
  w.u8(kKindOneway | kTraceFlag);
  w.u8(ctx_len);
  w.raw(ctx_bytes);
  w.u64(1);
  w.u16(static_cast<std::uint16_t>(net::MsgType::kStability));
  return w.take();
}

TEST(RpcTrace, MalformedContextsAreCountedAndStrippedNeverTrusted) {
  RpcPair net;
  int handled = 0;
  net.server.set_oneway_handler([&](NodeId, net::MsgType, BytesView) {
    ++handled;
    EXPECT_FALSE(net.server.incoming_trace().valid());
  });

  // Too short to be a v1 context: counted, stripped, message still handled.
  net.transport.send(NodeId{1}, NodeId{0}, envelope_with_ctx(10, Bytes(10, 0xAB)));
  net.scheduler.run_until_idle();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(net.malformed(), 1u);

  // Larger than the acceptance bound (kMaxWireSize): same treatment.
  net.transport.send(NodeId{1}, NodeId{0}, envelope_with_ctx(70, Bytes(70, 0xCD)));
  net.scheduler.run_until_idle();
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(net.malformed(), 2u);

  // A zero trace id is never allocated; claiming one is malformed.
  Writer zero_ctx;
  TraceContext zero;
  zero.span_id = 9;
  zero.flags = TraceContext::kSampledFlag;
  zero.encode(zero_ctx);
  net.transport.send(
      NodeId{1}, NodeId{0},
      envelope_with_ctx(static_cast<std::uint8_t>(TraceContext::kWireSize), zero_ctx.take()));
  net.scheduler.run_until_idle();
  EXPECT_EQ(handled, 3);
  EXPECT_EQ(net.malformed(), 3u);

  // Length field pointing past the end of the payload: counted as a
  // malformed context AND the (undecodable) message is dropped.
  const std::uint64_t dropped_before =
      net.transport.registry().counter("rpc.malformed_dropped").value();
  net.transport.send(NodeId{1}, NodeId{0}, envelope_with_ctx(40, Bytes(3, 0xEF)));
  net.scheduler.run_until_idle();
  EXPECT_EQ(handled, 3) << "an envelope that lies about its length is undecodable";
  EXPECT_EQ(net.malformed(), 4u);
  EXPECT_EQ(net.transport.registry().counter("rpc.malformed_dropped").value(),
            dropped_before + 1);
}

// ---------------------------------------------------------------------------
// Cross-node stitching in a live cluster
// ---------------------------------------------------------------------------

ClusterOptions traced_options() {
  ClusterOptions options;
  options.tracing = true;
  return options;
}

// The events of `snapshot` with the given name, oldest first.
std::vector<Event> named(const std::vector<Event>& snapshot, std::string_view name) {
  std::vector<Event> out;
  for (const Event& event : snapshot) {
    if (event.name == name) out.push_back(event);
  }
  return out;
}

TEST(TraceCluster, ClientWriteStitchesToServerSpansOnAtLeastThreeNodes) {
  Cluster cluster(traced_options());
  cluster.set_group_policy(p6_policy());
  core::SecureStoreClient::Options client_options;
  client_options.policy = p6_policy();
  auto client = cluster.make_client(ClientId{1}, client_options);
  SyncClient sync(*client, cluster.scheduler());

  ASSERT_TRUE(sync.write(ItemId{100}, to_bytes("traced")).ok());

  const std::vector<Event> events = cluster.events().snapshot();
  const std::vector<Event> roots = named(events, "client.p6.write");
  ASSERT_EQ(roots.size(), 1u);
  const Event& root = roots.front();
  EXPECT_EQ(root.category, "op");
  EXPECT_EQ(root.parent_span_id, 0u);
  ASSERT_NE(root.trace_id, 0u);

  // Client phase spans sit under the root on the same node.
  bool saw_phase = false;
  for (const Event& event : events) {
    if (event.category != "phase") continue;
    EXPECT_EQ(event.trace_id, root.trace_id);
    EXPECT_EQ(event.parent_span_id, root.span_id);
    EXPECT_EQ(event.node, root.node);
    saw_phase = true;
  }
  EXPECT_TRUE(saw_phase);

  // Server-side verify/apply spans parent to the root across >= 3 nodes
  // (the hardened write set is 2b+1 = 3 of the n=4 servers).
  std::set<std::uint32_t> verify_nodes;
  std::set<std::uint32_t> apply_nodes;
  for (const Event& event : events) {
    if (event.trace_id != root.trace_id) continue;
    if (event.name == "server.verify") verify_nodes.insert(event.node);
    if (event.name == "server.apply") apply_nodes.insert(event.node);
    if (event.name == "server.verify" || event.name == "server.apply") {
      EXPECT_EQ(event.parent_span_id, root.span_id);
      EXPECT_EQ(event.category, "server");
    }
  }
  EXPECT_GE(verify_nodes.size(), 3u);
  EXPECT_GE(apply_nodes.size(), 3u);

  // All span ids in the trace are distinct (nothing closed twice).
  std::set<std::uint64_t> span_ids;
  for (const Event& event : events) {
    if (event.kind != EventKind::kSpan) continue;
    EXPECT_TRUE(span_ids.insert(event.span_id).second)
        << "duplicate span id for " << event.name;
  }
}

TEST(TraceCluster, GossipHandoffCarriesOriginContextAndMeasuresLag) {
  ClusterOptions options = traced_options();
  options.gossip.period = milliseconds(50);
  Cluster cluster(options);
  cluster.set_group_policy(p3_policy());
  core::SecureStoreClient::Options client_options;
  client_options.policy = p3_policy();
  auto client = cluster.make_client(ClientId{1}, client_options);
  SyncClient sync(*client, cluster.scheduler());

  // Server 3 misses the write (down), then recovers its pre-write state and
  // catches up via anti-entropy — the only path the record can take to it.
  cluster.stop_server(3);
  ASSERT_TRUE(sync.write(ItemId{100}, to_bytes("gossip me")).ok());
  cluster.start_server(3, /*restore_state=*/true);
  cluster.run_for(seconds(1));
  ASSERT_NE(cluster.server(3).store().current(ItemId{100}), nullptr);

  const std::vector<Event> events = cluster.events().snapshot();
  const std::vector<Event> roots = named(events, "client.p3.write");
  ASSERT_EQ(roots.size(), 1u);

  bool stitched = false;
  for (const Event& event : named(events, "gossip.apply")) {
    if (event.node == 3 && event.trace_id == roots.front().trace_id) stitched = true;
  }
  EXPECT_TRUE(stitched) << "gossip apply on the recovered node must link to the write's trace";

  const obs::MetricsSnapshot snap = cluster.registry().snapshot();
  const auto lag = snap.histograms.find("gossip.write_to_visible_us");
  ASSERT_NE(lag, snap.histograms.end());
  EXPECT_GE(lag->second.count, 1u);
}

TEST(TraceCluster, SamplingKnobAdmitsOneRootInN) {
  ClusterOptions options = traced_options();
  options.trace_sample_every = 1000;  // only the first root wins the draw
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(p3_policy());
  core::SecureStoreClient::Options client_options;
  client_options.policy = p3_policy();
  auto client = cluster.make_client(ClientId{1}, client_options);
  SyncClient sync(*client, cluster.scheduler());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sync.write(ItemId{100 + static_cast<std::uint64_t>(i)}, to_bytes("v")).ok());
  }

  int roots = 0;
  for (const Event& event : cluster.events().snapshot()) {
    if (event.category == "op") ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST(TraceCluster, TracingOffByDefaultRecordsNothing) {
  ClusterOptions options;  // tracing not set
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(p3_policy());
  core::SecureStoreClient::Options client_options;
  client_options.policy = p3_policy();
  auto client = cluster.make_client(ClientId{1}, client_options);
  SyncClient sync(*client, cluster.scheduler());

  ASSERT_TRUE(sync.write(ItemId{100}, to_bytes("untraced")).ok());
  EXPECT_FALSE(cluster.events().enabled());
  EXPECT_TRUE(cluster.events().snapshot().empty());
  // Metrics stay always-on regardless of the tracing switch.
  EXPECT_EQ(cluster.registry().snapshot().counters.at("client.p3.write.ops"), 1u);
}

// ---------------------------------------------------------------------------
// Tracing under fire: the fault-injecting transport
// ---------------------------------------------------------------------------

TEST(TraceChaos, LossyLinksNeverCorruptTheLogOrDoubleCloseSpans) {
  ClusterOptions options = traced_options();
  options.chaos_seed = 99;
  options.op_timeout = seconds(2);
  options.gossip.period = milliseconds(50);
  Cluster cluster(options);
  cluster.set_group_policy(p3_policy());

  net::FaultRule rule;
  rule.drop = 0.15;
  rule.duplicate = 0.15;
  rule.truncate = 0.1;
  cluster.chaos()->set_default_rule(rule);

  core::SecureStoreClient::Options client_options;
  client_options.policy = p3_policy();
  client_options.round_timeout = milliseconds(150);
  auto client = cluster.make_client(ClientId{1}, client_options);
  SyncClient sync(*client, cluster.scheduler());

  int acked = 0;
  for (int i = 0; i < 20; ++i) {
    if (sync.write(ItemId{100 + static_cast<std::uint64_t>(i)}, to_bytes("chaotic")).ok()) {
      ++acked;
    }
  }
  cluster.run_for(seconds(1));
  EXPECT_GT(acked, 0) << "the storm ate every write — vacuous run";
  EXPECT_GT(cluster.chaos()->injected_count(), 0u);

  const std::vector<Event> events = cluster.events().snapshot();
  ASSERT_FALSE(events.empty());

  // Dropped/duplicated/truncated messages must not leak half-open spans,
  // duplicate a span id, or leave garbage events in the ring.
  std::set<std::uint64_t> span_ids;
  std::uint64_t chaos_instants = 0;
  for (const Event& event : events) {
    EXPECT_FALSE(event.name.empty());
    EXPECT_FALSE(event.category.empty());
    if (event.kind == EventKind::kSpan) {
      EXPECT_TRUE(span_ids.insert(event.span_id).second)
          << "span " << event.name << " closed twice";
    } else if (event.category == "chaos") {
      ++chaos_instants;
      EXPECT_EQ(event.trace_id, 0u) << "fault instants are trace-free overlays";
    }
  }
  // Every root that was admitted shows up exactly once (failed ops close
  // with category op.failed — never twice, never half-open).
  std::map<std::uint64_t, int> roots_per_trace;
  for (const Event& event : events) {
    if (event.category == "op" || event.category == "op.failed") {
      ++roots_per_trace[event.trace_id];
    }
  }
  for (const auto& [trace_id, count] : roots_per_trace) EXPECT_EQ(count, 1);
  if (cluster.events().dropped() == 0) {
    EXPECT_EQ(chaos_instants, cluster.chaos()->injected_count())
        << "every injected fault lands on the timeline as an instant";
  }
}

// ---------------------------------------------------------------------------
// Acceptance: 8-seed chaos soak with tracing, Perfetto-loadable sidecars
// ---------------------------------------------------------------------------

struct TracedSoakCase {
  std::uint64_t seed;
};

class TracedChaosSoak : public ::testing::TestWithParam<TracedSoakCase> {};

TEST_P(TracedChaosSoak, WritesStitchedPerfettoTimelineWithFaultOverlay) {
  testkit::SeedBanner banner("traced_chaos_soak", GetParam().seed, gtest_failed);
  const std::uint64_t seed = banner.seed();

  ClusterOptions options;
  options.n = 5;
  options.b = 1;
  options.seed = seed * 6151;
  options.chaos_seed = seed * 40503;
  options.gossip.period = milliseconds(50);
  options.op_timeout = seconds(2);
  options.tracing = true;
  Cluster cluster(options);

  Rng schedule_rng(seed);
  ChaosSchedule schedule = ChaosSchedule::random(schedule_rng, options.n, options.b, seconds(5));
  ChaosRunnerOptions runner_options;
  runner_options.horizon = seconds(5);
  runner_options.quiesce = seconds(2);
  ChaosRunner runner(cluster, std::move(schedule), runner_options,
                     /*workload_seed=*/seed * 31 + 7);
  const ChaosReport report = runner.run();
  EXPECT_GT(report.writes_acked, 0u);
  EXPECT_GT(report.events_applied, 0u);

  const std::vector<Event> events = cluster.events().snapshot();
  ASSERT_FALSE(events.empty());

  // At least one client operation stitches to server verify/apply spans on
  // >= 3 distinct nodes by trace id.
  std::set<std::uint64_t> op_roots;
  std::map<std::uint64_t, std::set<std::uint32_t>> server_nodes_by_trace;
  std::uint64_t fault_instants = 0;
  for (const Event& event : events) {
    if (event.category == "op") op_roots.insert(event.trace_id);
    if (event.name == "server.verify" || event.name == "server.apply") {
      server_nodes_by_trace[event.trace_id].insert(event.node);
    }
    if (event.kind == EventKind::kInstant && event.category == "chaos") ++fault_instants;
  }
  bool stitched = false;
  for (const std::uint64_t trace_id : op_roots) {
    const auto it = server_nodes_by_trace.find(trace_id);
    if (it != server_nodes_by_trace.end() && it->second.size() >= 3) stitched = true;
  }
  EXPECT_TRUE(stitched) << "no client op stitched to server spans on >= 3 nodes";
  EXPECT_GT(fault_instants, 0u) << "the storm's fault timeline must overlay as instants";

  // The Perfetto-loadable sidecar lands next to the BENCH_* files.
  const std::string name = "chaos_" + std::to_string(seed);
  ASSERT_TRUE(cluster.write_trace_sidecar(name));
  std::FILE* file = std::fopen(("TRACE_" + name + ".json").c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
}

std::vector<TracedSoakCase> traced_soak_seeds() {
  std::vector<TracedSoakCase> cases;
  for (std::size_t i = 0; i < 8; ++i) cases.push_back(TracedSoakCase{2000 + i * 13});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracedChaosSoak, ::testing::ValuesIn(traced_soak_seeds()),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace securestore
