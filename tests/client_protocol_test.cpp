// Protocol-level adversarial tests: a scripted fake server replaces a real
// one on the transport and feeds the client precisely crafted responses,
// pinning down the client's decision logic (candidate fallback, forged
// advertisements, cross-item confusion, §5.3 ordering).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "crypto/keys.h"
#include "net/quorum.h"
#include "storage/item_store.h"
#include "storage/snapshot.h"
#include "testkit/cluster.h"

namespace securestore {
namespace {

using core::ConsistencyModel;
using core::GroupPolicy;
using core::SecureStoreClient;
using core::SharingMode;
using core::SyncClient;
using testkit::Cluster;
using testkit::ClusterOptions;

constexpr GroupId kGroup{1};
constexpr ItemId kX{10};

GroupPolicy mrc_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

SecureStoreClient::Options client_options() {
  SecureStoreClient::Options options;
  options.policy = mrc_policy();
  options.round_timeout = milliseconds(200);
  return options;
}

/// Replaces server 0's transport registration with a scripted responder.
/// The real server object still exists but no longer receives messages.
/// The returned node must outlive the client operations and die before the
/// cluster (declare it after the Cluster in the test).
/// `respond` answers each request, in arrival order.
using Responder = std::function<std::optional<std::pair<net::MsgType, Bytes>>(
    NodeId from, net::MsgType type, BytesView body)>;
[[nodiscard]] std::unique_ptr<net::RpcNode> hijack_server0(Cluster& cluster, Responder respond) {
  auto hijacker = std::make_unique<net::RpcNode>(cluster.transport(), NodeId{0});
  hijacker->set_batch_request_handler(
      [respond = std::move(respond)](std::vector<net::IncomingRequest>& batch) {
        std::vector<std::optional<std::pair<net::MsgType, Bytes>>> out;
        for (const net::IncomingRequest& request : batch) {
          out.push_back(respond(request.from, request.type, request.body));
        }
        return out;
      });
  return hijacker;
}

TEST(ClientProtocol, ForgedNewestAdvertisementRejected) {
  // Server 0 advertises a fabricated "newest" record with a garbage
  // signature. The inline read must reject it and accept the honest value.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto writer = cluster.make_client(ClientId{1}, client_options());
  writer->set_server_preference({NodeId{1}, NodeId{2}, NodeId{0}, NodeId{3}});
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.write(kX, to_bytes("honest value")).ok());

  auto hijacker = hijack_server0(cluster, [&](NodeId, net::MsgType type, BytesView) {
    if (type != net::MsgType::kMetaRequest) return std::optional<std::pair<net::MsgType, Bytes>>{};
    core::WriteRecord forged;
    forged.item = kX;
    forged.group = kGroup;
    forged.model = ConsistencyModel::kMRC;
    forged.writer = ClientId{1};
    forged.ts = core::Timestamp{99999999, {}, {}};
    forged.value = to_bytes("FORGED");
    forged.value_digest = crypto::meter_digest(forged.value);
    forged.signature = Bytes(64, 0xbb);
    core::MetaResp resp;
    resp.meta = std::move(forged);
    return std::make_optional(std::make_pair(net::MsgType::kMetaRequest, resp.serialize()));
  });

  auto reader = cluster.make_client(ClientId{2}, client_options());
  reader->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient reader_sync(*reader, cluster.scheduler());
  const auto result = reader_sync.read_value(kX);
  ASSERT_TRUE(result.ok()) << error_name(result.error());
  EXPECT_EQ(to_string(*result), "honest value");
  // And the forged timestamp must not have leaked into the context.
  EXPECT_LT(reader->context().get(kX).time, 99999999u);
}

TEST(ClientProtocol, TwoPhaseAdvertiserRefusesFetch) {
  // Two-phase mode: server 0 advertises a high legit-looking meta (it even
  // replays the honest meta) but stonewalls the value fetch. The client
  // falls through to a server that serves it.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto writer = cluster.make_client(ClientId{1}, client_options());
  writer->set_server_preference({NodeId{1}, NodeId{2}, NodeId{0}, NodeId{3}});
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.write(kX, to_bytes("fetch me elsewhere")).ok());
  const core::WriteRecord honest_meta = cluster.server(1).store().current(kX)->meta_only();

  auto hijacker = hijack_server0(cluster, [honest_meta](NodeId, net::MsgType type, BytesView)
                              -> std::optional<std::pair<net::MsgType, Bytes>> {
    if (type == net::MsgType::kMetaRequest) {
      core::MetaResp resp;
      resp.meta = honest_meta;
      return std::make_pair(net::MsgType::kMetaRequest, resp.serialize());
    }
    return std::nullopt;  // silent on kRead
  });

  auto reader_opts = client_options();
  reader_opts.inline_reads = false;  // force the Fig. 2 two-phase path
  auto reader = cluster.make_client(ClientId{2}, reader_opts);
  reader->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient reader_sync(*reader, cluster.scheduler());
  const auto result = reader_sync.read_value(kX);
  ASSERT_TRUE(result.ok()) << error_name(result.error());
  EXPECT_EQ(to_string(*result), "fetch me elsewhere");
}

TEST(ClientProtocol, CrossItemRecordIgnored) {
  // A confused/malicious server answers a meta request for item X with a
  // perfectly valid record ... of item Y. The client must not accept it
  // for X.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto writer = cluster.make_client(ClientId{1}, client_options());
  writer->set_server_preference({NodeId{1}, NodeId{2}, NodeId{0}, NodeId{3}});
  SyncClient writer_sync(*writer, cluster.scheduler());
  ASSERT_TRUE(writer_sync.write(ItemId{77}, to_bytes("item 77 value")).ok());
  const core::WriteRecord other_item = *cluster.server(1).store().current(ItemId{77});

  auto hijacker = hijack_server0(cluster, [other_item](NodeId, net::MsgType type, BytesView) {
    if (type != net::MsgType::kMetaRequest) return std::optional<std::pair<net::MsgType, Bytes>>{};
    core::MetaResp resp;
    resp.meta = other_item;  // valid record, wrong item
    return std::make_optional(std::make_pair(net::MsgType::kMetaRequest, resp.serialize()));
  });

  auto reader_opts = client_options();
  reader_opts.max_read_rounds = 2;
  auto reader = cluster.make_client(ClientId{2}, reader_opts);
  reader->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient reader_sync(*reader, cluster.scheduler());
  const auto result = reader_sync.read_value(kX);  // kX was never written
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), Error::kNotFound);
}

TEST(ClientProtocol, ConcurrentSameTimeWritersOrderedByUid) {
  // Two honest multi-writer clients produce records with the SAME time
  // component; the §5.3 uid tiebreak makes every reader pick the same one.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  const GroupPolicy policy{kGroup, ConsistencyModel::kMRC, SharingMode::kMultiWriter,
                           core::ClientTrust::kHonest};
  cluster.set_group_policy(policy);

  // Hand-craft the tie (the client library would advance past it).
  auto inject = [&](ClientId writer, std::string_view text) {
    core::WriteRecord record;
    record.item = kX;
    record.group = kGroup;
    record.model = ConsistencyModel::kMRC;
    record.writer = writer;
    record.value = to_bytes(text);
    record.value_digest = crypto::meter_digest(record.value);
    record.ts = core::Timestamp{1000, writer, record.value_digest};
    record.writer_context = core::Context(kGroup);
    record.sign(cluster.client_keys(writer));

    core::WriteReq req;
    req.record = record;
    net::RpcNode injector(cluster.transport(),
                          NodeId{3000 + writer.value});
    for (std::uint32_t s = 0; s < 4; ++s) {
      injector.send_request(NodeId{s}, net::MsgType::kWrite, req.serialize(),
                            [](NodeId, net::MsgType, BytesView) {});
    }
    cluster.run_for(milliseconds(100));
  };
  inject(ClientId{1}, "from writer 1");
  inject(ClientId{2}, "from writer 2");

  SecureStoreClient::Options reader_opts;
  reader_opts.policy = policy;
  auto reader = cluster.make_client(ClientId{3}, reader_opts);
  SyncClient reader_sync(*reader, cluster.scheduler());
  const auto result = reader_sync.read(kX);
  ASSERT_TRUE(result.ok());
  // uid 2 > uid 1 at equal time: writer 2 wins everywhere.
  EXPECT_EQ(result->writer, ClientId{2});
  EXPECT_EQ(to_string(result->value), "from writer 2");
}

TEST(ClientProtocol, ReplayedOldContextWriteRefusedByServers) {
  // A malicious party replays a client's OLD signed context to the servers;
  // non-faulty servers must keep the newer one (ContextStore dominance).
  Cluster cluster(ClusterOptions{});
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());
  ASSERT_TRUE(sync.write(kX, to_bytes("v1")).ok());
  ASSERT_TRUE(sync.disconnect().ok());

  // Capture the signed session-1 context off a server (via its snapshot,
  // the supported introspection path).
  core::StoredContext old_context;
  {
    const Bytes server_snapshot = cluster.server(0).snapshot();
    Reader wrapper(server_snapshot);  // store snapshot + audit chain
    const Bytes store_snapshot = wrapper.bytes();
    storage::ItemStore items;
    storage::ContextStore contexts;
    storage::restore_snapshot(store_snapshot, items, contexts);
    const core::StoredContext* stored = contexts.get(ClientId{1}, kGroup);
    ASSERT_NE(stored, nullptr);
    old_context = *stored;
  }

  // Session 2 advances the context.
  ASSERT_TRUE(sync.connect(kGroup).ok());
  ASSERT_TRUE(sync.write(kX, to_bytes("v2")).ok());
  ASSERT_TRUE(sync.disconnect().ok());

  // Replay the old context to every server.
  core::ContextWriteReq replay;
  replay.stored = old_context;
  net::RpcNode attacker(cluster.transport(), NodeId{4000});
  for (std::uint32_t s = 0; s < 4; ++s) {
    attacker.send_request(NodeId{s}, net::MsgType::kContextWrite, replay.serialize(),
                          [](NodeId, net::MsgType, BytesView) {});
  }
  cluster.run_for(seconds(1));

  // A fresh session still acquires the NEWER context.
  auto session3 = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync3(*session3, cluster.scheduler());
  ASSERT_TRUE(sync3.connect(kGroup).ok());
  const auto result = sync3.read_value(kX);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result), "v2");
}

/// Latches one server's admission controller for good (DESIGN.md §13): a
/// same-instant burst of probes through a briefly finite service time
/// pushes its net backlog past `net_backlog_high`, and with
/// `net_backlog_low = 0` the latch never releases. The server then refuses
/// every client request with a signed retry-after hint.
void latch_server(Cluster& cluster, std::size_t index) {
  core::MetaReq probe_req;
  probe_req.item = ItemId{999};
  probe_req.group = kGroup;
  probe_req.requester = ClientId{999};
  const Bytes body = probe_req.serialize();
  net::RpcNode probe(cluster.transport(), NodeId{4999});
  cluster.transport().set_service_time(cluster.server_node(index), milliseconds(1));
  for (int i = 0; i < 8; ++i) {
    net::QuorumCall::start(
        probe, {cluster.server_node(index)}, net::MsgType::kMetaRequest, body,
        [](NodeId, net::MsgType, BytesView) { return true; },
        [](net::QuorumOutcome, std::size_t) {}, net::QuorumOptions{milliseconds(200), {}});
  }
  cluster.run_for(milliseconds(300));
  cluster.transport().set_service_time(cluster.server_node(index), 0);
}

TEST(ClientProtocol, RetryPathsAreDeterministic) {
  // Cross-commit determinism pin for every retrying quorum path. A fixed
  // seed drives connect and write through escalation past a crashed
  // server; an inline read past a value-corrupting server; a two-phase
  // read whose only candidate no fetch server can substantiate, so it
  // falls through every fetch and retries; a P6 write and read into a
  // permanently shedding server (verified retry-after hint, breaker trip);
  // and a group listing that absorbs a refusal. The expected figures were
  // captured from the per-protocol retry loops the shared driver replaced:
  // any drift in retries, fault accounting, message count, crypto count or
  // virtual time fails here.
  ClusterOptions options;
  options.seed = 1401;
  options.start_gossip = false;
  options.server_faults = {{1, {faults::ServerFault::kStaleData}},
                           {3, {faults::ServerFault::kCorruptValues}}};
  options.admission.net_backlog_high = 2;
  options.admission.net_backlog_low = 0;  // a latched server stays latched
  options.admission.retry_after_min = milliseconds(120);
  options.admission.retry_after_max = milliseconds(120);
  Cluster cluster(options);
  constexpr GroupId kShared{2};
  constexpr ItemId kY{11};
  const GroupPolicy p6_policy{kShared, ConsistencyModel::kMRC, SharingMode::kMultiWriter,
                              core::ClientTrust::kByzantine};
  cluster.set_group_policy(mrc_policy());
  cluster.set_group_policy(p6_policy);
  crypto::CryptoMeter& meter = crypto::CryptoMeter::instance();
  meter.reset();

  auto make = [&](ClientId id, SecureStoreClient::Options opts, std::vector<NodeId> order) {
    opts.breaker_threshold = 2;
    auto client = cluster.make_client(id, std::move(opts));
    client->set_server_preference(std::move(order));
    return client;
  };
  auto writer = make(ClientId{1}, client_options(), {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  auto inline_reader =
      make(ClientId{2}, client_options(), {NodeId{3}, NodeId{0}, NodeId{1}, NodeId{2}});
  auto two_phase_options = client_options();
  two_phase_options.inline_reads = false;
  auto two_phase_reader =
      make(ClientId{3}, two_phase_options, {NodeId{3}, NodeId{1}, NodeId{0}, NodeId{2}});
  auto p6_options = client_options();
  p6_options.policy = p6_policy;
  auto p6 = make(ClientId{4}, p6_options, {NodeId{2}, NodeId{0}, NodeId{1}, NodeId{3}});
  SyncClient writer_sync(*writer, cluster.scheduler());
  SyncClient inline_sync(*inline_reader, cluster.scheduler());
  SyncClient two_phase_sync(*two_phase_reader, cluster.scheduler());
  SyncClient p6_sync(*p6, cluster.scheduler());

  // Server 1 down: the connect's context quorum {0,1,2} and the write's
  // b+1 set {0,1} both time out once and escalate.
  cluster.stop_server(1);
  ASSERT_TRUE(writer_sync.connect(kGroup).ok());
  ASSERT_TRUE(writer_sync.write(kX, to_bytes("v1")).ok());
  cluster.start_server(1);

  // Server 1 (stale-data) freezes its value answer at v2 before it ever
  // advertises: a direct fetch is its first kRead for the item.
  ASSERT_TRUE(writer_sync.write(kX, to_bytes("v2")).ok());
  {
    core::ReadReq fetch;
    fetch.item = kX;
    fetch.group = kGroup;
    fetch.requester = ClientId{9};
    net::RpcNode injector(cluster.transport(), NodeId{4000});
    injector.send_request(NodeId{1}, net::MsgType::kRead, fetch.serialize(),
                          [](NodeId, net::MsgType, BytesView) {});
    cluster.run_for(milliseconds(100));
  }
  ASSERT_TRUE(writer_sync.write(kX, to_bytes("v3")).ok());

  // Inline read of {3,0} through the corrupting server 3.
  const auto inline_read = inline_sync.read_value(kX);
  ASSERT_TRUE(inline_read.ok()) << error_name(inline_read.error());
  EXPECT_EQ(to_string(*inline_read), "v3");
  // Two-phase read: of {3,1}, only server 1 advertises (v3), then serves
  // its frozen v2 while server 3 corrupts, so every fetch falls through
  // and the read retries over every server, server 2 silent.
  cluster.stop_server(2);
  const auto two_phase_read = two_phase_sync.read_value(kX);
  ASSERT_TRUE(two_phase_read.ok()) << error_name(two_phase_read.error());
  EXPECT_EQ(to_string(*two_phase_read), "v3");
  cluster.start_server(2);

  // Server 2 sheds from now on. The P6 write's {2,0,1} round is lost to
  // one refusal and waits out the signed hint before escalating; the read
  // takes the second refusal, which opens server 2's breaker.
  latch_server(cluster, 2);
  ASSERT_TRUE(p6_sync.write(kY, to_bytes("p6 value")).ok());
  const auto p6_read = p6_sync.read_value(kY);
  ASSERT_TRUE(p6_read.ok()) << error_name(p6_read.error());
  EXPECT_EQ(to_string(*p6_read), "p6 value");
  EXPECT_TRUE(p6->breaker_open(NodeId{2}));

  const auto listing = writer_sync.list_group(kGroup);
  ASSERT_TRUE(listing.ok()) << error_name(listing.error());
  EXPECT_EQ(listing->size(), 1u);

  std::map<std::string, std::uint64_t> observed;
  for (const auto& [name, value] : cluster.registry().snapshot().counters) {
    if (name.rfind("client.", 0) == 0) observed[name] = value;
  }
  observed["messages_sent"] = cluster.transport_stats().messages_sent;
  observed["crypto.signs"] = meter.signs;
  observed["crypto.verifies"] = meter.verifies;
  observed["crypto.digests"] = meter.digests;
  observed["now_us"] = cluster.scheduler().now();
  const std::map<std::string, std::uint64_t> expected = {
      {"client.breaker_trips", 1},     {"client.deadline_exceeded", 0},
      {"client.fault.forgery", 3},     {"client.fault.silent", 1},
      {"client.p1.connect.ops", 1},    {"client.p1.connect.retries", 1},
      {"client.p2.list.ops", 1},       {"client.p3.write.ops", 3},
      {"client.p3.write.retries", 1},  {"client.p4.read.ops", 2},
      {"client.p4.read.retries", 1},   {"client.p6.read.ops", 1},
      {"client.p6.write.ops", 1},      {"client.p6.write.retries", 1},
      {"client.refused", 3},           {"crypto.digests", 25},
      {"crypto.signs", 10},            {"crypto.verifies", 42},
      {"messages_sent", 105},          {"now_us", 1152219},
  };
  EXPECT_EQ(observed, expected);
}

TEST(ClientProtocol, ExpiredDeadlineFailsWithDeadlineError) {
  // op_timeout = 0 makes every operation's absolute deadline "now": the
  // round budget must clamp to zero and fail the op with a deadline error
  // instead of wrapping `deadline - now` into a huge round timeout. The P2
  // sweeps are bound by the same deadline as every other operation.
  ClusterOptions options;
  options.start_gossip = false;
  options.op_timeout = 0;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  using Outcome = std::pair<Error, std::string>;
  const std::vector<std::pair<std::string, std::function<Outcome()>>> operations = {
      {"write",
       [&] {
         const auto r = sync.write(kX, to_bytes("never lands"));
         return Outcome{r.error(), r.detail()};
       }},
      {"read",
       [&] {
         const auto r = sync.read(kX);
         return Outcome{r.error(), r.detail()};
       }},
      {"reconstruct_context",
       [&] {
         const auto r = sync.reconstruct_context(kGroup);
         return Outcome{r.error(), r.detail()};
       }},
      {"list_group",
       [&] {
         const auto r = sync.list_group(kGroup);
         return Outcome{r.error(), r.detail()};
       }},
  };
  for (const auto& [name, run] : operations) {
    SCOPED_TRACE(name);
    const Outcome outcome = run();
    EXPECT_EQ(outcome.first, Error::kTimeout) << error_name(outcome.first);
    EXPECT_EQ(outcome.second, "operation deadline passed");
  }

  const auto* exceeded = cluster.registry().find_counter("client.deadline_exceeded");
  ASSERT_NE(exceeded, nullptr);
  EXPECT_EQ(exceeded->value(), operations.size());
}

TEST(ClientProtocol, DisconnectSignsOnceAcrossEscalation) {
  // The context is signed once per disconnect, not once per round: a
  // round lost to a crashed member of the first ⌈(n+b+1)/2⌉ pick escalates
  // with the same signed body.
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  client->set_server_preference({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}});
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.connect(kGroup).ok());
  ASSERT_TRUE(sync.write(kX, to_bytes("v1")).ok());
  cluster.stop_server(1);  // in the first context-quorum pick {0,1,2}

  const std::uint64_t signs_before = crypto::CryptoMeter::instance().signs;
  ASSERT_TRUE(sync.disconnect().ok());
  EXPECT_EQ(crypto::CryptoMeter::instance().signs - signs_before, 1u);
  const auto* retries = cluster.registry().find_counter("client.p1.disconnect.retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->value(), 1u) << "round 0 must time out and escalate";
}

TEST(ClientProtocol, BackoffOvershootingDeadlineFailsInsteadOfHanging) {
  // All servers down: every round times out and the client backs off until
  // the retry would overshoot the whole-op deadline. The op must then fail
  // with a deadline-flavored error in bounded virtual time — the underflow
  // failure mode was a wrapped budget issuing an absurdly long round.
  ClusterOptions options;
  options.start_gossip = false;
  options.op_timeout = milliseconds(500);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());
  for (std::size_t i = 0; i < cluster.server_count(); ++i) cluster.stop_server(i);

  auto client_options_short = client_options();
  client_options_short.round_timeout = milliseconds(100);
  auto client = cluster.make_client(ClientId{1}, client_options_short);
  SyncClient sync(*client, cluster.scheduler());
  const auto result = sync.write(kX, to_bytes("never lands"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), Error::kTimeout);
  // Bounded failure: well before the sim could have run a wrapped
  // (multi-hour) round to completion.
  EXPECT_LE(cluster.scheduler().now(), seconds(2));
}

}  // namespace
}  // namespace securestore
