// SecureStoreClient: the active party of every protocol.
//
// "We propose an approach in which servers are primarily repositories of
// data, and clients are responsible for accessing consistent values of
// data items" (§7). The client owns:
//   * its context X_i and its evolution on reads/writes (Fig. 2),
//   * session management: connect/disconnect = context acquisition/store
//     with ⌈(n+b+1)/2⌉ quorums (Fig. 1, protocol P1),
//   * context reconstruction from all servers after a crash (P2),
//   * single-writer reads/writes with b+1 sets (P3/P4),
//   * multi-writer reads/writes: 3-tuple timestamps (P5) and, under
//     Byzantine clients, 2b+1 sets with b+1-matching reads, plus the
//     stability certificates that let servers prune logs (P6),
//   * confidentiality: value codec + random timestamp increments (P7).
//
// All operations are asynchronous (callback-based, driven by the simulated
// event loop); `SyncClient` in sync.h offers the blocking facade used by
// tests and examples.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/confidential.h"
#include "core/config.h"
#include "core/fault_estimator.h"
#include "core/messages.h"
#include "crypto/keys.h"
#include "net/quorum.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "util/result.h"
#include "util/rng.h"

namespace securestore::core {

/// A successful read: the (decoded) value plus the meta the client verified.
struct ReadOutput {
  Bytes value;
  Timestamp ts;
  ClientId writer{};
};

/// One entry of a group listing.
struct GroupEntry {
  ItemId item{};
  Timestamp ts;
  ClientId writer{};
};

class SecureStoreClient {
 public:
  struct Options {
    GroupPolicy policy;
    /// Attached to data requests when the deployment requires authorization.
    std::optional<AuthToken> token;
    /// Value confidentiality; defaults to plaintext.
    std::shared_ptr<ValueCodec> codec;
    /// §5.2 privacy knob: advance timestamps by a random amount so servers
    /// cannot count updates. Single-writer only.
    bool random_ts_increment = false;
    /// Reads ask the meta round to include values, so the best case is one
    /// round trip and one signature verification — §6: "the message cost
    /// and response time of read operations could also be the same as
    /// write operations". Disable for the Fig. 2 literal two-phase read,
    /// which ships the (possibly large) value only once, from the chosen
    /// server.
    bool inline_reads = true;
    /// Per-round deadline for quorum calls, further capped by whatever
    /// remains of the whole operation's deadline (StoreConfig::op_timeout).
    SimDuration round_timeout = seconds(1);
    /// Stale reads escalate by config.read_escalation_step servers per
    /// round, up to this many rounds (Fig. 2: "contact additional
    /// servers"), then fail with kStale.
    unsigned max_read_rounds = 3;
    /// Failed quorum rounds wait before retrying: capped exponential
    /// backoff (base · multiplier^round, at most cap) with seeded jitter in
    /// [backoff/2, backoff], so a degraded deployment sheds load instead of
    /// hammering sick servers in a tight loop — and concurrent clients
    /// desynchronize. Deterministic per client seed. backoff_base = 0
    /// disables the wait (the pre-backoff behavior).
    SimDuration backoff_base = milliseconds(10);
    SimDuration backoff_cap = milliseconds(640);
    double backoff_multiplier = 2.0;
    /// P6: broadcast stability certificates after multi-writer writes so
    /// servers can garbage collect logs.
    bool stability_gc = true;
    /// Read repair: when an (inline) read observes servers lagging behind
    /// the value it accepted, push the signed record to them. Complements
    /// server-side gossip with reader-driven dissemination — most useful
    /// when gossip is slow or off. Off by default (the paper's
    /// dissemination is purely server-side).
    bool read_repair = false;
    /// Overload cooperation (DESIGN.md §13). kOverloaded refusals are
    /// counted separately from timeouts (`client.refused`) and the signed
    /// retry-after hint stretches the next retry backoff — clamped to this
    /// bound, so a Byzantine server cannot stall the client, and always
    /// subject to the absolute op deadline.
    SimDuration retry_after_clamp = milliseconds(500);
    /// Per-server circuit breaker: after this many *consecutive* overload
    /// refusals the server is demoted out of first-choice quorum picks (it
    /// stays an escalation fallback, like an estimator-distrusted server)
    /// for `breaker_cooldown`; the first pick after the cooldown is the
    /// half-open probe that decides whether it rejoins or re-opens.
    /// breaker_threshold = 0 disables the breaker.
    unsigned breaker_threshold = 3;
    SimDuration breaker_cooldown = milliseconds(200);
    /// Dynamic Byzantine quorums (§3, [Alvisi et al. DSN'00]): when set,
    /// data sets are sized f̂+1 (or 2f̂+1) from the fault estimator instead
    /// of the static bound b, shrinking to b_min+1 in fault-free weather
    /// and growing back as evidence of misbehavior accumulates. Context
    /// quorums keep the static bound (their intersection argument needs it).
    std::optional<FaultEstimator::Config> dynamic_quorums;
  };

  SecureStoreClient(net::Transport& transport, NodeId network_id, ClientId client_id,
                    crypto::KeyPair keys, StoreConfig config, Options options, Rng rng);

  using VoidCb = std::function<void(VoidResult)>;
  using ReadCb = std::function<void(Result<ReadOutput>)>;

  /// P1 (Fig. 1): acquire the latest signed context for `group` from a
  /// ⌈(n+b+1)/2⌉ quorum. A fresh (never stored) context yields an empty X_i.
  void connect(GroupId group, VoidCb done);

  /// P1 (Fig. 1): sign and store the current context at ⌈(n+b+1)/2⌉ servers.
  void disconnect(VoidCb done);

  /// P2 (§5.1): rebuild the context from the timestamps of all data items
  /// in the group, read from all servers — the recovery path when the last
  /// session died before writing its context back.
  void reconstruct_context(GroupId group, VoidCb done);

  /// Browses a group: the items it contains with their newest verified
  /// timestamps and writers, gathered from an all-server sweep (the same
  /// collection pass as reconstruction, without touching the session
  /// context). Useful for discovering uids before reading.
  using ListCb = std::function<void(Result<std::vector<GroupEntry>>)>;
  void list_group(GroupId group, ListCb done);

  /// P3/P5/P6 write (Fig. 2 / §5.3).
  void write(ItemId item, BytesView value, VoidCb done);

  /// P4/P6 read (Fig. 2 / §5.3).
  void read(ItemId item, ReadCb done);

  ClientId client_id() const { return client_id_; }
  const Context& context() const { return context_; }
  Context& mutable_context() { return context_; }
  bool connected() const { return connected_; }
  const StoreConfig& config() const { return config_; }
  const Options& options() const { return options_; }

  /// Test hook: fixes the order in which servers are picked for data
  /// operations (defaults to a seeded shuffle).
  void set_server_preference(std::vector<NodeId> order);

  /// The dynamic-quorum estimator (null unless Options::dynamic_quorums).
  const FaultEstimator* fault_estimator() const { return estimator_ ? &*estimator_ : nullptr; }

  /// Swaps the value codec — the key-change step of the §5.2 re-encryption
  /// cycle (see rotate.h for the full read/re-encrypt/write-back workflow).
  void set_codec(std::shared_ptr<ValueCodec> codec);

  /// Sharded deployments (DESIGN.md §11): when an operation failed with
  /// kWrongShard, this returns the signed ring state the rejecting server
  /// attached (serialized shard::SignedRingState) and clears it. The core
  /// client does not interpret the bytes — verification and re-routing
  /// belong to shard::ShardedClient, which owns the ring authority key.
  Bytes take_wrong_shard_ring() { return std::move(wrong_shard_ring_); }

  /// Whether the per-server circuit breaker currently demotes `server`
  /// (DESIGN.md §13). Test/bench introspection.
  bool breaker_open(NodeId server) const;

 private:
  using Trace = std::shared_ptr<obs::OpTrace>;

  /// The protocol number the group policy routes `verb` to: p3/p4 for
  /// single-writer write/read, p5 for honest multi-writer, p6 for the §5.3
  /// Byzantine-client path. Returns e.g. "client.p6.write".
  std::string data_op_name(std::string_view verb) const;

  // Retry discipline (DESIGN.md §9): every operation is one retrying quorum
  // with one absolute deadline (now + config.op_timeout at op start). A
  // single driver, Rounds, runs every round of every protocol: it clamps the
  // round timeout to round_budget(), picks the round's targets, intercepts
  // misroutes and refusals, ends a round early once targets − refused <
  // min_useful, and on "retry" waits max(retry_backoff(), retry-after hint)
  // before a wider round. Protocols supply only the request, target rule,
  // min_useful, reply fold and a continuation that finishes or retries.
  // P2 is the same driver with one round.
  template <typename R>
  struct Op;
  struct QuorumSpec;
  template <typename R, typename State, typename Targets, typename Fold, typename Settle>
  struct Rounds;
  using ReadOp = std::shared_ptr<Op<Result<ReadOutput>>>;

  /// Opens an operation: its OpTrace named `name` (e.g. "client.p4.read"),
  /// its deadline (now + op_timeout) and its callback.
  template <typename R>
  std::shared_ptr<Op<R>> begin_op(std::string name, std::function<void(R)> done);
  /// Runs `op` as rounds of `spec`: round r contacts targets(r), feeds each
  /// useful reply to fold(State&, from, body) (true ends the round), then
  /// hands the driver to settle(), which calls finish(R) or retry(R).
  template <typename State, typename R, typename Targets, typename Fold, typename Settle>
  void retrying_quorum(std::shared_ptr<Op<R>> op, QuorumSpec spec, Targets targets, Fold fold,
                       Settle settle);
  /// Round r's escalated set: the first min(n, base + r·step) picks.
  std::vector<NodeId> escalated(std::size_t base, unsigned round) const;
  /// This round's quorum-call timeout: min(round_timeout, deadline - now);
  /// 0 when the deadline has already passed (the round must not start).
  SimDuration round_budget(SimTime deadline) const;
  /// Capped exponential backoff with seeded jitter before retrying after
  /// `round` failed (0-based). Consumes one rng draw.
  SimDuration retry_backoff(unsigned round);

  Timestamp next_timestamp(ItemId item, BytesView value_digest);
  void broadcast_stability(ItemId item, const Timestamp& ts, std::vector<Bytes> shares,
                           const obs::TraceContext& trace);
  /// P2's sweep: the newest verified meta per item from n-b servers, mapped to R by `finish`.
  template <typename R, typename Finish>
  void sweep_group(GroupId group, std::shared_ptr<Op<R>> op, std::string failure,
                   Finish finish);

  void read_single_writer(ItemId item, ReadOp op);
  /// Fig. 2 phase 2: fetch wanted[index / servers] from servers[index % servers],
  /// falling through servers, then candidates, then to `exhausted`.
  void fetch_candidate(ItemId item, ReadOp op,
                       std::shared_ptr<const std::vector<Timestamp>> wanted,
                       std::shared_ptr<const std::vector<NodeId>> servers, std::size_t index,
                       std::function<void()> exhausted);
  void read_multi_writer(ItemId item, ReadOp op);
  /// Decodes an accepted record and advances the context (Fig. 2).
  Result<ReadOutput> accept_read(const WriteRecord& record);

  /// kWrongShard interception: a misroute rejection ends the operation,
  /// stashing the attached ring for take_wrong_shard_ring().
  bool note_wrong_shard(net::MsgType type, BytesView resp_body);
  bool wrong_shard_pending() const { return !wrong_shard_ring_.empty(); }

  /// kOverloaded interception (DESIGN.md §13). On a refusal it counts
  /// `client.refused`, feeds the circuit breaker, verifies + clamps the
  /// retry-after hint, and returns true. Any other reply closes the
  /// sender's breaker (the server is answering again) and returns false.
  bool note_overloaded(NodeId from, net::MsgType type, BytesView resp_body);
  /// The largest clamped retry-after hint seen since the last call (or op
  /// start); consumed by the retry scheduling that honors it.
  SimDuration take_overload_hint();
  /// Picks the failure error for a quorum round: refusals dominate (the
  /// round failed because servers shed, not because they were silent).
  Error round_error(std::size_t refused, net::QuorumOutcome outcome) const;

  std::vector<NodeId> pick_servers(std::size_t count) const;
  const Bytes* writer_key(ClientId writer) const;
  /// §5.3 Byzantine-client multi-writer policy (P6).
  bool hardened() const;
  std::size_t write_set_size() const;
  /// The effective fault bound: estimator's f̂ when dynamic quorums are on,
  /// otherwise the static b.
  std::uint32_t effective_b() const;
  // Evidence feeds for the estimator (no-ops when it is off).
  void note_responded(NodeId server);
  void note_silent(const std::vector<NodeId>& targets,
                   const std::vector<NodeId>& responders);
  void note_forgery(NodeId server);

  net::RpcNode node_;
  ClientId client_id_;
  crypto::KeyPair keys_;
  StoreConfig config_;
  Options options_;
  Rng rng_;
  Context context_;
  bool connected_ = false;
  std::vector<NodeId> server_order_;
  std::optional<FaultEstimator> estimator_;
  // Fault-suspicion accounting, counted whether or not the estimator is on.
  obs::Counter& fault_silent_;
  obs::Counter& fault_forgery_;
  /// Operations abandoned because the whole-op deadline passed (typically a
  /// backoff sleep overshooting it); the round budget clamps to zero and
  /// the op fails with kTimeout instead of issuing a wrapped-around round.
  obs::Counter& deadline_exceeded_;
  /// kOverloaded refusals, counted separately from timeouts.
  obs::Counter& refused_;
  /// Breaker transitions to open (a drowning replica got demoted).
  obs::Counter& breaker_trips_;
  /// The ring bytes of the last kWrongShard rejection; cleared when a new
  /// operation begins and by take_wrong_shard_ring().
  Bytes wrong_shard_ring_;
  /// Per-server circuit breaker state (DESIGN.md §13): consecutive overload
  /// refusals, and — once past the threshold — the demotion deadline. After
  /// `open_until` the server re-enters normal picks (the half-open probe);
  /// strikes stay at the threshold, so one more refusal re-opens it
  /// immediately while one useful reply resets it.
  struct Breaker {
    unsigned strikes = 0;
    SimTime open_until = 0;
  };
  std::unordered_map<std::uint32_t, Breaker> breakers_;
  /// Largest clamped retry-after hint since op start; cleared by
  /// begin_op and take_overload_hint.
  SimDuration overload_hint_ = 0;
};

}  // namespace securestore::core
