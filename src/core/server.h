// SecureStoreServer: one of the n replicated servers S_1..S_n.
//
// Servers are deliberately *passive data repositories* (§1, §7): they store
// signed records and contexts, answer quorum requests, and disseminate
// updates via gossip. Consistency is the client's job. The only decisions a
// server makes are validations — signature checks, authorization checks,
// causal-hold release (§5.3) — so that "we limit the power entrusted to
// servers which is useful when they exhibit malicious behavior" (§3).
//
// Fault injection: the protected virtuals `accept_request` and
// `filter_response` let the faults library wrap every interaction of a
// compromised server (mute, stale, corrupt, equivocate) without the honest
// logic knowing.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/admission.h"
#include "core/auth.h"
#include "core/config.h"
#include "core/messages.h"
#include "crypto/keys.h"
#include "gossip/gossip.h"
#include "net/rpc.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "shard/hash_ring.h"
#include "storage/audit_log.h"
#include "storage/context_store.h"
#include "storage/engine.h"
#include "storage/hold_queue.h"
#include "storage/wal/wal.h"

namespace securestore::core {

class SecureStoreServer {
 public:
  /// Write-ahead logging knobs. Every accepted write/context/hold-release
  /// is appended, and each delivery batch's appends are committed (one
  /// fsync under kAlways) before any of its acks leave, so a crash between
  /// snapshots loses nothing an honest client was told succeeded.
  struct DurabilityOptions {
    /// Directory for WAL segments (created if missing).
    std::string wal_dir;
    /// Directory for the LSM engine's SSTables + manifest (DESIGN.md §12).
    /// Empty = `wal_dir + ".lsm"`. Ignored by the in-memory engine.
    std::string data_dir;
    storage::FsyncPolicy fsync = storage::FsyncPolicy::kAlways;
    std::size_t wal_segment_bytes = 1u << 20;
  };

  struct Options {
    gossip::GossipEngine::Config gossip;
    bool start_gossip = true;
    /// When set, read/write requests must carry a valid token signed by
    /// this authority key (§4's authorization assumption).
    std::optional<Bytes> authority_key;
    /// Durable operation: load state from this snapshot file at startup
    /// (if it exists) and re-save it every `snapshot_period` of transport
    /// time. Long-term safe keeping across restarts (§1). A corrupt or
    /// truncated snapshot is quarantined (renamed to `*.corrupt`), not
    /// fatal: the server starts fresh and recovers from the WAL.
    std::optional<std::string> snapshot_path;
    SimDuration snapshot_period = seconds(30);
    /// Write-ahead logging; recovery replays snapshot + WAL tail through
    /// the normal apply paths.
    std::optional<DurabilityOptions> durability;
    /// Policies registered before WAL replay, so recovered multi-writer CC
    /// records honor the same causal-hold rules they saw live.
    std::vector<GroupPolicy> group_policies;
    /// Sharded deployments (DESIGN.md §11): this server's shard id plus the
    /// boot ring. With a ring installed the server enforces ownership —
    /// group-scoped requests the ring maps to another shard are rejected
    /// with kWrongShard (the response body is the signed ring, so a stale
    /// client can refresh) — and gossip disseminates/installs newer rings
    /// signed by StoreConfig::ring_authority_key. Unset ring = unsharded;
    /// every group is served.
    std::uint32_t shard_id = 0;
    std::optional<shard::SignedRingState> ring;
    /// Appended verbatim to every metric name (e.g. "{shard=2}") so several
    /// replica groups sharing one registry stay distinguishable.
    std::string metric_suffix;
    /// Overload admission control (DESIGN.md §13): shed new client requests
    /// with kOverloaded when live pressure signals cross their watermarks.
    /// Quorum-critical traffic (gossip, stability) is never shed.
    AdmissionController::Options admission;
    /// Introspection endpoint (PROTOCOL.md §13): answers kIntrospect with
    /// the server's status sample, metrics exposition, or a recent-events
    /// dump. Unauthenticated by design (health must be askable when key
    /// distribution broke), so a token bucket on the transport clock caps
    /// what the concession costs; past the limit the server stays silent
    /// (a limited scraper sees a timeout, never a forged answer).
    struct IntrospectOptions {
      bool enabled = true;
      double rate_per_sec = 100;
      double burst = 50;
    };
    IntrospectOptions introspect;
  };

  SecureStoreServer(net::Transport& transport, NodeId id, StoreConfig config,
                    crypto::KeyPair keys, Options options, Rng rng);
  virtual ~SecureStoreServer();

  SecureStoreServer(const SecureStoreServer&) = delete;
  SecureStoreServer& operator=(const SecureStoreServer&) = delete;

  NodeId id() const { return node_.id(); }
  const StoreConfig& config() const { return config_; }

  /// Registers how a group's items behave; unknown groups default to
  /// single-writer MRC with honest clients.
  void set_group_policy(const GroupPolicy& policy);
  const GroupPolicy& group_policy(GroupId group) const;

  // Introspection for tests and benches. The concrete type depends on
  // StoreConfig::engine (DESIGN.md §12).
  storage::StorageEngine& store() { return *items_; }
  const storage::StorageEngine& store() const { return *items_; }
  std::size_t held_writes() const { return holds_.size(); }
  gossip::GossipEngine& gossip() { return *gossip_; }

  /// Durable state (records + contexts + audit chain + the WAL position it
  /// covers) as a checksummed snapshot blob.
  Bytes snapshot() const;
  /// Replays a snapshot into this (freshly constructed) server. Throws
  /// DecodeError on a malformed or tampered snapshot.
  void restore(BytesView snapshot_blob);
  /// Writes the snapshot to Options::snapshot_path now (no-op without one),
  /// then drops WAL segments the snapshot fully covers.
  void save_snapshot_now();

  /// WAL counters — nullptr when durability is off.
  const storage::WalStats* wal_stats() const {
    return wal_ != nullptr ? &wal_->stats() : nullptr;
  }
  /// The write-ahead log itself (tests/benches); nullptr when durability
  /// is off.
  storage::WriteAheadLog* wal() { return wal_.get(); }

  /// The tamper-evident log of every write this server accepted ([6]-style
  /// auditing; also served over the wire via kAuditRead).
  const storage::AuditLog& audit_log() const { return audit_; }

  /// Overload admission control (DESIGN.md §13); tests and benches inspect
  /// the latched state and shed counts here.
  const AdmissionController& admission() const { return admission_; }

  /// Stored client contexts (rebalance export, tests).
  const storage::ContextStore& contexts() const { return contexts_; }

  /// The status sample the introspection endpoint serves (PROTOCOL.md
  /// §13): this server's raw health signals at the current transport
  /// time. Also directly callable by in-process monitors and tests.
  obs::ServerSample introspect_status() const;

  // Sharding (DESIGN.md §11).
  /// The installed ring's version; 0 when unsharded.
  std::uint64_t ring_version() const { return ring_.has_value() ? ring_->ring.version : 0; }
  /// Installs a candidate ring: accepted only when strictly newer than the
  /// installed one (or none is installed), authority-signed, and
  /// structurally usable. The rebalance switch-over calls this directly;
  /// gossip arrivals funnel here too.
  bool install_ring(const shard::SignedRingState& candidate);
  /// Whether this server's shard owns `group` under the installed ring.
  /// Always true when unsharded.
  bool owns_group(GroupId group) const;

  // Rebalance handoff imports (DESIGN.md §11): full validation — records
  // pass the same record gate as client writes and gossip (settle_records),
  // contexts must carry a valid owner signature — but NO ownership gate, so
  // a destination shard can be seeded with groups the still-installed old
  // ring maps elsewhere. Returns false when validation rejects the input.
  bool import_record(const WriteRecord& record);
  bool import_context(const StoredContext& stored);

 protected:
  /// Fault hook: return false to silently ignore a request.
  virtual bool accept_request(NodeId from, net::MsgType type);

  /// Fault hook: runs before the honest handler. Return a value to replace
  /// honest processing entirely (the inner optional is the response to
  /// send, nullopt inner = stay silent). Return nullopt (outer) to proceed
  /// honestly. Lets a fault e.g. acknowledge a write it never stores.
  virtual std::optional<std::optional<std::pair<net::MsgType, Bytes>>> preempt_request(
      NodeId from, net::MsgType type, BytesView body);

  /// Fault hook: the honest response is offered before sending; a faulty
  /// subclass may mutate or suppress it (request body included so the fault
  /// can key its behavior on the item being asked about). Default passes
  /// through.
  virtual std::optional<std::pair<net::MsgType, Bytes>> filter_response(
      NodeId from, net::MsgType request_type, BytesView request_body,
      std::optional<std::pair<net::MsgType, Bytes>> honest);

  /// Fault hook: the WAL commit's fsync (default `wal.sync()`). A faulty
  /// subclass may stall it to model a slow disk; the stall is timed as
  /// commit latency like any real one.
  virtual void sync_wal(storage::WriteAheadLog& wal);

  const StoreConfig& config_ref() const { return config_; }

 private:
  /// A kWrite request as the batch gate left it: decoded once, with its
  /// verdict (token authorization, then settle_records) and its equal
  /// share of the gate's wall time, which its `server.verify` span reports.
  struct GatedWrite {
    WriteReq req;
    bool valid = false;
    std::uint64_t verify_us = 0;
  };

  /// One request of a batch: counters, fault hooks, admission, ownership,
  /// then the honest handler. `write` is the gated form of a decodable
  /// kWrite body (nullptr otherwise: an undecodable kWrite is dropped).
  std::optional<std::pair<net::MsgType, Bytes>> handle_request(NodeId from, net::MsgType type,
                                                               BytesView body,
                                                               const obs::TraceContext& trace,
                                                               const GatedWrite* write);
  /// The only request entry point (DESIGN.md §10): everything the transport
  /// had pending at one dispatch wakeup, a batch of one when nothing else
  /// was. The batch's client writes pass the record gate together, so their
  /// signatures are ONE Ed25519 batch verification; each request then runs
  /// handle_request in batch order.
  std::vector<std::optional<std::pair<net::MsgType, Bytes>>> handle_request_batch(
      std::vector<net::IncomingRequest>& batch);
  void handle_oneway(NodeId from, net::MsgType type, BytesView body);

  Bytes handle_context_read(const ContextReadReq& req);
  Bytes handle_context_write(const ContextWriteReq& req);
  Bytes handle_meta(const MetaReq& req);
  Bytes handle_read(const ReadReq& req);
  Bytes handle_write(const GatedWrite& write);
  Bytes handle_log_read(const LogReadReq& req);
  Bytes handle_reconstruct(const ReconstructReq& req);
  void handle_stability(const StabilityMsg& msg);

  /// The one record gate: every WriteRecord this server takes in — client
  /// writes, gossip, rebalance imports — is judged here. Per record, in
  /// order: writer key known, structure fits the group policy, value digest
  /// matches; the signatures of the records that pass are then checked as
  /// one Ed25519 batch. nullptr entries (rejected by a caller's filter in
  /// front) stay rejected. Returns verdicts, index-aligned.
  std::vector<bool> settle_records(std::span<const WriteRecord* const> records) const;

  /// Policy conformance and timestamp shape: settle_records' structure
  /// check.
  bool validate_record_structure(const WriteRecord& record) const;

  /// Gossip apply for one kGossipUpdates message: the scattered and
  /// shard-ownership filters, settle_records, then apply_with_holds for the
  /// accepted records. Returns accepted flags, index-aligned.
  std::vector<bool> apply_gossip_batch(
      const std::vector<std::pair<WriteRecord, obs::TraceContext>>& records);

  /// Applies a validated record, honoring §5.3 causal holds, then releases
  /// any transitively unblocked held writes. Returns true if the record
  /// became visible (false: parked in the hold queue).
  bool apply_with_holds(const WriteRecord& record);

  bool authorized(const std::optional<AuthToken>& token, ClientId client, GroupId group,
                  Rights needed) const;

  /// Admission gate (DESIGN.md §13): samples live pressure and, when the
  /// controller says shed AND `type` is a client data request, returns the
  /// kOverloaded refusal to send (signed retry-after hint). nullopt =
  /// admitted. Never sheds quorum-critical traffic.
  std::optional<std::pair<net::MsgType, Bytes>> maybe_shed(net::MsgType type);
  /// The kOverloaded response body for the controller's current hint,
  /// memoized per distinct (quantized) retry-after value so shedding costs
  /// no Ed25519 signing on the hot path.
  const Bytes& overloaded_body(std::uint32_t retry_after_us);

  /// kIntrospect handler (PROTOCOL.md §13): token-bucket admission, then
  /// renders the requested format. nullopt = rate-limited or disabled
  /// (silent; the scraper sees a timeout).
  std::optional<std::pair<net::MsgType, Bytes>> handle_introspect(BytesView body);

  /// Gossip ring arrivals: decode + install_ring (malformed counts as
  /// rejected).
  void install_ring_bytes(NodeId from, BytesView body);
  /// The group a request is keyed by, for the ownership check; nullopt for
  /// requests that are not group-scoped (audit reads) or malformed bodies
  /// (the dispatch path drops those identically either way).
  static std::optional<GroupId> request_group(net::MsgType type, BytesView body);

  const Bytes* client_key(ClientId client) const;

  /// Builds the configured storage engine (DESIGN.md §12). Throws
  /// std::invalid_argument when kLsm is requested without durability.
  std::unique_ptr<storage::StorageEngine> make_engine();

  /// Boot-time durability: load (or quarantine) the snapshot file, open
  /// the WAL and replay its tail through the apply paths.
  void boot_from_disk();
  void replay_wal_entry(storage::WalEntryType type, BytesView payload);
  /// Appends to the WAL unless durability is off or we are replaying.
  /// Returns the entry's LSN (0 when skipped) and advances the engine's
  /// WAL watermark — clamped below `hold_lsn_floor_` while writes are
  /// parked in the hold queue, since those are WAL-only until released.
  std::uint64_t wal_append(storage::WalEntryType type, BytesView payload);
  std::uint64_t wal_append_record(storage::WalEntryType type, const WriteRecord& record);
  /// The commit point (DESIGN.md §7): syncs every entry appended since the
  /// last commit, timing it into `server.wal.sync_us`, the introspection
  /// p99 and admission control, with one `server.wal.commit` span per
  /// sampled trace that appended. Runs once per delivery batch (the rpc
  /// commit hook) and wherever the server appends outside one.
  void commit_wal();
  /// Observes the wall time since `start_us` into `server.boot.<phase>_us`.
  void observe_boot_phase(const std::string& phase, std::uint64_t start_us);

  /// The WAL position the next snapshot blob may claim as covered: the last
  /// appended LSN, clamped by the hold floor so a crash replays held-but-
  /// unreleased writes (they live only in the WAL).
  std::uint64_t covered_lsn_target() const;

  /// Advances the engine's WAL watermark to `lsn`, clamped by the hold
  /// floor. The engine stamps this into its next flushed SST/manifest, so
  /// the clamp is what keeps held writes replayable after a crash.
  void note_engine_watermark(std::uint64_t lsn);

  net::RpcNode node_;
  StoreConfig config_;
  crypto::KeyPair keys_;
  Options options_;
  /// Distributed-trace hooks (DESIGN.md §8): the deployment's event log and
  /// the sanitized context of the request currently being handled. Dispatch
  /// is single-threaded, so a plain member carries the context from the rpc
  /// layer to spans emitted deep inside the apply/WAL paths.
  obs::EventLog& events_;
  obs::TraceContext active_trace_{};
  /// Sampled traces that appended to the WAL since the last commit; each
  /// gets a `server.wal.commit` span when the commit runs.
  std::vector<obs::TraceContext> commit_traces_;
  std::unique_ptr<storage::StorageEngine> items_;
  storage::ContextStore contexts_;
  storage::HoldQueue holds_;
  storage::AuditLog audit_;
  std::unordered_map<GroupId, GroupPolicy> policies_;
  GroupPolicy default_policy_;
  std::optional<TokenVerifier> token_verifier_;
  /// Installed ring state: the signed original (re-served to stale clients
  /// and gossip peers, pre-serialized in ring_bytes_) plus the lookup
  /// structure. All three change together in install_ring.
  std::optional<shard::SignedRingState> ring_;
  Bytes ring_bytes_;
  std::optional<shard::HashRing> hash_ring_;
  std::unique_ptr<gossip::GossipEngine> gossip_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  /// WAL position covered by the last snapshot restored or saved; replay
  /// starts after it.
  std::uint64_t wal_covered_lsn_ = 0;
  /// Set while the hold queue is non-empty: one less than the LSN of the
  /// first record parked since the queue was last empty. Held writes exist
  /// only in the WAL, so neither snapshots nor the LSM manifest may claim
  /// coverage at or past their entries.
  std::optional<std::uint64_t> hold_lsn_floor_;
  /// Admission control state (DESIGN.md §13) plus the signed-refusal cache
  /// keyed by quantized retry-after value.
  AdmissionController admission_;
  std::unordered_map<std::uint32_t, Bytes> overload_bodies_;
  /// Introspection state (PROTOCOL.md §13). The local WAL-commit histogram
  /// duplicates `wal_sync_us_` observations because the registry metric
  /// is deployment-wide (all servers share the suffix-qualified name) —
  /// per-server p99 needs per-server buckets. Request/shed counts are
  /// local for the same reason: the watchdog differences *this* server's
  /// counters, not the deployment aggregate.
  SimTime boot_at_ = 0;
  obs::Histogram local_wal_commit_us_;
  std::uint64_t requests_dispatched_ = 0;
  std::uint64_t requests_shed_ = 0;
  double introspect_tokens_ = 0;
  SimTime introspect_refill_at_ = 0;
  bool wal_replaying_ = false;
  /// LSN of the WAL entry currently being replayed (boot only); lets the
  /// hold floor anchor correctly when replay re-parks a held write.
  std::uint64_t replay_lsn_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);  // guards timers

  // Metrics (handles into the transport's registry, resolved once).
  // Request-mix counters, keyed by MsgType; unknown types fall back to
  // req_other_. Built in the constructor, read-only afterwards.
  std::unordered_map<std::uint16_t, obs::Counter*> req_counters_;
  obs::Counter& req_other_;
  obs::Counter& equivocations_;
  obs::Gauge& hold_depth_;  // per-server: depth does not aggregate across ids
  obs::Histogram& apply_us_;
  obs::Histogram& wal_append_us_;
  obs::Histogram& wal_sync_us_;
  /// Requests per dispatch wakeup — how much batching the hot path gets.
  obs::Histogram& batch_size_;
  /// Requests refused by admission control (DESIGN.md §13).
  obs::Counter& shed_;
  /// Introspect requests silently dropped by the rate limit (§13).
  obs::Counter& introspect_limited_;
  // Sharding counters (DESIGN.md §8 catalog, shard.* family).
  obs::Counter& wrong_shard_;     // misrouted requests rejected
  obs::Counter& ring_installed_;  // ring updates accepted
  obs::Counter& ring_rejected_;   // ring updates refused (signature/shape)
};

}  // namespace securestore::core
