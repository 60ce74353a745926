#include "core/server.h"

#include <chrono>
#include <cstdio>
#include <filesystem>

#include <algorithm>
#include <limits>

#include "crypto/ed25519_batch.h"
#include "net/introspect.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "storage/item_store.h"
#include "storage/lsm/lsm_store.h"
#include "storage/snapshot.h"

namespace securestore::core {

SecureStoreServer::SecureStoreServer(net::Transport& transport, NodeId id, StoreConfig config,
                                     crypto::KeyPair keys, Options options, Rng rng)
    : node_(transport, id),
      config_(std::move(config)),
      keys_(std::move(keys)),
      options_(std::move(options)),
      events_(transport.events()),
      admission_(options_.admission),
      req_other_(transport.registry().counter("server.req.other" + options_.metric_suffix)),
      equivocations_(
          transport.registry().counter("server.equivocations" + options_.metric_suffix)),
      hold_depth_(transport.registry().gauge("server." + std::to_string(id.value) +
                                             ".hold_queue.depth" + options_.metric_suffix)),
      apply_us_(transport.registry().histogram("server.apply_us" + options_.metric_suffix)),
      wal_append_us_(
          transport.registry().histogram("server.wal.append_us" + options_.metric_suffix)),
      wal_sync_us_(
          transport.registry().histogram("server.wal.sync_us" + options_.metric_suffix)),
      batch_size_(transport.registry().histogram("server.batch_size" + options_.metric_suffix,
                                                 {1, 2, 4, 8, 16, 32, 64})),
      shed_(transport.registry().counter("server.shed" + options_.metric_suffix)),
      introspect_limited_(transport.registry().counter("server.introspect_limited" +
                                                       options_.metric_suffix)),
      wrong_shard_(transport.registry().counter("shard.wrong_shard" + options_.metric_suffix)),
      ring_installed_(
          transport.registry().counter("shard.ring_installed" + options_.metric_suffix)),
      ring_rejected_(
          transport.registry().counter("shard.ring_rejected" + options_.metric_suffix)) {
  config_.validate();
  boot_at_ = transport.now();
  // Boot phases are timed (server.boot.*) so a live cluster can say where
  // a reboot's time goes: engine open, snapshot + audit chain, WAL replay.
  const std::uint64_t engine_start = obs::wall_now_us();
  items_ = make_engine();
  observe_boot_phase("engine", engine_start);
  introspect_tokens_ = options_.introspect.burst;
  introspect_refill_at_ = boot_at_;
  // Request-mix counters: one per request type this server answers, plus
  // the gossip/stability oneways.
  obs::Registry& registry = transport.registry();
  const std::pair<net::MsgType, const char*> kReqNames[] = {
      {net::MsgType::kContextRead, "context_read"},
      {net::MsgType::kContextWrite, "context_write"},
      {net::MsgType::kMetaRequest, "meta"},
      {net::MsgType::kRead, "read"},
      {net::MsgType::kWrite, "write"},
      {net::MsgType::kLogRead, "log_read"},
      {net::MsgType::kReconstruct, "reconstruct"},
      {net::MsgType::kAuditRead, "audit_read"},
      {net::MsgType::kGossipDigest, "gossip_digest"},
      {net::MsgType::kGossipUpdates, "gossip_updates"},
      {net::MsgType::kGossipRequest, "gossip_request"},
      {net::MsgType::kGossipRing, "gossip_ring"},
      {net::MsgType::kStability, "stability"},
      {net::MsgType::kIntrospect, "introspect"},
  };
  for (const auto& [type, name] : kReqNames) {
    req_counters_[static_cast<std::uint16_t>(type)] =
        &registry.counter(std::string("server.req.") + name + options_.metric_suffix);
  }
  if (options_.authority_key.has_value()) {
    token_verifier_.emplace(*options_.authority_key);
  }
  // Before any recovery: replayed records must see the same policies (hold
  // rules, models) they were accepted under.
  for (const GroupPolicy& policy : options_.group_policies) set_group_policy(policy);

  // The boot ring is operator-provided but held to the same bar as gossiped
  // ones: a misconfigured shard must fail loudly, not silently serve
  // everything.
  if (options_.ring.has_value() && !install_ring(*options_.ring)) {
    throw std::invalid_argument("server: boot ring rejected (signature or shape)");
  }

  gossip_ = std::make_unique<gossip::GossipEngine>(
      node_, *items_, config_.servers, options_.gossip, std::move(rng),
      [this](const std::vector<std::pair<WriteRecord, obs::TraceContext>>& records,
             NodeId /*from*/) { return apply_gossip_batch(records); });

  // Ring dissemination rides gossip: offer our installed ring each tick and
  // consider any ring a peer offers (install_ring enforces signature +
  // version, so a Byzantine peer can neither forge nor roll back).
  gossip_->set_ring_hooks([this] { return ring_bytes_; },
                          [this](NodeId from, BytesView body) { install_ring_bytes(from, body); });

  // Every request reaches the server here: all requests pending at one
  // dispatch wakeup in a single call (a batch of one on the simulator).
  node_.set_batch_request_handler([this](std::vector<net::IncomingRequest>& batch) {
    return handle_request_batch(batch);
  });
  node_.set_oneway_handler([this](NodeId from, net::MsgType type, BytesView body) {
    handle_oneway(from, type, body);
  });
  // Group commit (DESIGN.md §7): one WAL sync per delivered batch, after
  // every handler ran and before any response leaves.
  node_.set_commit_hook([this] { commit_wal(); });

  if (options_.start_gossip) gossip_->start();

  boot_from_disk();

  if (options_.snapshot_path.has_value()) {
    // Periodic persistence.
    const auto schedule_save = [this](auto&& self) -> void {
      node_.transport().schedule(
          options_.snapshot_period, [this, alive = alive_, self]() {
            if (!*alive) return;
            save_snapshot_now();
            self(self);
          });
    };
    schedule_save(schedule_save);
  }
}

void SecureStoreServer::observe_boot_phase(const std::string& phase, std::uint64_t start_us) {
  node_.transport()
      .registry()
      .histogram("server.boot." + phase + "_us" + options_.metric_suffix)
      .observe(static_cast<double>(obs::wall_now_us() - start_us));
}

std::unique_ptr<storage::StorageEngine> SecureStoreServer::make_engine() {
  if (config_.engine.kind == StorageEngineKind::kMemory) {
    return std::make_unique<storage::ItemStore>(config_.max_log_entries);
  }
  // kLsm: records live on disk, so the engine is only meaningful with a
  // durability directory to live in.
  if (!options_.durability.has_value()) {
    throw std::invalid_argument(
        "server: the LSM storage engine requires DurabilityOptions (WAL + data dir)");
  }
  storage::lsm::LsmStore::Options lsm;
  lsm.dir = options_.durability->data_dir.empty() ? options_.durability->wal_dir + ".lsm"
                                                  : options_.durability->data_dir;
  lsm.max_log_entries = config_.max_log_entries;
  lsm.memtable_budget_bytes = config_.engine.memtable_budget_bytes;
  lsm.l0_compact_threshold = config_.engine.l0_compact_threshold;
  lsm.sst_target_bytes = config_.engine.sst_target_bytes;
  lsm.registry = &node_.transport().registry();
  lsm.metric_prefix = "server." + std::to_string(node_.id().value) + ".";
  lsm.metric_suffix = options_.metric_suffix;
  return std::make_unique<storage::lsm::LsmStore>(std::move(lsm));
}

void SecureStoreServer::boot_from_disk() {
  if (options_.snapshot_path.has_value() &&
      std::filesystem::exists(*options_.snapshot_path)) {
    const std::uint64_t snapshot_start = obs::wall_now_us();
    try {
      restore(storage::load_snapshot_file(*options_.snapshot_path));
    } catch (const std::exception& error) {
      // A corrupt/truncated snapshot must not kill the server (it may be
      // the only replica holding a quorum's worth of data in its WAL).
      // Quarantine the file for forensics, reset any partially restored
      // state, and start from scratch + WAL replay.
      const std::string& path = *options_.snapshot_path;
      const std::string quarantine = path + ".corrupt";
      std::remove(quarantine.c_str());
      std::rename(path.c_str(), quarantine.c_str());
      std::fprintf(stderr,
                   "securestore: server %u: quarantined corrupt snapshot %s (%s); "
                   "starting fresh\n",
                   node_.id().value, path.c_str(), error.what());
      // A persistent engine's records never lived in the blob — keep them;
      // only the blob-carried state resets.
      if (!items_->persistent()) items_ = make_engine();
      contexts_ = storage::ContextStore();
      audit_ = storage::AuditLog();
      wal_covered_lsn_ = 0;
    }
    observe_boot_phase("snapshot", snapshot_start);
  }
  if (options_.durability.has_value()) {
    const std::uint64_t wal_start = obs::wall_now_us();
    storage::WalOptions wal_options;
    wal_options.dir = options_.durability->wal_dir;
    wal_options.fsync = options_.durability->fsync;
    wal_options.segment_bytes = options_.durability->wal_segment_bytes;
    // A persistent engine may be behind OR ahead of the blob (e.g. a
    // quarantined SST reports durable_lsn 0; a budget-triggered flush runs
    // between snapshots). Replay from the older coverage — re-applied
    // entries land as kDuplicate. Opening the log replays it in the same
    // pass that CRC-checks it.
    std::uint64_t replay_from = wal_covered_lsn_;
    if (items_->persistent()) replay_from = std::min(replay_from, items_->durable_lsn());
    wal_replaying_ = true;
    wal_ = std::make_unique<storage::WriteAheadLog>(
        std::move(wal_options), replay_from,
        [this](std::uint64_t lsn, storage::WalEntryType type, BytesView payload) {
          replay_lsn_ = lsn;
          replay_wal_entry(type, payload);
        });
    wal_replaying_ = false;
    // A fresh/behind WAL must never reuse LSNs the snapshot already covers.
    wal_->reserve_through(std::max(wal_covered_lsn_, items_->durable_lsn()));
    // Everything replayed is applied: let the engine's next flush cover it.
    note_engine_watermark(wal_->last_lsn());
    observe_boot_phase("wal", wal_start);
  }
}

void SecureStoreServer::replay_wal_entry(storage::WalEntryType type, BytesView payload) {
  try {
    Reader r(payload);
    switch (type) {
      case storage::WalEntryType::kWrite: {
        const WriteRecord record = WriteRecord::decode(r);
        r.expect_end();
        // Through the full apply path: ordering, equivocation flags, log
        // bounds and causal holds are re-established, not trusted from
        // disk. Holds release exactly as they did live because entries
        // replay in arrival order.
        apply_with_holds(record);
        break;
      }
      case storage::WalEntryType::kRelease: {
        const WriteRecord record = WriteRecord::decode(r);
        r.expect_end();
        // Usually a duplicate of an already-replayed kWrite whose release
        // re-derived; applying is idempotent either way.
        if (items_->apply(record) != storage::ApplyResult::kDuplicate) {
          audit_.append(record, node_.transport().now());
        }
        break;
      }
      case storage::WalEntryType::kContext: {
        const StoredContext stored = StoredContext::decode(r);
        r.expect_end();
        contexts_.apply(stored);
        break;
      }
      default:
        break;  // unknown entry type: forward compatibility, skip
    }
  } catch (const DecodeError&) {
    // CRC-valid but undecodable: skip this entry, keep replaying.
  }
}

std::uint64_t SecureStoreServer::wal_append(storage::WalEntryType type, BytesView payload) {
  if (wal_ == nullptr || wal_replaying_) return 0;
  // WAL latency is always wall time: disk I/O is real even when the rest of
  // the deployment runs on the simulator's virtual clock.
  const std::uint64_t start = obs::wall_now_us();
  const std::uint64_t lsn = wal_->append(type, payload);
  const std::uint64_t elapsed = obs::wall_now_us() - start;
  wal_append_us_.observe(static_cast<double>(elapsed));
  if (events_.want(active_trace_)) {
    events_.span(node_.id().value, active_trace_, "server.wal.append", "server",
                 static_cast<std::uint64_t>(node_.transport().now()), elapsed);
    if (std::find(commit_traces_.begin(), commit_traces_.end(), active_trace_) ==
        commit_traces_.end()) {
      commit_traces_.push_back(active_trace_);
    }
  }
  note_engine_watermark(lsn);
  return lsn;
}

void SecureStoreServer::commit_wal() {
  if (wal_ == nullptr || !wal_->has_unsynced()) return;
  const std::uint64_t start = obs::wall_now_us();
  sync_wal(*wal_);
  const std::uint64_t elapsed = obs::wall_now_us() - start;
  // The commit holds the fsync, so a slow disk shows here, not in the
  // append: it feeds the sync histogram, the introspection p99 and
  // admission control.
  wal_sync_us_.observe(static_cast<double>(elapsed));
  local_wal_commit_us_.observe(static_cast<double>(elapsed));
  admission_.note_wal_commit(static_cast<double>(elapsed));
  const auto ts = static_cast<std::uint64_t>(node_.transport().now());
  for (const obs::TraceContext& trace : commit_traces_) {
    events_.span(node_.id().value, trace, "server.wal.commit", "server", ts, elapsed);
  }
  commit_traces_.clear();
}

void SecureStoreServer::sync_wal(storage::WriteAheadLog& wal) { wal.sync(); }

void SecureStoreServer::note_engine_watermark(std::uint64_t lsn) {
  if (hold_lsn_floor_.has_value()) lsn = std::min(lsn, *hold_lsn_floor_);
  items_->note_wal_lsn(lsn);
}

std::uint64_t SecureStoreServer::covered_lsn_target() const {
  std::uint64_t covered = wal_ != nullptr ? wal_->last_lsn() : wal_covered_lsn_;
  if (hold_lsn_floor_.has_value()) covered = std::min(covered, *hold_lsn_floor_);
  return covered;
}

std::uint64_t SecureStoreServer::wal_append_record(storage::WalEntryType type,
                                                   const WriteRecord& record) {
  if (wal_ == nullptr || wal_replaying_) return 0;
  Writer w;
  record.encode(w);
  return wal_append(type, w.data());
}

SecureStoreServer::~SecureStoreServer() { *alive_ = false; }

Bytes SecureStoreServer::snapshot() const {
  // Stores plus the audit chain: a reboot must not let a server shed its
  // own history (the chain is the tamper evidence auditors rely on).
  // A persistent engine keeps its records in its own files (SSTables +
  // manifest); the blob then carries only contexts and metadata.
  Writer w;
  w.bytes(storage::make_snapshot(*items_, contexts_, /*include_records=*/!items_->persistent()));
  w.bytes(audit_.serialize());
  // The WAL position this snapshot covers: a booting server replays only
  // entries after it. Clamped by the hold floor — held writes live only in
  // the WAL, so the blob must not claim coverage past them.
  w.u64(covered_lsn_target());
  return w.take();
}

void SecureStoreServer::restore(BytesView snapshot_blob) {
  Reader r(snapshot_blob);
  const Bytes stores = r.bytes();
  const Bytes audit = r.bytes();
  const std::uint64_t covered = r.u64();
  r.expect_end();
  storage::restore_snapshot(stores, *items_, contexts_);
  storage::AuditLog restored = storage::AuditLog::deserialize(audit);
  if (!restored.verify()) throw DecodeError("server snapshot: audit chain broken");
  audit_ = std::move(restored);
  wal_covered_lsn_ = covered;
}

void SecureStoreServer::save_snapshot_now() {
  if (!options_.snapshot_path.has_value()) return;
  // Flush-before-truncate (DESIGN.md §12): a persistent engine must have
  // every record the blob's covered LSN implies sitting durably in its own
  // files before any WAL segment is dropped. flush() returns the LSN the
  // engine's manifest now covers; truncation stays below BOTH coverages.
  std::uint64_t engine_covered = std::numeric_limits<std::uint64_t>::max();
  if (items_->persistent()) {
    engine_covered = items_->flush();
    items_->checkpoint();
  }
  storage::save_snapshot_file(*options_.snapshot_path, snapshot());
  if (wal_ != nullptr) {
    // Everything up to here is durable in the snapshot (the file and its
    // directory are fsynced) and in the committed WAL: dead segments can go.
    commit_wal();
    wal_covered_lsn_ = std::min(covered_lsn_target(), engine_covered);
    wal_->truncate_up_to(wal_covered_lsn_);
  }
}

void SecureStoreServer::set_group_policy(const GroupPolicy& policy) {
  policies_[policy.group] = policy;
}

const GroupPolicy& SecureStoreServer::group_policy(GroupId group) const {
  const auto it = policies_.find(group);
  return it != policies_.end() ? it->second : default_policy_;
}

bool SecureStoreServer::accept_request(NodeId /*from*/, net::MsgType /*type*/) { return true; }

std::optional<std::optional<std::pair<net::MsgType, Bytes>>> SecureStoreServer::preempt_request(
    NodeId /*from*/, net::MsgType /*type*/, BytesView /*body*/) {
  return std::nullopt;
}

std::optional<std::pair<net::MsgType, Bytes>> SecureStoreServer::filter_response(
    NodeId /*from*/, net::MsgType /*request_type*/, BytesView /*request_body*/,
    std::optional<std::pair<net::MsgType, Bytes>> honest) {
  return honest;
}

const Bytes* SecureStoreServer::client_key(ClientId client) const {
  const auto it = config_.client_keys.find(client.value);
  return it != config_.client_keys.end() ? &it->second : nullptr;
}

bool SecureStoreServer::authorized(const std::optional<AuthToken>& token, ClientId client,
                                   GroupId group, Rights needed) const {
  if (!token_verifier_.has_value()) return true;  // authorization disabled
  return token_verifier_->check(token, client, group, needed, node_.transport().now());
}

bool SecureStoreServer::owns_group(GroupId group) const {
  return !hash_ring_.has_value() || hash_ring_->shard_for(group) == options_.shard_id;
}

bool SecureStoreServer::install_ring(const shard::SignedRingState& candidate) {
  // Steady-state gossip re-offers the same version constantly; that is not
  // a rejection worth counting.
  if (ring_.has_value() && candidate.ring.version <= ring_->ring.version) return false;
  if (!candidate.verify(config_.ring_authority_key)) {
    // Also the unsharded path: an empty authority key verifies nothing, so
    // deployments without sharding ignore ring traffic wholesale.
    ring_rejected_.inc();
    return false;
  }
  try {
    hash_ring_.emplace(candidate.ring);
  } catch (const std::invalid_argument&) {
    ring_rejected_.inc();  // signed but structurally unusable
    return false;
  }
  ring_ = candidate;
  ring_bytes_ = ring_->serialize();
  ring_installed_.inc();
  return true;
}

void SecureStoreServer::install_ring_bytes(NodeId /*from*/, BytesView body) {
  try {
    install_ring(shard::SignedRingState::deserialize(body));
  } catch (const DecodeError&) {
    ring_rejected_.inc();
  }
}

std::optional<GroupId> SecureStoreServer::request_group(net::MsgType type, BytesView body) {
  // A second decode of the body on the sharded path only; the dispatch
  // switch re-decodes (or, for kWrite, uses the batch gate's decode)
  // because fault hooks sit between here and there.
  try {
    switch (type) {
      case net::MsgType::kContextRead:
        return ContextReadReq::deserialize(body).group;
      case net::MsgType::kContextWrite:
        return ContextWriteReq::deserialize(body).stored.context.group();
      case net::MsgType::kMetaRequest:
        return MetaReq::deserialize(body).group;
      case net::MsgType::kRead:
        return ReadReq::deserialize(body).group;
      case net::MsgType::kWrite:
        return WriteReq::deserialize(body).record.group;
      case net::MsgType::kLogRead:
        return LogReadReq::deserialize(body).group;
      case net::MsgType::kReconstruct:
        return ReconstructReq::deserialize(body).group;
      default:
        return std::nullopt;  // not group-scoped (audit reads, gossip, ...)
    }
  } catch (const DecodeError&) {
    return std::nullopt;  // malformed: the dispatch path drops it anyway
  }
}

bool SecureStoreServer::import_record(const WriteRecord& record) {
  // No ownership check: the import runs before the new ring is installed.
  if (record.flags & kScattered) return false;
  const WriteRecord* const gated[] = {&record};
  if (!settle_records(gated).front()) return false;
  apply_with_holds(record);
  commit_wal();  // outside any delivery batch: commit for ourselves
  return true;
}

bool SecureStoreServer::import_context(const StoredContext& stored) {
  const Bytes* key = client_key(stored.owner);
  if (key == nullptr || !stored.verify(*key)) return false;
  if (contexts_.apply(stored)) {
    Writer w;
    stored.encode(w);
    wal_append(storage::WalEntryType::kContext, w.data());
    commit_wal();
  }
  return true;
}

namespace {

/// The shed-able set: client data requests, each of which the client retries
/// under backoff. Everything quorum-critical — gossip anti-entropy,
/// stability certificates (oneways that never reach handle_request) and
/// responses to rounds already admitted — stays outside this set, so
/// shedding degrades throughput, never safety.
bool sheddable_request(net::MsgType type) {
  switch (type) {
    case net::MsgType::kContextRead:
    case net::MsgType::kContextWrite:
    case net::MsgType::kMetaRequest:
    case net::MsgType::kRead:
    case net::MsgType::kWrite:
    case net::MsgType::kLogRead:
    case net::MsgType::kReconstruct:
    case net::MsgType::kAuditRead:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::optional<std::pair<net::MsgType, Bytes>> SecureStoreServer::maybe_shed(net::MsgType type) {
  if (!admission_.options().enabled || !sheddable_request(type)) return std::nullopt;
  AdmissionSignals signals;
  signals.net_backlog = node_.transport().backlog(node_.id());
  signals.wal_append_ewma_us = admission_.wal_append_ewma_us();
  signals.engine = items_->pressure();
  if (!admission_.should_shed(signals)) return std::nullopt;
  shed_.inc();
  requests_shed_ += 1;
  // The refused request never reaches decode/crypto/WAL, so its service
  // slot goes back to the transport's capacity model: a refusal costs O(1),
  // which is what lets goodput plateau instead of collapsing past
  // saturation (EXPERIMENTS.md E18).
  node_.transport().refund_service(node_.id());
  if (events_.enabled()) {
    events_.instant(node_.id().value, 0, active_trace_, "server.shed", "server",
                    static_cast<std::uint64_t>(node_.transport().now()));
  }
  return {{net::MsgType::kOverloaded, overloaded_body(admission_.retry_after_us())}};
}

obs::ServerSample SecureStoreServer::introspect_status() const {
  const SimTime now = node_.transport().now();
  obs::ServerSample s;
  s.node = node_.id().value;
  s.shard = options_.shard_id;
  s.now_us = now;
  s.uptime_us = now - boot_at_;
  s.ring_version = ring_version();
  s.gossip_ticks = gossip_->ticks();
  // Staleness is measured from boot until the first tick lands, so a
  // gossip engine that never starts reads as increasingly stale instead of
  // eternally fresh.
  const SimTime last_activity = std::max<SimTime>(gossip_->last_tick_at(), boot_at_);
  s.gossip_idle_us = now - last_activity;
  s.wal_append_ewma_us = admission_.wal_append_ewma_us();
  s.wal_append_p99_us = local_wal_commit_us_.snapshot().p99();
  const storage::StorageEngine::Pressure pressure = items_->pressure();
  s.compaction_lag = pressure.compaction_lag;
  s.memtable_bytes = pressure.memtable_bytes;
  s.requests = requests_dispatched_;
  s.shed = requests_shed_;
  s.net_backlog = node_.transport().backlog(node_.id());
  s.hold_depth = holds_.size();
  s.overloaded = admission_.overloaded();
  return s;
}

std::optional<std::pair<net::MsgType, Bytes>> SecureStoreServer::handle_introspect(
    BytesView body) {
  const Options::IntrospectOptions& opts = options_.introspect;
  if (!opts.enabled) return std::nullopt;
  // Token bucket on the transport clock, all requesters pooled: the
  // endpoint is unauthenticated, so per-peer buckets would just hand an
  // attacker more buckets.
  const SimTime now = node_.transport().now();
  introspect_tokens_ = std::min(
      opts.burst, introspect_tokens_ + to_seconds(now - introspect_refill_at_) *
                                           opts.rate_per_sec);
  introspect_refill_at_ = now;
  if (introspect_tokens_ < 1.0) {
    introspect_limited_.inc();
    return std::nullopt;  // silence, not an error a flooder can amplify
  }
  introspect_tokens_ -= 1.0;

  net::IntrospectRequest req;
  try {
    Reader r(body);
    req = net::IntrospectRequest::decode(r);
  } catch (const DecodeError&) {
    return std::nullopt;
  }

  net::IntrospectResponse resp;
  resp.format = req.format;
  switch (req.format) {
    case net::IntrospectFormat::kStatus:
      resp.sample = introspect_status();
      break;
    case net::IntrospectFormat::kPrometheus:
      resp.text = obs::to_prometheus(node_.transport().registry().snapshot());
      break;
    case net::IntrospectFormat::kJson:
      resp.text = obs::to_json(node_.transport().registry().snapshot(), "introspect");
      break;
    case net::IntrospectFormat::kEvents: {
      constexpr std::uint32_t kMaxEventsDump = 4096;
      resp.text =
          obs::to_chrome_trace(events_.recent(std::min(req.max_events, kMaxEventsDump)));
      break;
    }
  }
  Writer w;
  resp.encode(w);
  return {{net::MsgType::kAck, w.take()}};
}

const Bytes& SecureStoreServer::overloaded_body(std::uint32_t retry_after_us) {
  auto it = overload_bodies_.find(retry_after_us);
  if (it == overload_bodies_.end()) {
    OverloadedResp resp;
    resp.retry_after_us = retry_after_us;
    resp.signature = crypto::meter_sign(keys_, overload_statement(retry_after_us));
    it = overload_bodies_.emplace(retry_after_us, resp.serialize()).first;
  }
  return it->second;
}

std::optional<std::pair<net::MsgType, Bytes>> SecureStoreServer::handle_request(
    NodeId from, net::MsgType type, BytesView body, const obs::TraceContext& trace,
    const GatedWrite* write) {
  // Request mix is counted before the fault hooks: the metric reflects what
  // arrived, not what a muted server deigned to process.
  const auto counter = req_counters_.find(static_cast<std::uint16_t>(type));
  (counter != req_counters_.end() ? *counter->second : req_other_).inc();
  requests_dispatched_ += 1;
  active_trace_ = trace;
  if (!accept_request(from, type)) return std::nullopt;
  if (auto preempted = preempt_request(from, type, body); preempted.has_value()) {
    return std::move(*preempted);
  }

  // Admission control (DESIGN.md §13): refuse new client work while live
  // pressure is past the watermarks, before any decode/crypto/WAL cost is
  // paid — shedding here, before state mutation, is what makes "a shed
  // request is never acked" structural rather than probabilistic.
  if (auto refusal = maybe_shed(type); refusal.has_value()) return refusal;

  // Sharded: group-scoped requests for a shard this server does not own are
  // rejected with the signed ring attached, so a stale client can refresh
  // its router and re-route (DESIGN.md §11). Checked before the honest
  // handlers — a misroute must fail loudly, not masquerade as kNotFound.
  if (hash_ring_.has_value()) {
    if (const std::optional<GroupId> group = request_group(type, body);
        group.has_value() && !owns_group(*group)) {
      wrong_shard_.inc();
      return {{net::MsgType::kWrongShard, ring_bytes_}};
    }
  }

  std::optional<std::pair<net::MsgType, Bytes>> honest;
  try {
    switch (type) {
      case net::MsgType::kContextRead:
        honest = {net::MsgType::kContextRead,
                  handle_context_read(ContextReadReq::deserialize(body))};
        break;
      case net::MsgType::kContextWrite:
        honest = {net::MsgType::kAck, handle_context_write(ContextWriteReq::deserialize(body))};
        break;
      case net::MsgType::kMetaRequest:
        honest = {net::MsgType::kMetaRequest, handle_meta(MetaReq::deserialize(body))};
        break;
      case net::MsgType::kRead:
        honest = {net::MsgType::kRead, handle_read(ReadReq::deserialize(body))};
        break;
      case net::MsgType::kWrite:
        if (write == nullptr) return std::nullopt;  // undecodable: ignore
        honest = {net::MsgType::kWrite, handle_write(*write)};
        break;
      case net::MsgType::kLogRead:
        honest = {net::MsgType::kLogRead, handle_log_read(LogReadReq::deserialize(body))};
        break;
      case net::MsgType::kReconstruct:
        honest = {net::MsgType::kReconstruct,
                  handle_reconstruct(ReconstructReq::deserialize(body))};
        break;
      case net::MsgType::kAuditRead:
        honest = {net::MsgType::kAuditRead, audit_.serialize()};
        break;
      case net::MsgType::kIntrospect:
        honest = handle_introspect(body);
        break;
      default:
        return std::nullopt;  // unknown request: ignore
    }
  } catch (const DecodeError&) {
    return std::nullopt;  // malformed request: ignore
  }

  return filter_response(from, type, body, std::move(honest));
}

std::vector<std::optional<std::pair<net::MsgType, Bytes>>> SecureStoreServer::handle_request_batch(
    std::vector<net::IncomingRequest>& batch) {
  batch_size_.observe(static_cast<double>(batch.size()));

  // One span covers the wakeup's worth of requests, parented to the first
  // sampled context in the batch. Emitted only for real batches so a
  // single-request flow keeps its exact span sequence.
  if (batch.size() > 1) {
    for (const net::IncomingRequest& item : batch) {
      if (events_.want(item.trace)) {
        events_.span(node_.id().value, item.trace, "server.batch", "server",
                     static_cast<std::uint64_t>(node_.transport().now()), 0);
        break;
      }
    }
  }

  // Decode every kWrite body once, then gate the decodable ones together:
  // token authorization in front of the one record gate, whose signature
  // checks are one Ed25519 batch. The gate is timed once; each write's
  // `server.verify` span reports an equal share of it (DESIGN.md §8).
  std::vector<std::optional<GatedWrite>> writes(batch.size());
  std::size_t write_count = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].type != net::MsgType::kWrite) continue;
    try {
      writes[i].emplace(GatedWrite{WriteReq::deserialize(batch[i].body)});
      ++write_count;
    } catch (const DecodeError&) {
      // handle_request drops it as malformed
    }
  }
  if (write_count > 0) {
    const auto gate_start = std::chrono::steady_clock::now();
    std::vector<const WriteRecord*> gated(batch.size(), nullptr);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!writes[i].has_value()) continue;
      const WriteReq& req = writes[i]->req;
      if (authorized(req.token, req.record.writer, req.record.group, Rights::kWrite)) {
        gated[i] = &req.record;
      }
    }
    const std::vector<bool> valid = settle_records(gated);
    const auto gate_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - gate_start)
                             .count();
    const auto share_us = static_cast<std::uint64_t>(
        (gate_ns / static_cast<std::int64_t>(write_count) + 500) / 1000);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!writes[i].has_value()) continue;
      writes[i]->valid = valid[i];
      writes[i]->verify_us = share_us;
    }
  }

  // Each request then runs the full per-request path in batch order: fault
  // hooks, request-mix counters, admission and response filtering.
  std::vector<std::optional<std::pair<net::MsgType, Bytes>>> responses;
  responses.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    responses.push_back(handle_request(batch[i].from, batch[i].type, batch[i].body,
                                       batch[i].trace,
                                       writes[i].has_value() ? &*writes[i] : nullptr));
  }
  return responses;
}

void SecureStoreServer::handle_oneway(NodeId from, net::MsgType type, BytesView body) {
  const auto counter = req_counters_.find(static_cast<std::uint16_t>(type));
  (counter != req_counters_.end() ? *counter->second : req_other_).inc();
  active_trace_ = node_.incoming_trace();
  if (!accept_request(from, type)) return;  // fault hook covers oneways too
  switch (type) {
    case net::MsgType::kGossipDigest:
    case net::MsgType::kGossipUpdates:
    case net::MsgType::kGossipRequest:
    case net::MsgType::kGossipRing:
      gossip_->handle(from, type, body);
      return;
    case net::MsgType::kStability:
      try {
        handle_stability(StabilityMsg::deserialize(body));
      } catch (const DecodeError&) {
      }
      return;
    default:
      return;
  }
}

Bytes SecureStoreServer::handle_context_read(const ContextReadReq& req) {
  ContextReadResp resp;
  const StoredContext* stored = contexts_.get(req.owner, req.group);
  if (stored != nullptr) resp.stored = *stored;
  return resp.serialize();
}

Bytes SecureStoreServer::handle_context_write(const ContextWriteReq& req) {
  AckResp resp;
  const Bytes* key = client_key(req.stored.owner);
  // "Non-faulty servers need to verify the signature to ensure that they do
  // not overwrite their context data with spurious information" (§6).
  if (key != nullptr && req.stored.verify(*key)) {
    if (contexts_.apply(req.stored)) {
      Writer w;
      req.stored.encode(w);
      wal_append(storage::WalEntryType::kContext, w.data());
    }
    resp.ok = true;
  }
  return resp.serialize();
}

Bytes SecureStoreServer::handle_meta(const MetaReq& req) {
  MetaResp resp;
  const WriteRecord* current = items_->current(req.item);
  if (current != nullptr &&
      authorized(req.token, req.requester, current->group, Rights::kRead)) {
    resp.meta = req.include_value ? *current : current->meta_only();
    resp.value_included = req.include_value;
    resp.faulty_writer = items_->flagged_faulty(req.item);
  }
  return resp.serialize();
}

Bytes SecureStoreServer::handle_read(const ReadReq& req) {
  ReadResp resp;
  const WriteRecord* current = items_->current(req.item);
  if (current != nullptr &&
      authorized(req.token, req.requester, current->group, Rights::kRead)) {
    // Return the newest we have; the client accepts it iff it satisfies the
    // timestamp it selected in the meta phase.
    resp.record = *current;
    resp.faulty_writer = items_->flagged_faulty(req.item);
  }
  return resp.serialize();
}

Bytes SecureStoreServer::handle_write(const GatedWrite& write) {
  WriteResp resp;
  const WriteRecord& record = write.req.record;
  // server.verify span: this write's share of its batch's gate time
  // (authorization + settle_records). Span timestamps sit on the transport
  // clock (so they line up with the client spans); durations for in-memory
  // work are measured in wall µs, which is also the only honest duration
  // under the simulator (DESIGN.md §8).
  const bool traced = events_.want(active_trace_);
  if (traced) {
    events_.span(node_.id().value, active_trace_, "server.verify", "server",
                 static_cast<std::uint64_t>(node_.transport().now()), write.verify_us);
  }
  if (!write.valid) return resp.serialize();

  const bool visible = apply_with_holds(record);
  resp.ok = true;

  // Remember which client operation made this record visible, so gossip
  // hand-offs carry its context (before push_record, which looks it up).
  if (visible && traced) gossip_->note_origin(record, active_trace_);

  // Rumor mongering: spread a fresh client write immediately instead of
  // waiting for the next anti-entropy tick (§5.2: "new data values could be
  // sent to one or more servers at a frequency that can be tuned").
  if (visible && gossip_->config().push_on_write) gossip_->push_record(record);

  // Multi-writer deployments with Byzantine clients get a stability share
  // in the ack; the writer aggregates 2b+1 of these into the certificate
  // that lets servers garbage collect their logs (§5.3).
  const GroupPolicy& policy = group_policy(record.group);
  if (visible && policy.sharing == SharingMode::kMultiWriter &&
      policy.trust == ClientTrust::kByzantine) {
    resp.stability_share =
        crypto::meter_sign(keys_, stability_statement(record.item, record.ts));
  }
  return resp.serialize();
}

Bytes SecureStoreServer::handle_log_read(const LogReadReq& req) {
  LogReadResp resp;
  std::vector<WriteRecord> log = items_->log(req.item);
  if (!log.empty() && !authorized(req.token, req.requester, log.front().group, Rights::kRead)) {
    return LogReadResp{}.serialize();
  }
  resp.records = std::move(log);
  resp.faulty_writer = items_->flagged_faulty(req.item);
  return resp.serialize();
}

Bytes SecureStoreServer::handle_reconstruct(const ReconstructReq& req) {
  ReconstructResp resp;
  resp.metas = items_->group_meta(req.group);
  return resp.serialize();
}

void SecureStoreServer::handle_stability(const StabilityMsg& msg) {
  // Trust the certificate only if 2b+1 distinct servers signed the exact
  // statement: then at least b+1 correct servers store the new value and
  // superseded log entries are safe to drop (§5.3).
  if (msg.certificate.statement() != stability_statement(msg.item, msg.ts)) return;
  if (!msg.certificate.satisfies(config_.stability_threshold(), config_.server_keys)) return;
  items_->prune_log(msg.item, msg.ts);
}

bool SecureStoreServer::validate_record_structure(const WriteRecord& record) const {
  const GroupPolicy& policy = group_policy(record.group);
  if (record.model != policy.model) return false;

  if (policy.sharing == SharingMode::kMultiWriter) {
    // Multi-writer timestamps must be the §5.3 3-tuple, bound to this writer
    // and this value.
    if (record.ts.writer != record.writer) return false;
    if (record.ts.digest.empty() || record.ts.digest != record.value_digest) return false;
  } else {
    // Single-writer: version-only timestamps.
    if (record.ts.writer != ClientId{} || !record.ts.digest.empty()) return false;
  }
  return true;
}

std::vector<bool> SecureStoreServer::settle_records(
    std::span<const WriteRecord* const> records) const {
  // The cheap checks first, in this order — writer key, structure, value
  // digest — so a record failing one costs no signature check; then the
  // signatures of every survivor as one batch verification.
  std::vector<std::size_t> survivors;
  std::vector<Bytes> payloads;  // owns the signed bytes the batch items view
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WriteRecord* record = records[i];
    if (record == nullptr || client_key(record->writer) == nullptr ||
        !validate_record_structure(*record) ||
        crypto::meter_digest(record->value) != record->value_digest) {
      continue;
    }
    survivors.push_back(i);
    payloads.push_back(record->signed_payload());
  }
  std::vector<crypto::BatchVerifyItem> items;
  items.reserve(survivors.size());
  for (std::size_t j = 0; j < survivors.size(); ++j) {
    const WriteRecord& record = *records[survivors[j]];
    items.push_back(
        crypto::BatchVerifyItem{*client_key(record.writer), payloads[j], record.signature});
  }
  const crypto::BatchVerifyResult verdict = crypto::ed25519_batch_verify(items);
  std::vector<bool> valid(records.size(), false);
  for (std::size_t j = 0; j < survivors.size(); ++j) valid[survivors[j]] = verdict.valid[j];
  return valid;
}

std::vector<bool> SecureStoreServer::apply_gossip_batch(
    const std::vector<std::pair<WriteRecord, obs::TraceContext>>& records) {
  // In front of the gate: scattered fragments never travel by gossip
  // (honest peers do not send them; see RecordFlags::kScattered), and
  // records for groups another shard owns never enter this store, whoever
  // gossips them (rebalance uses import_record).
  std::vector<const WriteRecord*> gated;
  gated.reserve(records.size());
  for (const auto& [record, ctx] : records) {
    gated.push_back((record.flags & kScattered) || !owns_group(record.group) ? nullptr : &record);
  }
  const std::vector<bool> accepted = settle_records(gated);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (accepted[i]) apply_with_holds(records[i].first);
  }
  return accepted;
}

bool SecureStoreServer::apply_with_holds(const WriteRecord& record) {
  // Apply latency is wall time (in-memory work, identical under sim).
  const std::uint64_t apply_start = obs::wall_now_us();
  const auto apply_ts = static_cast<std::uint64_t>(node_.transport().now());
  const GroupPolicy& policy = group_policy(record.group);
  const bool needs_hold = policy.sharing == SharingMode::kMultiWriter &&
                          policy.trust == ClientTrust::kByzantine &&
                          record.model == ConsistencyModel::kCC;

  const auto have = [this](ItemId item, const Timestamp& ts) {
    const WriteRecord* current = items_->current(item);
    return current != nullptr && !(current->ts < ts);
  };

  if (needs_hold && !storage::HoldQueue::dependencies_met(record, have)) {
    // Establish the hold floor before the append: from this entry on, the
    // WAL holds acked state that no snapshot or engine flush reflects, so
    // coverage claims are clamped below it until the queue drains.
    if (!hold_lsn_floor_.has_value()) {
      if (wal_replaying_) {
        hold_lsn_floor_ = replay_lsn_ == 0 ? 0 : replay_lsn_ - 1;
      } else if (wal_ != nullptr) {
        hold_lsn_floor_ = wal_->last_lsn();
      }
    }
    holds_.hold(record);
    hold_depth_.set(static_cast<std::int64_t>(holds_.size()));
    // Held writes are acked too, so they must survive a crash; replay
    // re-parks them until their dependencies replay.
    wal_append_record(storage::WalEntryType::kWrite, record);
    const std::uint64_t held_elapsed = obs::wall_now_us() - apply_start;
    apply_us_.observe(static_cast<double>(held_elapsed));
    if (events_.want(active_trace_)) {
      events_.span(node_.id().value, active_trace_, "server.apply.held", "server", apply_ts,
                   held_elapsed);
    }
    return false;
  }

  const storage::ApplyResult applied = items_->apply(record);
  if (applied == storage::ApplyResult::kEquivocation) equivocations_.inc();
  if (applied != storage::ApplyResult::kDuplicate) {
    // Logged even on kEquivocation (the record is not stored, but replay
    // needs both conflicting records to re-derive the faulty-writer flag).
    wal_append_record(storage::WalEntryType::kWrite, record);
    audit_.append(record, node_.transport().now());
  }

  // A new arrival can transitively unblock held writes.
  while (true) {
    std::vector<WriteRecord> released = holds_.release(have);
    if (released.empty()) break;
    hold_depth_.set(static_cast<std::int64_t>(holds_.size()));
    for (const WriteRecord& unblocked : released) {
      const storage::ApplyResult result = items_->apply(unblocked);
      if (result == storage::ApplyResult::kEquivocation) equivocations_.inc();
      if (result != storage::ApplyResult::kDuplicate) {
        wal_append_record(storage::WalEntryType::kRelease, unblocked);
        audit_.append(unblocked, node_.transport().now());
      }
    }
  }
  if (holds_.size() == 0 && hold_lsn_floor_.has_value()) {
    // Queue drained: every formerly-held write is in the engine now, so
    // the clamp can lift and the watermark catch up to the WAL head.
    hold_lsn_floor_.reset();
    if (wal_ != nullptr && !wal_replaying_) note_engine_watermark(wal_->last_lsn());
  }
  const std::uint64_t elapsed = obs::wall_now_us() - apply_start;
  apply_us_.observe(static_cast<double>(elapsed));
  if (events_.want(active_trace_)) {
    events_.span(node_.id().value, active_trace_, "server.apply", "server", apply_ts, elapsed);
  }
  return true;
}

}  // namespace securestore::core
