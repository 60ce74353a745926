#include "core/client.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

namespace securestore::core {

namespace {

/// Sort helper: newest timestamp first.
bool newer(const WriteRecord& a, const WriteRecord& b) { return b.ts < a.ts; }

}  // namespace

SecureStoreClient::SecureStoreClient(net::Transport& transport, NodeId network_id,
                                     ClientId client_id, crypto::KeyPair keys,
                                     StoreConfig config, Options options, Rng rng)
    : node_(transport, network_id),
      client_id_(client_id),
      keys_(std::move(keys)),
      config_(std::move(config)),
      options_(std::move(options)),
      rng_(std::move(rng)),
      fault_silent_(transport.registry().counter("client.fault.silent")),
      fault_forgery_(transport.registry().counter("client.fault.forgery")),
      deadline_exceeded_(transport.registry().counter("client.deadline_exceeded")),
      refused_(transport.registry().counter("client.refused")),
      breaker_trips_(transport.registry().counter("client.breaker_trips")) {
  config_.validate();
  if (!options_.codec) options_.codec = std::make_shared<PlainValueCodec>();
  if (options_.dynamic_quorums.has_value()) {
    FaultEstimator::Config estimator_config = *options_.dynamic_quorums;
    estimator_config.b_max = std::min(estimator_config.b_max, config_.b);
    estimator_.emplace(estimator_config);
  }

  // Default server preference: a seeded shuffle, so different clients load
  // different b+1 subsets.
  server_order_ = config_.servers;
  for (std::size_t i = server_order_.size(); i > 1; --i) {
    std::swap(server_order_[i - 1], server_order_[rng_.next_below(i)]);
  }
}

void SecureStoreClient::set_server_preference(std::vector<NodeId> order) {
  server_order_ = std::move(order);
}

void SecureStoreClient::set_codec(std::shared_ptr<ValueCodec> codec) {
  options_.codec = codec ? std::move(codec) : std::make_shared<PlainValueCodec>();
}

std::vector<NodeId> SecureStoreClient::pick_servers(std::size_t count) const {
  // Preference order, with servers the estimator distrusts OR the circuit
  // breaker holds open demoted to the back — they still serve as escalation
  // fallbacks, never first choices, so the quorum path routes around a
  // drowning replica the same way it routes around a suspected-faulty one.
  std::vector<NodeId> ordered = server_order_;
  std::stable_partition(ordered.begin(), ordered.end(), [this](NodeId server) {
    return !(estimator_.has_value() && estimator_->is_distrusted(server)) &&
           !breaker_open(server);
  });
  ordered.resize(std::min(count, ordered.size()));
  return ordered;
}

std::uint32_t SecureStoreClient::effective_b() const {
  return estimator_.has_value() ? estimator_->estimated_b() : config_.b;
}

void SecureStoreClient::note_responded(NodeId server) {
  if (estimator_.has_value()) estimator_->report_good_interaction(server);
}

void SecureStoreClient::note_silent(const std::vector<NodeId>& targets,
                                    const std::vector<NodeId>& responders) {
  for (const NodeId target : targets) {
    if (std::ranges::find(responders, target) != responders.end()) continue;
    fault_silent_.inc();
    if (estimator_.has_value()) estimator_->report_soft_evidence(target);
  }
}

void SecureStoreClient::note_forgery(NodeId server) {
  fault_forgery_.inc();
  if (estimator_.has_value()) estimator_->report_hard_evidence(server);
}

bool SecureStoreClient::note_wrong_shard(net::MsgType type, BytesView resp_body) {
  if (type != net::MsgType::kWrongShard) return false;
  // Keep the first rejection's ring; a second rejecting server in the same
  // round adds nothing (the router verifies and version-checks anyway).
  if (wrong_shard_ring_.empty()) wrong_shard_ring_.assign(resp_body.begin(), resp_body.end());
  return true;
}

bool SecureStoreClient::breaker_open(NodeId server) const {
  const auto it = breakers_.find(server.value);
  return it != breakers_.end() && it->second.open_until > node_.transport().now();
}

bool SecureStoreClient::note_overloaded(NodeId from, net::MsgType type, BytesView resp_body) {
  if (type != net::MsgType::kOverloaded) {
    // The server answered with real content: it is keeping up again, so any
    // accumulated strikes are stale.
    breakers_.erase(from.value);
    return false;
  }
  refused_.inc();

  // The hint is honored only when the refusal authenticates: a correct
  // server signs overload_statement(retry_after_us) with its well-known
  // key. Unverifiable refusals still count (the server *did* refuse) but
  // contribute no hint a forger could inflate — and the clamp bounds even a
  // correctly signed hint, so a Byzantine server can slow this client by at
  // most retry_after_clamp per round.
  try {
    const OverloadedResp resp = OverloadedResp::deserialize(resp_body);
    const auto key = config_.server_keys.find(from);
    if (key != config_.server_keys.end() &&
        crypto::meter_verify(key->second, overload_statement(resp.retry_after_us),
                             resp.signature)) {
      const SimDuration hint = std::min<SimDuration>(
          microseconds(resp.retry_after_us), options_.retry_after_clamp);
      overload_hint_ = std::max(overload_hint_, hint);
    }
  } catch (const DecodeError&) {
  }

  if (options_.breaker_threshold > 0) {
    Breaker& breaker = breakers_[from.value];
    // Past the threshold every further refusal re-opens the breaker (this
    // is also what ends a failed half-open probe); strikes saturate so one
    // useful reply is always enough to close it again.
    breaker.strikes = std::min(breaker.strikes + 1, options_.breaker_threshold);
    if (breaker.strikes >= options_.breaker_threshold) {
      if (breaker.open_until <= node_.transport().now()) breaker_trips_.inc();
      breaker.open_until = node_.transport().now() + options_.breaker_cooldown;
    }
  }
  return true;
}

SimDuration SecureStoreClient::take_overload_hint() { return std::exchange(overload_hint_, 0); }

Error SecureStoreClient::round_error(std::size_t refused, net::QuorumOutcome outcome) const {
  if (refused > 0) return Error::kOverloaded;
  return outcome == net::QuorumOutcome::kTimeout ? Error::kTimeout
                                                 : Error::kInsufficientQuorum;
}

SimDuration SecureStoreClient::round_budget(SimTime deadline) const {
  const SimTime now = node_.transport().now();
  // Clamp before subtracting: SimTime is unsigned, and a backoff sleep (or
  // a slow wall-clock dispatch on the threaded transports) can overshoot
  // the absolute deadline, so `deadline - now` would wrap to a huge round
  // timeout. Zero tells the driver to fail the op with a deadline error
  // instead of issuing that round.
  if (now >= deadline) {
    deadline_exceeded_.inc();
    return 0;
  }
  return std::min<SimDuration>(options_.round_timeout, deadline - now);
}

SimDuration SecureStoreClient::retry_backoff(unsigned round) {
  if (options_.backoff_base == 0) return 0;
  double backoff = static_cast<double>(options_.backoff_base);
  const double cap = static_cast<double>(std::max<SimDuration>(options_.backoff_cap, 1));
  for (unsigned i = 0; i < round && backoff < cap; ++i) backoff *= options_.backoff_multiplier;
  const auto capped = static_cast<SimDuration>(std::min(backoff, cap));
  // Jitter in [capped/2, capped]: enough spread to desynchronize clients,
  // never less than half so the wait stays a real wait.
  return capped / 2 + rng_.next_below(capped / 2 + 1);
}

std::string SecureStoreClient::data_op_name(std::string_view verb) const {
  const char* protocol = verb == "read" ? "p4" : "p3";
  if (options_.policy.sharing == SharingMode::kMultiWriter) protocol = hardened() ? "p6" : "p5";
  return std::string("client.") + protocol + "." + std::string(verb);
}

const Bytes* SecureStoreClient::writer_key(ClientId writer) const {
  const auto it = config_.client_keys.find(writer.value);
  return it != config_.client_keys.end() ? &it->second : nullptr;
}

bool SecureStoreClient::hardened() const {
  return options_.policy.sharing == SharingMode::kMultiWriter &&
         options_.policy.trust == ClientTrust::kByzantine;
}

std::size_t SecureStoreClient::write_set_size() const {
  // Dynamic sizing applies only to the honest-client paths, where safety
  // rests on signatures and a too-small set risks only liveness (fixed by
  // escalation). The hardened §5.3 quorums and the b+1 agreement threshold
  // are load-bearing for safety and always use the static bound.
  if (hardened()) return config_.data_quorum_byzantine();
  return effective_b() + 1;
}

// ---------------------------------------------------------------------------
// The retrying-quorum driver. Every protocol below is one instance of the
// Fig. 1/Fig. 2 shape: send to a set, fold replies until a predicate holds,
// otherwise "contact additional servers or try later".
// ---------------------------------------------------------------------------

template <typename R>
struct SecureStoreClient::Op {
  Trace trace;
  SimTime deadline;
  std::function<void(R)> done;
};

struct SecureStoreClient::QuorumSpec {
  net::MsgType type;
  Bytes body;
  /// A round is lost once fewer than this many targets are left that have
  /// not refused: targets − refused < min_useful.
  std::size_t min_useful;
  std::string_view phase = "quorum";
};

template <typename R, typename State, typename Targets, typename Fold, typename Settle>
struct SecureStoreClient::Rounds {
  void start(unsigned next_round) {
    const SimDuration budget = client.round_budget(op->deadline);
    if (budget == 0) return finish(R(Error::kTimeout, "operation deadline passed"));
    round = next_round;
    state = State{};
    targets = targets_for(round);
    responders.clear();
    refused = 0;
    op->trace->phase(spec.phase);
    net::QuorumCall::start(
        client.node_, targets, spec.type, spec.body,
        [self = self.lock()](NodeId from, net::MsgType type, BytesView body) {
          return self->on_reply(from, type, body);
        },
        [self = self.lock()](net::QuorumOutcome result, std::size_t) {
          if (self->client.wrong_shard_pending()) {
            return self->finish(
                R(Error::kWrongShard, "server does not own this group's shard"));
          }
          self->outcome = result;
          self->settle(*self);
        },
        net::QuorumCall::Options{budget, op->trace->ctx()});
  }

  bool on_reply(NodeId from, net::MsgType type, BytesView body) {
    if (client.note_wrong_shard(type, body)) return true;
    // A refusal is a response, not silence: the server is alive.
    responders.push_back(from);
    if (client.note_overloaded(from, type, body)) {
      // Fast refusal: once the refusals leave too few possible useful
      // repliers, the round cannot succeed — end it now instead of burning
      // the rest of the round timeout.
      return targets.size() - ++refused < spec.min_useful;
    }
    return fold(state, from, body);
  }

  void finish(R result) {
    op->trace->finish(result.ok());
    op->done(std::move(result));
  }

  /// The default failure of a lost round (round_error: refusals dominate).
  R failure(std::string detail) const {
    return R(client.round_error(refused, outcome), std::move(detail));
  }

  /// Backs off and starts the next, wider round; ends the operation with
  /// `failure` when no round is left before the deadline.
  void retry(R failure) {
    const SimDuration backoff =
        std::max(client.retry_backoff(round), client.take_overload_hint());
    if (round + 1 < client.options_.max_read_rounds &&
        client.node_.transport().now() + backoff < op->deadline) {
      op->trace->add("retries");
      client.node_.transport().schedule(
          backoff, [self = self.lock()] { self->start(self->round + 1); });
      return;
    }
    finish(std::move(failure));
  }

  SecureStoreClient& client;
  std::shared_ptr<Op<R>> op;
  QuorumSpec spec;
  Targets targets_for;
  Fold fold;
  Settle settle;
  std::weak_ptr<Rounds> self{};  // the owning pointer lives in pending callbacks
  // The current round, reset by start().
  unsigned round = 0;
  State state{};
  std::vector<NodeId> targets{};
  std::vector<NodeId> responders{};  // every non-misroute reply, arrival order
  std::size_t refused = 0;
  net::QuorumOutcome outcome = net::QuorumOutcome::kTimeout;
};

template <typename R>
std::shared_ptr<SecureStoreClient::Op<R>> SecureStoreClient::begin_op(
    std::string name, std::function<void(R)> done) {
  // Every public operation opens exactly one, so this doubles as the
  // start-of-op hook: drop any ring a previous rejection stashed and any
  // retry-after hint a previous operation never consumed.
  wrong_shard_ring_.clear();
  overload_hint_ = 0;
  // The transport clock keeps span semantics identical across worlds:
  // virtual microseconds under the simulator, wall microseconds since
  // transport start on the thread/TCP transports.
  auto trace = obs::start_trace(
      node_.transport().registry(), std::move(name),
      [this] { return static_cast<std::uint64_t>(node_.transport().now()); });
  // Enter the operation into the distributed trace (subject to the event
  // log's enable/sampling knobs); its context then rides out with every
  // rpc the operation issues.
  trace->attach_root(node_.transport().events(), node_.id().value);
  const SimTime deadline = node_.transport().now() + config_.op_timeout;
  return std::make_shared<Op<R>>(Op<R>{std::move(trace), deadline, std::move(done)});
}

template <typename State, typename R, typename Targets, typename Fold, typename Settle>
void SecureStoreClient::retrying_quorum(std::shared_ptr<Op<R>> op, QuorumSpec spec,
                                        Targets targets, Fold fold, Settle settle) {
  using Run = Rounds<R, State, Targets, Fold, Settle>;
  auto run = std::make_shared<Run>(Run{*this, std::move(op), std::move(spec),
                                       std::move(targets), std::move(fold), std::move(settle)});
  run->self = run;
  run->start(0);
}

std::vector<NodeId> SecureStoreClient::escalated(std::size_t base, unsigned round) const {
  const std::size_t count = base + round * config_.read_escalation_step;
  return pick_servers(std::min<std::size_t>(config_.n, count));
}

// ---------------------------------------------------------------------------
// P1: context acquisition and storage (Fig. 1).
// ---------------------------------------------------------------------------

void SecureStoreClient::connect(GroupId group, VoidCb done) {
  auto op = begin_op("client.p1.connect", std::move(done));
  const ContextReadReq req{.owner = client_id_, .group = group};
  const std::size_t quorum = config_.context_quorum();

  // Candidates are collected UNVERIFIED and checked lazily, newest first,
  // so the best case costs exactly one signature verification (§6: "in the
  // best case, context acquisition requires just one signature
  // verification").
  struct Round {
    std::vector<StoredContext> candidates;
    std::size_t replies = 0;
  };
  retrying_quorum<Round>(
      std::move(op), {net::MsgType::kContextRead, req.serialize(), quorum},
      [this, quorum](unsigned round) { return escalated(quorum, round); },
      [this, group, quorum](Round& r, NodeId, BytesView body) {
        ++r.replies;
        try {
          ContextReadResp resp = ContextReadResp::deserialize(body);
          if (resp.stored.has_value() && resp.stored->owner == client_id_ &&
              resp.stored->context.group() == group) {
            const bool duplicate = std::any_of(
                r.candidates.begin(), r.candidates.end(),
                [&](const StoredContext& c) { return c.context == resp.stored->context; });
            if (!duplicate) r.candidates.push_back(std::move(*resp.stored));
          }
        } catch (const DecodeError&) {
          // Faulty server sent garbage; still counts as a (useless) reply.
        }
        return r.replies >= quorum;
      },
      [this, group, quorum](auto& run) {
        if (run.state.replies < quorum) {
          return run.retry(run.failure("context read quorum not reached"));
        }
        run.op->trace->phase("verify");
        // One client's honest contexts are totally ordered by dominance, so
        // the pointwise timestamp sum is a valid newest-first sort key;
        // forged "newer" contexts fail verification and we fall through to
        // the next candidate.
        std::ranges::sort(run.state.candidates, std::greater<>{}, [](const StoredContext& c) {
          std::uint64_t sum = 0;
          for (const auto& [item, ts] : c.context.entries()) sum += ts.time;
          return sum;
        });
        context_ = Context(group);
        for (const StoredContext& candidate : run.state.candidates) {
          if (candidate.verify(keys_.public_key)) {
            context_ = candidate.context;
            break;
          }
        }
        connected_ = true;
        run.finish(VoidResult{});
      });
}

void SecureStoreClient::disconnect(VoidCb done) {
  auto op = begin_op("client.p1.disconnect", std::move(done));
  // Signed once; escalation rounds resend the same body.
  op->trace->phase("sign");
  ContextWriteReq req;
  req.stored.owner = client_id_;
  req.stored.context = context_;
  req.stored.sign(keys_);
  const std::size_t quorum = config_.context_quorum();

  retrying_quorum<std::size_t>(
      std::move(op), {net::MsgType::kContextWrite, req.serialize(), quorum},
      [this, quorum](unsigned round) { return escalated(quorum, round); },
      [quorum](std::size_t& acks, NodeId, BytesView body) {
        try {
          if (AckResp::deserialize(body).ok) ++acks;
        } catch (const DecodeError&) {
        }
        return acks >= quorum;
      },
      [this, quorum](auto& run) {
        if (run.state < quorum) {
          return run.retry(run.failure("context write quorum not reached"));
        }
        connected_ = false;
        run.finish(VoidResult{});
      });
}

// ---------------------------------------------------------------------------
// P2: context reconstruction and group listing (§5.1).
// ---------------------------------------------------------------------------

template <typename R, typename Finish>
void SecureStoreClient::sweep_group(GroupId group, std::shared_ptr<Op<R>> op,
                                    std::string failure, Finish finish) {
  // "These items must be read from all servers. Only the faulty servers may
  // choose not to respond": one round to every server, n-b must answer.
  const std::size_t needed = config_.n - config_.b;
  const ReconstructReq req{.group = group};

  // item -> newest verified meta.
  struct Round {
    std::map<ItemId, WriteRecord> newest;
    std::size_t replies = 0;
  };
  retrying_quorum<Round>(
      std::move(op), {net::MsgType::kReconstruct, req.serialize(), needed},
      [this](unsigned) { return config_.servers; },
      [this, group](Round& r, NodeId, BytesView body) {
        ++r.replies;
        try {
          for (const WriteRecord& meta : ReconstructResp::deserialize(body).metas) {
            if (meta.group != group) continue;
            const Bytes* key = writer_key(meta.writer);
            // "the latest valid timestamp for each data item is used":
            // validity = the writer's signature over the meta-data verifies.
            if (key == nullptr || !meta.verify_meta(*key)) continue;
            auto [it, inserted] = r.newest.try_emplace(meta.item, meta);
            if (!inserted && it->second.ts < meta.ts) it->second = meta;
          }
        } catch (const DecodeError&) {
        }
        return false;  // hear from as many servers as possible
      },
      [needed, failure = std::move(failure), finish = std::move(finish)](auto& run) {
        if (run.state.replies < needed) return run.finish(run.failure(failure));
        run.finish(finish(run.state.newest));
      });
}

void SecureStoreClient::reconstruct_context(GroupId group, VoidCb done) {
  sweep_group(group, begin_op("client.p2.reconstruct", std::move(done)),
              "reconstruction needs n-b responses",
              [this, group](const std::map<ItemId, WriteRecord>& newest) {
                context_ = Context(group);
                for (const auto& [item, meta] : newest) context_.advance(item, meta.ts);
                connected_ = true;
                return VoidResult{};
              });
}

void SecureStoreClient::list_group(GroupId group, ListCb done) {
  sweep_group(group, begin_op("client.p2.list", std::move(done)),
              "group listing needs n-b responses",
              [](const std::map<ItemId, WriteRecord>& newest) {
                std::vector<GroupEntry> entries;
                entries.reserve(newest.size());
                for (const auto& [item, meta] : newest) {
                  entries.push_back(GroupEntry{item, meta.ts, meta.writer});
                }
                return Result<std::vector<GroupEntry>>(std::move(entries));
              });
}

// ---------------------------------------------------------------------------
// Writes (Fig. 2 write, §5.3 hardened write).
// ---------------------------------------------------------------------------

Timestamp SecureStoreClient::next_timestamp(ItemId item, BytesView value_digest) {
  Timestamp ts;
  // "increment t_j in X_i to current clock value" — and never backwards.
  const std::uint64_t previous = context_.get(item).time;
  ts.time = std::max(previous + 1, static_cast<std::uint64_t>(node_.transport().now()));
  if (options_.random_ts_increment) {
    // §5.2: "the writer can increase it on each write by some random amount.
    // That will ensure that others cannot guess how many times the data item
    // has been updated."
    ts.time += rng_.next_in_range(1, 1u << 20);
  }
  if (options_.policy.sharing == SharingMode::kMultiWriter) {
    ts.writer = client_id_;
    ts.digest = Bytes(value_digest.begin(), value_digest.end());
  }
  return ts;
}

void SecureStoreClient::write(ItemId item, BytesView value, VoidCb done) {
  auto op = begin_op(data_op_name("write"), std::move(done));
  op->trace->phase("sign");
  WriteReq req;
  req.token = options_.token;
  WriteRecord& record = req.record;
  record.item = item;
  record.group = options_.policy.group;
  record.model = options_.policy.model;
  record.writer = client_id_;
  record.value = options_.codec->encode(item, value);

  record.ts = next_timestamp(item, crypto::meter_digest(record.value));

  if (options_.policy.model == ConsistencyModel::kCC) {
    // The context written with the value includes the new self entry
    // (Fig. 2: t_j is incremented before the write message is formed).
    record.writer_context = context_;
    record.writer_context.set(item, record.ts);
  } else {
    record.writer_context = Context(options_.policy.group);
  }

  record.sign(keys_);

  struct Round {
    std::size_t acks = 0;
    std::vector<Bytes> shares;
  };
  const std::size_t quorum = write_set_size();
  retrying_quorum<Round>(
      std::move(op), {net::MsgType::kWrite, req.serialize(), quorum},
      // Not enough acks: escalate to a larger server set, Fig. 2's
      // "contact additional servers".
      [this, quorum](unsigned round) { return escalated(quorum, round); },
      [quorum](Round& r, NodeId, BytesView body) {
        try {
          const WriteResp resp = WriteResp::deserialize(body);
          if (resp.ok) {
            ++r.acks;
            if (!resp.stability_share.empty()) r.shares.push_back(resp.stability_share);
          }
        } catch (const DecodeError&) {
        }
        return r.acks >= quorum;
      },
      [this, item, ts = record.ts, quorum](auto& run) {
        if (run.state.acks < quorum) {
          return run.retry(run.failure("write quorum not reached after escalation"));
        }
        context_.advance(item, ts);
        run.finish(VoidResult{});
        std::vector<Bytes>& shares = run.state.shares;
        if (options_.stability_gc && !shares.empty() &&
            shares.size() >= config_.stability_threshold()) {
          broadcast_stability(item, ts, std::move(shares), run.op->trace->ctx());
        }
      });
}

void SecureStoreClient::broadcast_stability(ItemId item, const Timestamp& ts,
                                            std::vector<Bytes> shares,
                                            const obs::TraceContext& trace) {
  // The ack order matched pick_servers(), so shares pair with those ids in
  // order of arrival; re-derive signer ids by verification against the
  // known server keys. (Cheap relative to the write itself and only on the
  // §5.3 path.)
  crypto::MultisigCertificate cert(stability_statement(item, ts));
  for (const Bytes& share : shares) {
    for (const auto& [server, key] : config_.server_keys) {
      if (crypto::meter_verify(key, cert.statement(), share)) {
        cert.add_share(server, share);
        break;
      }
    }
  }
  if (cert.shares().size() < config_.stability_threshold()) return;

  StabilityMsg msg;
  msg.item = item;
  msg.ts = ts;
  msg.certificate = std::move(cert);
  const Bytes body = msg.serialize();
  for (const NodeId server : config_.servers) {
    node_.send_oneway(server, net::MsgType::kStability, body, trace);
  }
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

void SecureStoreClient::read(ItemId item, ReadCb done) {
  auto op = begin_op(data_op_name("read"), std::move(done));
  if (hardened()) return read_multi_writer(item, std::move(op));
  read_single_writer(item, std::move(op));
}

void SecureStoreClient::read_single_writer(ItemId item, ReadOp op) {
  MetaReq req;
  req.item = item;
  req.group = options_.policy.group;
  req.requester = client_id_;
  req.include_value = options_.inline_reads;
  req.token = options_.token;

  // Replies are collected UNVERIFIED here; signatures are checked lazily,
  // best-candidate first, so the common case costs one verification —
  // Fig. 2 verifies only the value it accepts. Senders ride along for the
  // fault estimator's evidence feed.
  struct Advertised {
    WriteRecord record;
    NodeId from;
    bool value_included = false;
  };
  using Out = Result<ReadOutput>;
  retrying_quorum<std::vector<Advertised>>(
      // The meta round is useful with even one real reply; only a clean
      // sweep of refusals ends it early.
      std::move(op), {net::MsgType::kMetaRequest, req.serialize(), 1},
      // Fig. 2 phase 1: "send (uid(x_j), t_j) to b+1 or more servers" —
      // each escalation round widens the set.
      [this](unsigned round) { return escalated(effective_b() + 1, round); },
      [this, item](std::vector<Advertised>& metas, NodeId from, BytesView body) {
        note_responded(from);
        try {
          MetaResp resp = MetaResp::deserialize(body);
          if (resp.meta.has_value() && resp.meta->item == item &&
              resp.meta->model == options_.policy.model &&
              writer_key(resp.meta->writer) != nullptr) {
            metas.push_back(Advertised{std::move(*resp.meta), from, resp.value_included});
          }
        } catch (const DecodeError&) {
          // Channels are authenticated (§4), so a malformed reply is
          // conclusive evidence of a faulty server.
          note_forgery(from);
        }
        return false;  // collect every reply in the round: we want max t_r
      },
      [this, item](auto& run) {
        const std::vector<Advertised>& metas = run.state;
        run.op->trace->phase("verify");
        note_silent(run.targets, run.responders);
        // Multi-writer (honest) equivocation check. Unverified claims are
        // not enough to condemn a writer — a malicious server could frame
        // one — so an equivocating pair counts only if BOTH metas carry
        // valid writer signatures.
        for (std::size_t i = 0; i < metas.size(); ++i) {
          for (std::size_t j = i + 1; j < metas.size(); ++j) {
            const WriteRecord& a = metas[i].record;
            const WriteRecord& b = metas[j].record;
            if (!a.ts.equivocates(b.ts)) continue;
            if (a.verify_meta(*writer_key(a.writer)) && b.verify_meta(*writer_key(b.writer))) {
              run.op->trace->add("equivocations_seen");
              return run.finish(
                  Out(Error::kFaultyWriter, "equivocating timestamps in meta replies"));
            }
          }
        }

        // Fig. 2: t_r = highest timestamp among replies; proceed iff
        // t_r >= t_j (the client's context entry). Dedup identical claims.
        const Timestamp floor = context_.get(item);
        std::vector<Advertised> candidates;
        for (const Advertised& meta : metas) {
          if (meta.record.ts < floor) continue;
          const bool duplicate =
              std::any_of(candidates.begin(), candidates.end(), [&](const Advertised& c) {
                return c.record.ts == meta.record.ts &&
                       c.record.value_digest == meta.record.value_digest;
              });
          if (!duplicate) candidates.push_back(meta);
        }
        std::ranges::sort(candidates, newer, &Advertised::record);

        if (!candidates.empty() && !options_.inline_reads) {
          // Fig. 2 phase 2, which ends in its own retry when no candidate
          // can be substantiated from this round's servers.
          auto wanted = std::make_shared<std::vector<Timestamp>>();
          for (const Advertised& candidate : candidates) wanted->push_back(candidate.record.ts);
          return fetch_candidate(
              item, run.op, std::move(wanted),
              std::make_shared<const std::vector<NodeId>>(
                  escalated(effective_b() + 1, run.round)),
              /*index=*/0, [self = run.self.lock()] {
                self->retry(Out(Error::kStale, "no advertised value could be fetched"));
              });
        }
        // Values rode along with the metas: verify best-first and accept
        // the first that proves out.
        for (const Advertised& candidate : candidates) {
          if (candidate.value_included &&
              candidate.record.verify(*writer_key(candidate.record.writer))) {
            if (options_.read_repair) {
              // Push the accepted record to responders that advertised
              // something older (or nothing).
              WriteReq repair;
              repair.record = candidate.record;
              repair.token = options_.token;
              const Bytes repair_body = repair.serialize();
              for (const NodeId responder : run.responders) {
                const bool lagging =
                    std::none_of(metas.begin(), metas.end(), [&](const Advertised& m) {
                      return m.from == responder && !(m.record.ts < candidate.record.ts);
                    });
                if (lagging) {
                  node_.send_request(responder, net::MsgType::kWrite, repair_body,
                                     [](NodeId, net::MsgType, BytesView) {},
                                     run.op->trace->ctx());
                }
              }
            }
            return run.finish(accept_read(candidate.record));
          }
          // A server advertising an unverifiable record is provably faulty
          // (correct servers validate before storing).
          note_forgery(candidate.from);
        }

        // Stale, every candidate a lie, or nothing at all: escalate or
        // give up.
        if (metas.empty() && run.refused > 0) {
          return run.retry(Out(Error::kOverloaded, "servers shed the read"));
        }
        run.retry(metas.empty() ? Out(Error::kNotFound, "no server returned the item")
                                : Out(Error::kStale, "all replies older than context"));
      });
}

void SecureStoreClient::fetch_candidate(ItemId item, ReadOp op,
                                        std::shared_ptr<const std::vector<Timestamp>> wanted,
                                        std::shared_ptr<const std::vector<NodeId>> servers,
                                        std::size_t index, std::function<void()> exhausted) {
  if (index >= wanted->size() * servers->size()) return exhausted();
  const Timestamp target_ts = (*wanted)[index / servers->size()];
  ReadReq req;
  req.item = item;
  req.group = options_.policy.group;
  req.ts = target_ts;
  req.requester = client_id_;
  req.token = options_.token;

  // One single-server round; a refusal or a useless reply moves on to the
  // next server, then to the next candidate.
  retrying_quorum<std::optional<WriteRecord>>(
      std::move(op), {net::MsgType::kRead, req.serialize(), 1, "fetch"},
      [server = (*servers)[index % servers->size()]](unsigned) {
        return std::vector<NodeId>{server};
      },
      [this, item, target_ts](std::optional<WriteRecord>& accepted, NodeId, BytesView body) {
        try {
          ReadResp resp = ReadResp::deserialize(body);
          if (resp.record.has_value() && resp.record->item == item &&
              resp.record->model == options_.policy.model && !(resp.record->ts < target_ts)) {
            const Bytes* key = writer_key(resp.record->writer);
            // Full verification: meta signature AND value matches d(v) —
            // "accept v if the signature is valid" (Fig. 2).
            if (key != nullptr && resp.record->verify(*key)) accepted = std::move(*resp.record);
          }
        } catch (const DecodeError&) {
        }
        return true;  // single-server call: a reply ends it either way
      },
      [this, item, wanted, servers, index, exhausted](auto& run) {
        if (run.state.has_value()) return run.finish(accept_read(*run.state));
        fetch_candidate(item, run.op, wanted, servers, index + 1, exhausted);
      });
}

Result<ReadOutput> SecureStoreClient::accept_read(const WriteRecord& record) {
  const auto decoded = options_.codec->decode(record.item, record.value);
  if (!decoded.has_value()) {
    return Result<ReadOutput>(Error::kBadSignature, "value failed authenticated decryption");
  }

  // Context evolution per Fig. 2: MRC advances only this item's entry; CC
  // additionally absorbs X_writer so causally preceding writes become
  // floors for future reads.
  if (options_.policy.model == ConsistencyModel::kCC) {
    context_.merge(record.writer_context);
  }
  context_.advance(record.item, record.ts);
  return ReadOutput{*decoded, record.ts, record.writer};
}

// ---------------------------------------------------------------------------
// §5.3 hardened multi-writer read: 2b+1 logs, accept the newest write that
// appears in b+1 of them.
// ---------------------------------------------------------------------------

void SecureStoreClient::read_multi_writer(ItemId item, ReadOp op) {
  LogReadReq req;
  req.item = item;
  req.group = options_.policy.group;
  req.requester = client_id_;
  req.token = options_.token;

  struct Tally {
    WriteRecord record;
    std::size_t servers = 0;
  };
  struct Round {
    std::vector<Tally> tallies;
    std::size_t faulty_votes = 0;
    bool any_log_entry = false;
  };
  using Out = Result<ReadOutput>;
  const std::size_t agreement = config_.agreement_threshold();
  retrying_quorum<Round>(
      // b+1 matching logs become impossible once too many servers refuse.
      std::move(op), {net::MsgType::kLogRead, req.serialize(), agreement},
      [this](unsigned round) { return escalated(config_.data_quorum_byzantine(), round); },
      [this, item](Round& r, NodeId, BytesView body) {
        try {
          LogReadResp resp = LogReadResp::deserialize(body);
          if (resp.faulty_writer) ++r.faulty_votes;
          // Count each distinct write at most once per server.
          std::vector<std::pair<Timestamp, Bytes>> seen;
          for (const WriteRecord& record : resp.records) {
            if (record.item != item || record.model != options_.policy.model) continue;
            r.any_log_entry = true;
            const bool duplicate_in_reply =
                std::any_of(seen.begin(), seen.end(), [&](const auto& s) {
                  return s.first == record.ts && s.second == record.value_digest;
                });
            if (duplicate_in_reply) continue;
            seen.emplace_back(record.ts, record.value_digest);

            auto it = std::find_if(r.tallies.begin(), r.tallies.end(), [&](const Tally& t) {
              return t.record.ts == record.ts && t.record.value_digest == record.value_digest;
            });
            if (it == r.tallies.end()) {
              r.tallies.push_back(Tally{record, 1});
            } else {
              ++it->servers;
            }
          }
        } catch (const DecodeError&) {
        }
        return false;  // need the full 2b+1 round for the b+1 count
      },
      [this, item, agreement](auto& run) {
        const Round& r = run.state;
        run.op->trace->phase("verify");
        // b+1 servers vouching for "this writer equivocated" means at least
        // one correct server saw it.
        if (r.faulty_votes >= agreement) {
          run.op->trace->add("equivocations_seen");
          return run.finish(
              Out(Error::kFaultyWriter, "b+1 servers flagged the writer as equivocating"));
        }

        // "accept a value as valid only if b+1 or more servers reply with
        // the same value" — choose the newest such value at or above the
        // context floor.
        const Timestamp floor = context_.get(item);
        const WriteRecord* best = nullptr;
        for (const Tally& tally : r.tallies) {
          if (tally.servers < agreement) continue;
          if (tally.record.ts < floor) continue;
          if (best == nullptr || best->ts < tally.record.ts) best = &tally.record;
        }
        if (best != nullptr) {
          // Server-side validation substitutes for a client signature check
          // here (§6: "Clients do not have to do signature verification for
          // a read now since non-malicious servers do the validation before
          // reporting") — b+1 matching logs include at least one honest one.
          return run.finish(accept_read(*best));
        }

        if (!r.any_log_entry && run.refused > 0) {
          return run.retry(Out(Error::kOverloaded, "servers shed the read"));
        }
        run.retry(r.any_log_entry
                      ? Out(Error::kNoAgreement,
                            "no value matched in b+1 logs at or above the context")
                      : Out(Error::kNotFound, "no server logged the item"));
      });
}

}  // namespace securestore::core
