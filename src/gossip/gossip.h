// Epidemic dissemination between servers (§4, §5.2).
//
// "We assume that servers keep themselves informed about updates in which
// they do not directly participate via a gossip or dissemination protocol
// [Demers et al.]. A non-faulty server transmits all the updates it has
// seen to at least one other non-faulty server."
//
// This engine implements periodic anti-entropy: every `period`, a server
// picks `fanout` random peers and sends each a digest of its current
// (item, timestamp) pairs. The peer pushes back records the digest is
// missing or behind on, and pulls records the digest is ahead on. All
// received records pass through the owner's apply callback, which verifies
// the writer's signature — "a faulty server cannot propagate a non-existent
// or forged write to other servers since all writes that are propagated
// have to be accompanied by the signature of the client" (§4).
//
// The tick period is the knob experiment E5 sweeps: it trades server
// bandwidth for read freshness, "a frequency that can be tuned according to
// the needs of the clients or the resources available to the servers"
// (§5.2).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/record.h"
#include "net/rpc.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "storage/engine.h"
#include "util/rng.h"

namespace securestore::gossip {

class GossipEngine {
 public:
  struct Config {
    SimDuration period = milliseconds(500);
    unsigned fanout = 1;
    /// Also push each locally-applied client write immediately to `fanout`
    /// peers (rumor mongering), instead of waiting for the next tick.
    bool push_on_write = false;
    /// Appended verbatim to every metric name (e.g. "{shard=2}") so several
    /// replica groups sharing one registry stay distinguishable.
    std::string metric_suffix;
  };

  /// Applies every record of one kGossipUpdates message to the owner's
  /// store in a single call: verify the writer signatures (as one Ed25519
  /// batch), run causal-hold logic, etc. Returns one accepted/rejected flag
  /// per record, index-aligned with the input.
  using ApplyBatchFn = std::function<std::vector<bool>(
      const std::vector<std::pair<core::WriteRecord, obs::TraceContext>>& records, NodeId from)>;

  GossipEngine(net::RpcNode& node, const storage::StorageEngine& store,
               std::vector<NodeId> peers, Config config, Rng rng, ApplyBatchFn apply);
  ~GossipEngine();

  GossipEngine(const GossipEngine&) = delete;
  GossipEngine& operator=(const GossipEngine&) = delete;

  /// Begins periodic ticking. Idempotent.
  void start();
  /// Stops future ticks (in-flight messages still deliver).
  void stop();
  bool running() const { return running_; }

  /// Sharded deployments (DESIGN.md §11): when set, every tick also offers
  /// the supplier's serialized signed ring state to the tick's peers as a
  /// kGossipRing one-way (empty bytes = nothing to offer), and incoming
  /// kGossipRing messages are handed to `on_ring`. The engine treats the
  /// bytes as opaque; verification belongs to the owner's install path.
  using RingSupplier = std::function<Bytes()>;
  using RingHandler = std::function<void(NodeId from, BytesView body)>;
  void set_ring_hooks(RingSupplier supplier, RingHandler on_ring) {
    ring_supplier_ = std::move(supplier);
    on_ring_ = std::move(on_ring);
  }

  /// Handles gossip one-way messages; the owning server routes
  /// kGossipDigest/kGossipUpdates/kGossipRequest/kGossipRing here.
  void handle(NodeId from, net::MsgType type, BytesView body);

  /// Rumor-mongering hook: owner calls this right after applying a fresh
  /// client write when push_on_write is on.
  void push_record(const core::WriteRecord& record);

  /// Remembers the trace context under which `record` became visible here,
  /// so gossip hand-offs of that record carry the originating operation's
  /// context onward (and receivers can measure write-to-visible lag).
  /// No-op for invalid contexts; newest timestamp per item wins.
  void note_origin(const core::WriteRecord& record, const obs::TraceContext& ctx);

  const Config& config() const { return config_; }
  std::uint64_t ticks() const { return ticks_; }
  /// Transport-clock time of the most recent anti-entropy tick (0 before
  /// the first). The introspection endpoint derives gossip staleness from
  /// it (PROTOCOL.md §13).
  SimTime last_tick_at() const { return last_tick_at_; }

 private:
  struct DigestEntry {
    ItemId item{};
    core::Timestamp ts;
  };

  void tick();
  void send_digest(NodeId peer);
  std::vector<NodeId> pick_peers();

  static Bytes encode_digest(const std::vector<DigestEntry>& entries);
  static std::vector<DigestEntry> decode_digest(BytesView body);
  /// Member (not static): each record is suffixed with its origin trace
  /// context from `origins_`, when one is known.
  Bytes encode_updates(const std::vector<core::WriteRecord>& records) const;
  static std::vector<std::pair<core::WriteRecord, obs::TraceContext>> decode_updates(
      BytesView body);
  static Bytes encode_request(const std::vector<ItemId>& items);
  static std::vector<ItemId> decode_request(BytesView body);

  /// The context to attach to `record` on the wire; invalid when unknown.
  obs::TraceContext origin_of(const core::WriteRecord& record) const;

  net::RpcNode& node_;
  const storage::StorageEngine& store_;
  std::vector<NodeId> peers_;
  Config config_;
  Rng rng_;
  ApplyBatchFn apply_;
  RingSupplier ring_supplier_;
  RingHandler on_ring_;
  // Anti-entropy accounting (handles into the transport's registry).
  obs::Counter& rounds_;
  obs::Counter& records_sent_;
  obs::Counter& records_received_;
  obs::Counter& records_rejected_;
  obs::Counter& malformed_dropped_;
  obs::Counter& non_gossip_dropped_;
  obs::Histogram& digest_entries_;
  obs::Histogram& round_us_;  // wall time per anti-entropy round
  /// Transport-clock lag from a write's root-span origin to the moment it
  /// became visible HERE via gossip. Only meaningful where the nodes share
  /// a transport clock (sim/thread; TCP processes have distinct epochs).
  obs::Histogram& write_to_visible_us_;
  obs::EventLog& events_;
  /// Per item: the trace context of the newest write seen, carried onward
  /// with gossip hand-offs. Bounded by the number of distinct items.
  struct Origin {
    core::Timestamp ts;
    obs::TraceContext ctx;
  };
  std::unordered_map<ItemId, Origin> origins_;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  SimTime last_tick_at_ = 0;
  std::uint64_t generation_ = 0;  // invalidates scheduled ticks after stop()
  // Scheduled tick callbacks outlive arbitrary engine lifetimes (server
  // restarts); they hold this flag and bail out once the engine is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace securestore::gossip
