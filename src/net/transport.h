// Transport abstraction.
//
// Protocol code (clients, servers, gossip, baselines) is written against
// this interface; the concrete `SimTransport` routes datagrams through the
// discrete-event simulator. Delivery is asynchronous and unreliable —
// messages to partitioned or losing links silently vanish, exactly like
// UDP — so every protocol carries its own timeouts.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/ring.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "sim/metrics.h"
#include "util/bytes.h"
#include "util/ids.h"
#include "util/time.h"

namespace securestore::net {

class Transport {
 public:
  /// Invoked on the receiving node with the sender's id and the payload.
  /// NOTE: the sender id is transport-provided (i.e. authenticated at the
  /// channel level, per the paper's §4 secure-channel assumption); payload
  /// authenticity is still the protocol's job via signatures.
  using DeliverFn = std::function<void(NodeId from, BytesView payload)>;

  /// Batched receive handler: every message the transport had pending for
  /// the node at wakeup time, in arrival order, up to kMaxDeliveryBatch per
  /// call. Receivers that can amortize per-message work across a batch
  /// (signature verification above all) register this instead of DeliverFn.
  using BatchDeliverFn = std::function<void(std::vector<Delivery>& batch)>;

  /// Ceiling on how many pending messages a transport hands a batch
  /// handler per wakeup — bounds both handler latency and the size of the
  /// downstream signature-verification batch.
  static constexpr std::size_t kMaxDeliveryBatch = 32;

  virtual ~Transport() = default;

  /// Registers a node's receive handler. A node must be registered before
  /// messages can be delivered to it; re-registering replaces the handler.
  virtual void register_node(NodeId node, DeliverFn deliver) = 0;

  /// Batched registration. Transports with native batching (sim, thread,
  /// TCP) coalesce every message pending at a dispatch wakeup into one
  /// handler call; the default implementation adapts per-message delivery
  /// by wrapping each message in a batch of one, so minimal Transport
  /// implementations (test doubles) work unchanged.
  virtual void register_node_batched(NodeId node, BatchDeliverFn deliver);

  /// Removes a node; pending messages to it are dropped on delivery.
  virtual void unregister_node(NodeId node) = 0;

  /// Sends a datagram. Never fails synchronously; loss is silent.
  virtual void send(NodeId from, NodeId to, Bytes payload) = 0;

  /// Current (simulated) time.
  virtual SimTime now() const = 0;

  /// Schedules a callback after `delay` (protocol timeouts, gossip ticks).
  virtual void schedule(SimDuration delay, std::function<void()> callback) = 0;

  /// Instantaneous inbound backlog for `node`: messages the transport has
  /// accepted for it but not yet delivered (delivery-ring occupancy on the
  /// thread/TCP transports, modeled service queue under the simulator).
  /// The admission controller's network-pressure signal (DESIGN.md §13).
  /// Default 0 so minimal Transport implementations feel no pressure.
  virtual std::size_t backlog(NodeId node) const {
    (void)node;
    return 0;
  }

  /// Hands one service slot back to `node`'s capacity model. The admission
  /// gate refuses before any decode/crypto/WAL cost is paid (DESIGN.md
  /// §13), so under a per-message service-cost model a refusal must not
  /// consume the CPU budget an admitted request would — shedding is O(1)
  /// by construction. No-op on transports without a capacity model.
  virtual void refund_service(NodeId node) { (void)node; }

  /// Transport counters since the last reset: message counts for every
  /// transport, plus connection-level counters (reconnects, connect
  /// failures, send-queue drops/high-water) for connection-oriented ones.
  /// The returned reference stays valid until the next stats() call on the
  /// same transport; copy it before calling again if you need a snapshot.
  virtual const sim::TransportStats& stats() const = 0;
  virtual void reset_stats() = 0;

  /// The metrics registry every component on this transport reports
  /// through (DESIGN.md §8): clients, servers, gossip and the rpc layer
  /// all resolve their metric handles here, and the concrete transports
  /// fold their own TransportStats in as `transport.*` gauges via a
  /// snapshot-time collector. The default implementation hands out one
  /// process-wide registry so minimal Transport implementations (test
  /// doubles) keep working; the real transports each own (or share, when
  /// injected) a registry scoped to the deployment.
  virtual obs::Registry& registry();

  /// The structured event log spans and instant events are recorded into
  /// (DESIGN.md §8): same scoping story as `registry()` — the concrete
  /// transports each own (or share, when injected) one per deployment, and
  /// the default implementation hands out a process-wide fallback so
  /// minimal Transport implementations keep working. Disabled by default;
  /// tracing harnesses flip it on.
  virtual obs::EventLog& events();
};

/// Publishes a TransportStats snapshot into `registry` as `transport.*`
/// gauges — the collector body every concrete transport registers.
void fold_transport_stats(obs::Registry& registry, const sim::TransportStats& stats);

}  // namespace securestore::net
