// Request/response correlation over the datagram transport.
//
// Every protocol interaction in the paper is "client asks k servers, waits
// for replies". `RpcNode` gives each participant a typed request/response
// endpoint: requests carry an rpc id echoed by the response; one-way
// messages (gossip) use `send_oneway`. Responses for unknown/expired rpc
// ids are dropped, so late or duplicated replies from slow or malicious
// servers are harmless — but never invisibly: every such drop lands in the
// transport's metrics registry (`rpc.response_expired`,
// `rpc.response_misdirected`, `rpc.malformed_dropped`), so a flood of late
// or spoofed replies shows up in dumps instead of vanishing.
//
// Reply binding: every pending rpc remembers which node it was sent to,
// and a response is accepted only when its transport-level sender matches
// that target — a Byzantine server cannot answer for an honest one (the
// paper's P1–P6 all count replies from *specific* servers). Rpc ids start
// at a random 63-bit value per node so they are not trivially guessable
// by a peer that has not seen the request.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "util/serial.h"

namespace securestore::net {

/// Message type tags. One flat space across protocols keeps the envelope
/// trivial; handlers dispatch on the value.
enum class MsgType : std::uint16_t {
  // Secure store (core protocols)
  kContextRead = 1,
  kContextWrite = 2,
  kMetaRequest = 3,   // timestamp query, first phase of Fig. 2 read
  kRead = 4,          // value fetch from the chosen server
  kWrite = 5,
  kLogRead = 6,       // multi-writer: request the recent-writes log
  kReconstruct = 7,   // context reconstruction: all timestamps in a group
  kStability = 8,     // stability certificate for log garbage collection
  kAuditRead = 9,     // fetch the server's hash-chained audit log
  // Gossip
  kGossipDigest = 20,
  kGossipUpdates = 21,
  kGossipRequest = 22,
  kGossipRing = 23,   // signed ring state (shard membership, PROTOCOL.md §10)
  // Masking-quorum baseline
  kMqRead = 30,
  kMqWrite = 31,
  kMqTimestamp = 32,
  // PBFT-lite baseline
  kPbftRequest = 40,
  kPbftPrePrepare = 41,
  kPbftPrepare = 42,
  kPbftCommit = 43,
  kPbftReply = 44,
  // Generic
  kAck = 100,
  kError = 101,
  kWrongShard = 102,  // misrouted request; body is the server's signed ring
  kOverloaded = 103,  // admission control shed the request; body is a signed
                      // retry-after hint (PROTOCOL.md §12)
  // Introspection (PROTOCOL.md §13): unauthenticated but rate-limited
  // health/metrics exposition; response body format is chosen by the
  // request (binary status, Prometheus text, JSON, recent events).
  kIntrospect = 110,
};

/// One request lifted out of a delivery batch for batched handling: the
/// transport-authenticated sender, the decoded envelope fields, and the
/// sanitized trace context it carried.
struct IncomingRequest {
  NodeId from{};
  MsgType type{};
  Bytes body;
  obs::TraceContext trace{};
};

class RpcNode {
 public:
  /// Response callback: sender, response type, body.
  using ResponseFn = std::function<void(NodeId from, MsgType type, BytesView body)>;
  /// Request handler: every request the transport had pending at one
  /// dispatch wakeup, in arrival order (a batch of one when nothing else
  /// was pending). Returns one response (type, body) per request,
  /// index-aligned; nullopt means no response (the rpc will time out at the
  /// caller — how a server "chooses not to respond"). Servers use the batch
  /// to amortize per-request costs — one Ed25519 batch verification per
  /// wakeup instead of one scalar verification per request.
  using BatchRequestHandler = std::function<std::vector<std::optional<std::pair<MsgType, Bytes>>>(
      std::vector<IncomingRequest>& batch)>;
  /// One-way handler (gossip and other unsolicited messages).
  using OnewayHandler = std::function<void(NodeId from, MsgType type, BytesView body)>;
  /// Commit point of a delivery batch (see set_commit_hook).
  using CommitHook = std::function<void()>;

  RpcNode(Transport& transport, NodeId id);
  ~RpcNode();

  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  NodeId id() const { return id_; }
  Transport& transport() { return transport_; }
  const Transport& transport() const { return transport_; }

  /// Requests arriving in one transport delivery batch are handed to this
  /// handler in a single call, after the batch's responses and one-ways.
  /// Without a handler, requests are dropped unanswered.
  void set_batch_request_handler(BatchRequestHandler handler) {
    batch_request_handler_ = std::move(handler);
  }
  void set_oneway_handler(OnewayHandler handler) { oneway_handler_ = std::move(handler); }
  /// Runs once per delivered batch that carried a request or one-way,
  /// after every request and one-way in it was handled and before the
  /// batch's first response is sent. A durable
  /// server commits its write-ahead log here, so one fsync covers the whole
  /// batch and no ack leaves before what it acknowledges is on disk
  /// (DESIGN.md §7). One-ways sent from inside handlers leave immediately:
  /// they acknowledge nothing.
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// Sends a request; `on_response` fires at most once when the matching
  /// response arrives. Returns the rpc id (for cancel). A valid `trace`
  /// context rides along in the envelope (PROTOCOL.md §1b) so the
  /// receiver's spans link back to the originating operation; responses
  /// never carry one.
  std::uint64_t send_request(NodeId to, MsgType type, Bytes body, ResponseFn on_response,
                             const obs::TraceContext& trace = {});

  /// Drops interest in a pending rpc; a late response is ignored.
  void cancel(std::uint64_t rpc_id);

  /// Fire-and-forget message.
  void send_oneway(NodeId to, MsgType type, Bytes body, const obs::TraceContext& trace = {});

  /// The (sanitized) trace context of the one-way whose handler is
  /// currently executing; invalid outside handler invocation. Handlers
  /// parent their server-side spans to this (requests carry theirs in
  /// `IncomingRequest::trace`). Never trusted
  /// blindly: malformed or oversized contexts are counted
  /// (`rpc.trace_ctx_malformed`) and stripped before the handler runs, and
  /// unknown flag bits are cleared, so a Byzantine peer cannot inflate
  /// another node's event log beyond well-formed parentage claims.
  const obs::TraceContext& incoming_trace() const { return incoming_trace_; }

  /// Number of requests still awaiting a response (diagnostics/tests: a
  /// well-behaved caller cancels what it stops waiting for, so this should
  /// return to zero between operations).
  std::size_t pending_count() const { return pending_.size(); }

 private:
  enum class Kind : std::uint8_t { kRequest = 0, kResponse = 1, kOneway = 2 };

  struct PendingRpc {
    NodeId target;  // only this node's response is accepted
    ResponseFn on_response;
  };

  /// A decoded envelope. `kind == kRequest` payloads also carry `rpc_id`;
  /// responses carry the id they answer; one-ways ignore it.
  struct Parsed {
    Kind kind{};
    std::uint64_t rpc_id = 0;
    MsgType type{};
    Bytes body;
    obs::TraceContext trace{};
  };

  /// Envelope decode + trace sanitation. nullopt = malformed (already
  /// counted).
  std::optional<Parsed> parse_envelope(BytesView payload);

  /// The one delivery funnel, for every transport (a transport without
  /// native batching hands over batches of one).
  void deliver_batch(std::vector<Delivery>& batch);
  void handle_response(NodeId from, const Parsed& msg);

  Transport& transport_;
  NodeId id_;
  std::uint64_t next_rpc_id_;  // randomized at construction
  std::unordered_map<std::uint64_t, PendingRpc> pending_;
  BatchRequestHandler batch_request_handler_;
  OnewayHandler oneway_handler_;
  CommitHook commit_hook_;
  obs::TraceContext incoming_trace_{};
  // Invisible-drop accounting (handles into transport().registry()).
  obs::Counter& expired_responses_;
  obs::Counter& misdirected_responses_;
  obs::Counter& malformed_dropped_;
  obs::Counter& trace_ctx_malformed_;
};

}  // namespace securestore::net
