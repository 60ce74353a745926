#include "net/rpc.h"

#include "util/rng.h"

namespace securestore::net {

namespace {

// Envelope kind byte (PROTOCOL.md §1b): low 7 bits are the Kind, the high
// bit marks an optional trace-context field — `u8 length · context bytes` —
// inserted between the kind byte and the rpc id. Old-format envelopes have
// the bit clear and parse exactly as before.
constexpr std::uint8_t kTraceFlag = 0x80;

}  // namespace

RpcNode::RpcNode(Transport& transport, NodeId id)
    : transport_(transport),
      id_(id),
      expired_responses_(transport.registry().counter("rpc.response_expired")),
      misdirected_responses_(transport.registry().counter("rpc.response_misdirected")),
      malformed_dropped_(transport.registry().counter("rpc.malformed_dropped")),
      trace_ctx_malformed_(transport.registry().counter("rpc.trace_ctx_malformed")) {
  // Random 63-bit starting id: response matching also checks the sender,
  // but unguessable ids deny a Byzantine peer even the chance to race a
  // forged reply for an rpc it never saw. The top bit stays clear so the
  // counter cannot wrap within any conceivable session.
  next_rpc_id_ = (Rng(system_entropy_seed()).next_u64() >> 1) | 1;
  // Batched registration: transports with native batching hand every
  // message pending at one dispatch wakeup to deliver_batch in a single
  // call; the rest adapt through batches of one. Either way the node sees
  // messages in arrival order on the dispatch thread.
  transport_.register_node_batched(
      id_, [this](std::vector<Delivery>& batch) { deliver_batch(batch); });
}

RpcNode::~RpcNode() { transport_.unregister_node(id_); }

std::uint64_t RpcNode::send_request(NodeId to, MsgType type, Bytes body, ResponseFn on_response,
                                    const obs::TraceContext& trace) {
  const std::uint64_t rpc_id = next_rpc_id_++;
  pending_[rpc_id] = PendingRpc{to, std::move(on_response)};

  Writer w;
  if (trace.valid()) {
    w.u8(static_cast<std::uint8_t>(Kind::kRequest) | kTraceFlag);
    w.u8(static_cast<std::uint8_t>(obs::TraceContext::kWireSize));
    trace.encode(w);
  } else {
    w.u8(static_cast<std::uint8_t>(Kind::kRequest));
  }
  w.u64(rpc_id);
  w.u16(static_cast<std::uint16_t>(type));
  w.raw(body);
  transport_.send(id_, to, w.take());
  return rpc_id;
}

void RpcNode::cancel(std::uint64_t rpc_id) { pending_.erase(rpc_id); }

void RpcNode::send_oneway(NodeId to, MsgType type, Bytes body, const obs::TraceContext& trace) {
  Writer w;
  if (trace.valid()) {
    w.u8(static_cast<std::uint8_t>(Kind::kOneway) | kTraceFlag);
    w.u8(static_cast<std::uint8_t>(obs::TraceContext::kWireSize));
    trace.encode(w);
  } else {
    w.u8(static_cast<std::uint8_t>(Kind::kOneway));
  }
  w.u64(0);
  w.u16(static_cast<std::uint16_t>(type));
  w.raw(body);
  transport_.send(id_, to, w.take());
}

std::optional<RpcNode::Parsed> RpcNode::parse_envelope(BytesView payload) {
  Parsed out;
  try {
    Reader r(payload);
    const std::uint8_t kind_byte = r.u8();
    out.kind = static_cast<Kind>(kind_byte & ~kTraceFlag);
    if ((kind_byte & kTraceFlag) != 0) {
      // Optional trace-context field. The context is advisory metadata from
      // an untrusted peer: a bad length or an invalid context is counted
      // and STRIPPED (the message itself still processes normally when the
      // body boundary is recoverable), and unknown flag bits are cleared —
      // the one thing a Byzantine peer may influence is the parentage of
      // spans explicitly attributed to its own messages.
      const std::size_t length = r.u8();
      if (length < obs::TraceContext::kWireSize || length > obs::TraceContext::kMaxWireSize) {
        trace_ctx_malformed_.inc();
        if (length > r.remaining()) throw DecodeError("trace ctx length");
        (void)r.raw(length);  // strip; body boundary still known
      } else {
        if (length > r.remaining()) {
          trace_ctx_malformed_.inc();
          throw DecodeError("trace ctx length");
        }
        obs::TraceContext decoded = obs::TraceContext::decode(r);
        (void)r.raw(length - obs::TraceContext::kWireSize);  // future extensions
        decoded.flags &= obs::TraceContext::kSampledFlag;
        if (decoded.valid()) {
          out.trace = decoded;
        } else {
          trace_ctx_malformed_.inc();
        }
      }
    }
    out.rpc_id = r.u64();
    out.type = static_cast<MsgType>(r.u16());
    out.body = r.raw(r.remaining());
  } catch (const DecodeError&) {
    // Malformed datagram: drop, exactly like garbage off the wire — but
    // count it, since a burst of garbage is worth seeing in a dump.
    malformed_dropped_.inc();
    return std::nullopt;
  }
  return out;
}

void RpcNode::handle_response(NodeId from, const Parsed& msg) {
  const auto it = pending_.find(msg.rpc_id);
  if (it == pending_.end()) {
    // Late/duplicate/forged-for-an-unknown-id: ignore, but record —
    // expired responses are exactly the slow-server evidence the
    // bench/ops dumps want to correlate with timeouts.
    expired_responses_.inc();
    return;
  }
  // Reply binding: only the node the request was sent to may answer
  // it. A spoofed response from anyone else is dropped WITHOUT
  // consuming the pending rpc, so the real reply still gets through.
  if (it->second.target != from) {
    misdirected_responses_.inc();
    return;
  }
  ResponseFn callback = std::move(it->second.on_response);
  pending_.erase(it);
  callback(from, msg.type, msg.body);
}

void RpcNode::deliver_batch(std::vector<Delivery>& batch) {
  // Responses and one-ways are processed inline, in arrival order.
  // Requests are lifted out and handed to the request handler in one call
  // after the loop (so the server can batch-verify their signatures);
  // reordering a response ahead of a request from the same wakeup is
  // harmless, they address independent state (pending rpc table vs server
  // handlers). Every response waits for the commit hook.
  std::vector<IncomingRequest> requests;
  std::vector<std::uint64_t> rpc_ids;  // index-aligned with requests
  bool handled = false;  // a request or one-way ran: the batch has a commit point
  for (Delivery& d : batch) {
    auto parsed = parse_envelope(d.payload);
    if (!parsed.has_value()) continue;
    Parsed& msg = *parsed;
    switch (msg.kind) {
      case Kind::kRequest:
        if (!batch_request_handler_) break;
        requests.push_back(IncomingRequest{d.from, msg.type, std::move(msg.body), msg.trace});
        rpc_ids.push_back(msg.rpc_id);
        handled = true;
        break;
      case Kind::kResponse:
        handle_response(d.from, msg);
        break;
      case Kind::kOneway:
        if (oneway_handler_) {
          incoming_trace_ = msg.trace;
          oneway_handler_(d.from, msg.type, msg.body);
          incoming_trace_ = obs::TraceContext{};
          handled = true;
        }
        break;
    }
  }
  // A batch of responses alone has nothing to commit, and its callbacks may
  // have destroyed this node's owner: touch no member after them.
  if (!handled) return;
  std::vector<std::optional<std::pair<MsgType, Bytes>>> responses;
  if (!requests.empty()) responses = batch_request_handler_(requests);

  if (commit_hook_) commit_hook_();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    // A short result vector means "no response" for the tail — same
    // semantics as a nullopt entry.
    if (i >= responses.size() || !responses[i].has_value()) continue;
    Writer w;
    w.u8(static_cast<std::uint8_t>(Kind::kResponse));
    w.u64(rpc_ids[i]);
    w.u16(static_cast<std::uint16_t>(responses[i]->first));
    w.raw(responses[i]->second);
    transport_.send(id_, requests[i].from, w.take());
  }
}

}  // namespace securestore::net
