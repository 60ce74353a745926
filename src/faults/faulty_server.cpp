#include "faults/faulty_server.h"

#include <thread>

#include "util/serial.h"

namespace securestore::faults {

FaultyServer::FaultyServer(net::Transport& transport, NodeId id, core::StoreConfig config,
                           crypto::KeyPair keys, Options options, Rng rng,
                           std::set<ServerFault> faults)
    : SecureStoreServer(transport, id, std::move(config), std::move(keys),
                        std::move(options), std::move(rng)),
      faults_(std::move(faults)) {
  if (has(ServerFault::kCrash)) gossip().stop();
}

void FaultyServer::sync_wal(storage::WriteAheadLog& wal) {
  SecureStoreServer::sync_wal(wal);
  if (has(ServerFault::kSlowDisk)) std::this_thread::sleep_for(kSlowDiskStall);
}

bool FaultyServer::accept_request(NodeId /*from*/, net::MsgType type) {
  if (has(ServerFault::kCrash)) return false;
  // A durability-lying server refuses incoming data however it arrives:
  // acknowledging client writes it discards while honestly applying gossip
  // would repair the very state it is suppressing.
  if (has(ServerFault::kDropWrites) && type == net::MsgType::kGossipUpdates) return false;
  if (has(ServerFault::kMuteData)) {
    switch (type) {
      case net::MsgType::kMetaRequest:
      case net::MsgType::kRead:
      case net::MsgType::kLogRead:
      case net::MsgType::kReconstruct:
        return false;
      default:
        break;
    }
  }
  return true;
}

std::optional<std::optional<std::pair<net::MsgType, Bytes>>> FaultyServer::preempt_request(
    NodeId /*from*/, net::MsgType type, BytesView /*body*/) {
  if (has(ServerFault::kDropWrites) &&
      (type == net::MsgType::kWrite || type == net::MsgType::kContextWrite)) {
    // Lie about durability: acknowledge without storing. The client counts
    // this ack toward its quorum while one fewer correct server holds the
    // data — tolerated as long as at most b servers do this.
    if (type == net::MsgType::kWrite) {
      core::WriteResp resp;
      resp.ok = true;
      return std::optional(std::make_pair(net::MsgType::kWrite, resp.serialize()));
    }
    core::AckResp resp;
    resp.ok = true;
    return std::optional(std::make_pair(net::MsgType::kAck, resp.serialize()));
  }
  return std::nullopt;
}

std::optional<std::pair<net::MsgType, Bytes>> FaultyServer::filter_response(
    NodeId /*from*/, net::MsgType request_type, BytesView request_body,
    std::optional<std::pair<net::MsgType, Bytes>> honest) {
  if (!honest.has_value()) return honest;

  if (has(ServerFault::kStaleContext) && request_type == net::MsgType::kContextRead) {
    if (!stale_context_reply_.has_value()) {
      stale_context_reply_ = honest->second;  // freeze the first reply
    }
    return std::make_pair(honest->first, *stale_context_reply_);
  }

  if (has(ServerFault::kStaleData)) {
    const bool data_request = request_type == net::MsgType::kMetaRequest ||
                              request_type == net::MsgType::kRead ||
                              request_type == net::MsgType::kLogRead;
    if (data_request) {
      try {
        Reader r(request_body);
        const std::uint64_t item = r.u64();  // leading field of all three
        const auto key = std::make_pair(static_cast<std::uint16_t>(request_type), item);
        const auto it = stale_data_replies_.find(key);
        if (it == stale_data_replies_.end()) {
          stale_data_replies_[key] = honest->second;
        } else {
          return std::make_pair(honest->first, it->second);
        }
      } catch (const DecodeError&) {
      }
    }
  }

  if (has(ServerFault::kCorruptValues)) {
    const bool data_response = request_type == net::MsgType::kMetaRequest ||
                               request_type == net::MsgType::kRead ||
                               request_type == net::MsgType::kLogRead ||
                               request_type == net::MsgType::kContextRead ||
                               request_type == net::MsgType::kReconstruct;
    if (data_response) {
      return std::make_pair(honest->first, corrupted(request_type, honest->second));
    }
  }

  return honest;
}

Bytes FaultyServer::corrupted(net::MsgType /*type*/, Bytes honest_body) const {
  // Flip bits in the back half of the message, where values/signatures
  // live; headers stay parseable so the client exercises its verification
  // path rather than its decode path.
  if (honest_body.size() > 8) {
    for (std::size_t i = honest_body.size() / 2; i < honest_body.size(); i += 7) {
      honest_body[i] ^= 0x5a;
    }
  }
  return honest_body;
}

}  // namespace securestore::faults
