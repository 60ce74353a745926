#include "faults/malicious_client.h"

namespace securestore::faults {

MaliciousClient::MaliciousClient(net::Transport& transport, NodeId network_id,
                                 ClientId client_id, crypto::KeyPair keys,
                                 core::StoreConfig config, core::GroupPolicy policy)
    : node_(transport, network_id),
      client_id_(client_id),
      keys_(std::move(keys)),
      config_(std::move(config)),
      policy_(policy) {}

core::WriteRecord MaliciousClient::base_record(ItemId item, BytesView value) const {
  core::WriteRecord record;
  record.item = item;
  record.group = policy_.group;
  record.model = policy_.model;
  record.writer = client_id_;
  record.value = Bytes(value.begin(), value.end());
  return record;
}

void MaliciousClient::blast(const core::WriteRecord& record, std::size_t fanout) {
  core::WriteReq req;
  req.record = record;
  const Bytes body = req.serialize();
  for (std::size_t i = 0; i < fanout && i < config_.servers.size(); ++i) {
    // Fire-and-forget via a request we never wait on.
    node_.send_request(config_.servers[i], net::MsgType::kWrite, body,
                       [](NodeId, net::MsgType, BytesView) {});
  }
}

core::WriteRecord MaliciousClient::send_spurious_context_write(
    ItemId item, BytesView value, ItemId poisoned_item, std::uint64_t spurious_time,
    std::size_t fanout) {
  core::WriteRecord record = base_record(item, value);
  record.value_digest = crypto::meter_digest(record.value);
  record.ts = core::Timestamp{1, client_id_, record.value_digest};

  core::Context poisoned(policy_.group);
  poisoned.set(item, record.ts);
  // The attack: a dependency on a write that does not exist anywhere.
  poisoned.set(poisoned_item, core::Timestamp{spurious_time, client_id_,
                                              crypto::meter_digest(to_bytes("phantom"))});
  record.writer_context = std::move(poisoned);

  record.sign(keys_);
  blast(record, fanout);
  return record;
}

std::pair<core::WriteRecord, core::WriteRecord> MaliciousClient::send_equivocating_writes(
    ItemId item, BytesView value_a, BytesView value_b, std::uint64_t time,
    std::size_t fanout) {
  core::WriteRecord first = base_record(item, value_a);
  first.value_digest = crypto::meter_digest(first.value);
  first.ts = core::Timestamp{time, client_id_, first.value_digest};
  first.writer_context = core::Context(policy_.group);
  first.sign(keys_);

  core::WriteRecord second = base_record(item, value_b);
  second.value_digest = crypto::meter_digest(second.value);
  second.ts = core::Timestamp{time, client_id_, second.value_digest};  // same time!
  second.writer_context = core::Context(policy_.group);
  second.sign(keys_);

  blast(first, fanout);
  blast(second, fanout);
  return {first, second};
}

core::WriteRecord MaliciousClient::send_forged_writer_write(ItemId item, BytesView value,
                                                            ClientId victim,
                                                            std::size_t fanout) {
  core::WriteRecord record = base_record(item, value);
  record.writer = victim;  // claim someone else's identity
  record.value_digest = crypto::meter_digest(record.value);
  record.ts = core::Timestamp{1, victim, record.value_digest};
  record.writer_context = core::Context(policy_.group);
  // Signed with OUR key: the uid/key mismatch is what servers must catch.
  record.signature = crypto::meter_sign(keys_, record.signed_payload());
  blast(record, fanout);
  return record;
}

}  // namespace securestore::faults
