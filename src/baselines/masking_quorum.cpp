#include "baselines/masking_quorum.h"

#include <algorithm>

#include "util/serial.h"

namespace securestore::baselines {

Bytes MqEntry::signed_payload(ItemId item) const {
  Writer w;
  w.str("maskingquorum.write.v1");
  w.u64(item.value);
  w.u64(ts);
  w.u32(writer.value);
  w.bytes(value);
  return w.take();
}

namespace {

Bytes encode_entry(const MqEntry& entry) {
  Writer w;
  w.u64(entry.ts);
  w.u32(entry.writer.value);
  w.bytes(entry.value);
  w.bytes(entry.signature);
  return w.take();
}

MqEntry decode_entry(Reader& r) {
  MqEntry entry;
  entry.ts = r.u64();
  entry.writer = ClientId{r.u32()};
  entry.value = r.bytes();
  entry.signature = r.bytes();
  return entry;
}

}  // namespace

MqServer::MqServer(net::Transport& transport, NodeId id, core::StoreConfig config)
    : node_(transport, id), config_(std::move(config)) {
  node_.set_batch_request_handler([this](std::vector<net::IncomingRequest>& batch) {
    std::vector<std::optional<std::pair<net::MsgType, Bytes>>> responses;
    responses.reserve(batch.size());
    for (const net::IncomingRequest& request : batch) {
      responses.push_back(handle(request.from, request.type, request.body));
    }
    return responses;
  });
}

const MqEntry* MqServer::current(ItemId item) const {
  const auto it = items_.find(item);
  return it != items_.end() ? &it->second : nullptr;
}

std::optional<std::pair<net::MsgType, Bytes>> MqServer::handle(NodeId /*from*/,
                                                               net::MsgType type,
                                                               BytesView body) {
  try {
    switch (type) {
      case net::MsgType::kMqTimestamp: {
        Reader r(body);
        const ItemId item{r.u64()};
        r.expect_end();
        Writer w;
        const auto it = items_.find(item);
        w.u64(it != items_.end() ? it->second.ts : 0);
        return std::make_pair(net::MsgType::kMqTimestamp, w.take());
      }
      case net::MsgType::kMqWrite: {
        Reader r(body);
        const ItemId item{r.u64()};
        MqEntry entry = decode_entry(r);
        r.expect_end();

        Writer w;
        const auto key_it = config_.client_keys.find(entry.writer.value);
        const bool valid =
            key_it != config_.client_keys.end() &&
            crypto::meter_verify(key_it->second, entry.signed_payload(item), entry.signature);
        if (valid) {
          auto& stored = items_[item];
          if (entry.ts > stored.ts || stored.value.empty()) stored = std::move(entry);
          w.u8(1);
        } else {
          w.u8(0);
        }
        return std::make_pair(net::MsgType::kMqWrite, w.take());
      }
      case net::MsgType::kMqRead: {
        Reader r(body);
        const ItemId item{r.u64()};
        r.expect_end();
        Writer w;
        const auto it = items_.find(item);
        if (it == items_.end()) {
          w.u8(0);
        } else {
          w.u8(1);
          w.raw(encode_entry(it->second));
        }
        return std::make_pair(net::MsgType::kMqRead, w.take());
      }
      default:
        return std::nullopt;
    }
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

MqClient::MqClient(net::Transport& transport, NodeId network_id, ClientId client_id,
                   crypto::KeyPair keys, core::StoreConfig config, Options options, Rng rng)
    : node_(transport, network_id),
      client_id_(client_id),
      keys_(std::move(keys)),
      config_(std::move(config)),
      options_(options) {
  server_order_ = config_.servers;
  for (std::size_t i = server_order_.size(); i > 1; --i) {
    std::swap(server_order_[i - 1], server_order_[rng.next_below(i)]);
  }
}

std::vector<NodeId> MqClient::pick_servers(std::size_t count) const {
  std::vector<NodeId> out(server_order_.begin(),
                          server_order_.begin() +
                              static_cast<std::ptrdiff_t>(std::min(count, server_order_.size())));
  return out;
}

void MqClient::write(ItemId item, BytesView value, VoidCb done) {
  const std::size_t q = quorum();

  Writer ts_req;
  ts_req.u64(item.value);

  // Phase 1: learn the highest timestamp in some quorum.
  auto max_ts = std::make_shared<std::uint64_t>(0);
  auto replies = std::make_shared<std::size_t>(0);
  net::QuorumCall::start(
      node_, pick_servers(q), net::MsgType::kMqTimestamp, ts_req.data(),
      [max_ts, replies, q](NodeId /*from*/, net::MsgType /*type*/, BytesView body) {
        try {
          Reader r(body);
          *max_ts = std::max(*max_ts, r.u64());
          ++*replies;
        } catch (const DecodeError&) {
        }
        return *replies >= q;
      },
      [this, item, value = Bytes(value.begin(), value.end()), max_ts, replies, q,
       done](net::QuorumOutcome /*outcome*/, std::size_t) {
        if (*replies < q) {
          done(VoidResult(Error::kInsufficientQuorum, "timestamp quorum not reached"));
          return;
        }

        // Phase 2: store with ts+1 at a quorum.
        MqEntry entry;
        entry.ts = *max_ts + 1;
        entry.writer = client_id_;
        entry.value = value;
        entry.signature = crypto::meter_sign(keys_, entry.signed_payload(item));

        Writer w;
        w.u64(item.value);
        w.raw(encode_entry(entry));

        auto acks = std::make_shared<std::size_t>(0);
        net::QuorumCall::start(
            node_, pick_servers(q), net::MsgType::kMqWrite, w.data(),
            [acks, q](NodeId /*from*/, net::MsgType /*type*/, BytesView body) {
              try {
                Reader r(body);
                if (r.u8() == 1) ++*acks;
              } catch (const DecodeError&) {
              }
              return *acks >= q;
            },
            [acks, q, done](net::QuorumOutcome /*outcome*/, std::size_t) {
              if (*acks >= q) {
                done(VoidResult{});
              } else {
                done(VoidResult(Error::kInsufficientQuorum, "write quorum not reached"));
              }
            },
            net::QuorumCall::Options{options_.round_timeout});
      },
      net::QuorumCall::Options{options_.round_timeout});
}

void MqClient::read(ItemId item, ReadCb done) {
  const std::size_t q = quorum();

  Writer req;
  req.u64(item.value);

  struct Candidate {
    MqEntry entry;
    std::size_t votes = 0;
  };
  auto candidates = std::make_shared<std::vector<Candidate>>();
  auto replies = std::make_shared<std::size_t>(0);

  net::QuorumCall::start(
      node_, pick_servers(q), net::MsgType::kMqRead, req.data(),
      [candidates, replies, q](NodeId /*from*/, net::MsgType /*type*/, BytesView body) {
        try {
          Reader r(body);
          ++*replies;
          if (r.u8() == 1) {
            MqEntry entry = decode_entry(r);
            auto it = std::find_if(candidates->begin(), candidates->end(),
                                   [&](const Candidate& c) {
                                     return c.entry.ts == entry.ts &&
                                            c.entry.value == entry.value &&
                                            c.entry.writer == entry.writer;
                                   });
            if (it == candidates->end()) {
              candidates->push_back(Candidate{std::move(entry), 1});
            } else {
              ++it->votes;
            }
          }
        } catch (const DecodeError&) {
        }
        return *replies >= q;
      },
      [this, candidates, replies, q, done](net::QuorumOutcome /*outcome*/, std::size_t) {
        if (*replies < q) {
          done(Result<Bytes>(Error::kInsufficientQuorum, "read quorum not reached"));
          return;
        }
        // Masking: the value is trusted only when b+1 servers agree on it;
        // choose the highest such timestamp.
        const Candidate* best = nullptr;
        for (const Candidate& candidate : *candidates) {
          if (candidate.votes < config_.b + 1) continue;
          if (best == nullptr || candidate.entry.ts > best->entry.ts) best = &candidate;
        }
        if (best == nullptr) {
          done(Result<Bytes>(Error::kNotFound, "no value with b+1 agreement"));
          return;
        }
        done(Result<Bytes>(best->entry.value));
      },
      net::QuorumCall::Options{options_.round_timeout});
}

}  // namespace securestore::baselines
