#include "core/scatter.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/messages.h"
#include "crypto/chacha20.h"
#include "crypto/ida.h"
#include "crypto/shamir.h"

namespace securestore::core {

namespace {

/// The payload stored at one server: its IDA fragment plus its key share.
struct FragmentPayload {
  crypto::IdaFragment fragment;
  crypto::ShamirShare share;
  Bytes nonce;  // AEAD nonce of the ciphertext (same in every fragment)

  Bytes serialize() const {
    Writer w;
    w.u8(fragment.index);
    w.u32(fragment.original_size);
    w.bytes(fragment.data);
    w.u8(share.index);
    w.bytes(share.data);
    w.bytes(nonce);
    return w.take();
  }

  static FragmentPayload deserialize(BytesView data) {
    Reader r(data);
    FragmentPayload payload;
    payload.fragment.index = r.u8();
    payload.fragment.original_size = r.u32();
    payload.fragment.data = r.bytes();
    payload.share.index = r.u8();
    payload.share.data = r.bytes();
    payload.nonce = r.bytes();
    r.expect_end();
    return payload;
  }
};

}  // namespace

ItemId fragment_item(ItemId item, std::uint8_t server_index) {
  if (item.value >> 56 != 0) {
    throw std::invalid_argument("fragment_item: item uid must fit in 56 bits");
  }
  // Top bit tags the reserved fragment namespace so fragment uids can never
  // collide with plain item uids (which use at most 56 bits here).
  return ItemId{(item.value << 8) | server_index | (1ull << 63)};
}

ScatteredStore::ScatteredStore(net::Transport& transport, NodeId network_id,
                               ClientId client_id, crypto::KeyPair keys, StoreConfig config,
                               Options options, Rng rng)
    : node_(transport, network_id),
      client_id_(client_id),
      keys_(std::move(keys)),
      config_(std::move(config)),
      options_(std::move(options)),
      rng_(std::move(rng)) {
  config_.validate();
  if (config_.n < 2 * config_.b + 2) {
    throw std::invalid_argument("ScatteredStore: needs n >= 2b+2");
  }
  if (options_.policy.sharing != SharingMode::kSingleWriter) {
    throw std::invalid_argument("ScatteredStore: single-writer data only");
  }
}

Bytes ScatteredStore::data_key_aad(ItemId item) const {
  Writer w;
  w.str("securestore.scatter.v1");
  w.u64(item.value);
  return w.take();
}

void ScatteredStore::write(ItemId item, BytesView value, VoidCb done) {
  const unsigned m = threshold();  // IDA and Shamir threshold: b+1

  // 1. Encrypt under a fresh data key.
  const Bytes data_key = rng_.bytes(crypto::kChaChaKeySize);
  const Bytes nonce = rng_.bytes(crypto::kChaChaNonceSize);
  const Bytes ciphertext = crypto::aead_seal(data_key, nonce, data_key_aad(item), value);

  // 2. + 3. Disperse the ciphertext, share the key.
  const auto fragments = crypto::ida_disperse(ciphertext, m, config_.n);
  const auto shares = crypto::shamir_split(data_key, m, config_.n, rng_);

  // 4. One signed record per server.
  ++version_;
  auto acks = std::make_shared<std::size_t>(0);
  auto outstanding = std::make_shared<std::size_t>(config_.n);
  const std::size_t needed = config_.n - config_.b;
  auto finished = std::make_shared<bool>(false);

  for (std::uint32_t i = 0; i < config_.n; ++i) {
    FragmentPayload payload;
    payload.fragment = fragments[i];
    payload.share = shares[i];
    payload.nonce = nonce;

    WriteRecord record;
    record.item = fragment_item(item, static_cast<std::uint8_t>(i));
    record.group = options_.policy.group;
    record.model = options_.policy.model;
    record.flags = kScattered;
    record.writer = client_id_;
    record.ts = Timestamp{version_, {}, {}};
    record.writer_context = Context(options_.policy.group);
    record.value = payload.serialize();
    record.sign(keys_);

    WriteReq req;
    req.record = std::move(record);

    net::QuorumCall::start(
        node_, {config_.servers[i]}, net::MsgType::kWrite, req.serialize(),
        [acks](NodeId /*from*/, net::MsgType /*type*/, BytesView body) {
          try {
            if (WriteResp::deserialize(body).ok) ++*acks;
          } catch (const DecodeError&) {
          }
          return true;
        },
        [acks, outstanding, needed, finished, done](net::QuorumOutcome /*outcome*/,
                                                    std::size_t) {
          --*outstanding;
          if (*finished) return;
          if (*acks >= needed) {
            *finished = true;
            done(VoidResult{});
            return;
          }
          if (*outstanding == 0) {
            *finished = true;
            done(VoidResult(Error::kInsufficientQuorum,
                            "fewer than n-b servers stored their fragment"));
          }
        },
        net::QuorumCall::Options{options_.round_timeout});
  }
}

void ScatteredStore::read(ItemId item, ReadCb done) {
  const unsigned m = threshold();

  struct Collected {
    std::map<std::uint64_t, std::vector<FragmentPayload>> by_version;
    std::size_t replies = 0;
  };
  auto state = std::make_shared<Collected>();

  // One targeted request per server for ITS fragment uid; completion after
  // all servers answered or timed out.
  auto outstanding = std::make_shared<std::size_t>(config_.n);
  auto finish = [this, state, m, item, done]() {
    // Newest version with >= m fragments wins.
    for (auto it = state->by_version.rbegin(); it != state->by_version.rend(); ++it) {
      const auto& payloads = it->second;
      if (payloads.size() < m) continue;

      std::vector<crypto::IdaFragment> fragments;
      std::vector<crypto::ShamirShare> shares;
      for (const FragmentPayload& payload : payloads) {
        fragments.push_back(payload.fragment);
        shares.push_back(payload.share);
      }
      try {
        const Bytes ciphertext = crypto::ida_reconstruct(fragments, m);
        const Bytes data_key = crypto::shamir_combine(shares, m);
        const auto plaintext =
            crypto::aead_open(data_key, payloads.front().nonce, data_key_aad(item), ciphertext);
        if (plaintext.has_value()) {
          done(Result<Bytes>(*plaintext));
          return;
        }
        // AEAD failure: corrupted or mixed fragments — try an older version.
      } catch (const std::invalid_argument&) {
        // Inconsistent fragment set; try an older version.
      }
    }
    done(Result<Bytes>(state->by_version.empty() ? Error::kNotFound : Error::kNoAgreement,
                       state->by_version.empty()
                           ? "no server returned a fragment"
                           : "no version had b+1 consistent fragments"));
  };

  for (std::uint32_t i = 0; i < config_.n; ++i) {
    ReadReq req;
    req.item = fragment_item(item, static_cast<std::uint8_t>(i));
    req.group = options_.policy.group;
    req.requester = client_id_;

    net::QuorumCall::start(
        node_, {config_.servers[i]}, net::MsgType::kRead, req.serialize(),
        [this, state, expected_item = req.item](NodeId /*from*/, net::MsgType /*type*/,
                                                BytesView body) {
          try {
            ReadResp resp = ReadResp::deserialize(body);
            if (resp.record.has_value() && resp.record->item == expected_item &&
                (resp.record->flags & kScattered) &&
                resp.record->verify(keys_.public_key)) {
              FragmentPayload payload = FragmentPayload::deserialize(resp.record->value);
              state->by_version[resp.record->ts.time].push_back(std::move(payload));
            }
          } catch (const DecodeError&) {
          }
          return true;
        },
        [outstanding, finish](net::QuorumOutcome /*outcome*/, std::size_t) {
          if (--*outstanding == 0) finish();
        },
        net::QuorumCall::Options{options_.round_timeout});
  }
}

}  // namespace securestore::core
