// Byzantine server behaviors (§4: "faulty servers can behave arbitrarily
// while executing the secure store protocols").
//
// Each behavior models one of the attacks the paper's correctness
// discussion enumerates (§5.1/§5.2): a compromised server "can either not
// respond to a request, or respond with old data or data that is
// corrupted". Behaviors compose (a server can be both stale and corrupt);
// `kCrash` subsumes the rest.
//
// Used by the availability/robustness tests and by benches E7/E8.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "core/server.h"

namespace securestore::faults {

enum class ServerFault : std::uint8_t {
  /// Ignores every request and stops gossiping (a crashed or unplugged
  /// machine).
  kCrash,
  /// Stores writes but never answers client data requests (silent
  /// denial of service; gossip continues so peers stay unharmed).
  kMuteData,
  /// Answers context reads with the oldest context it ever served —
  /// the replay attack the signed-context design tolerates.
  kStaleContext,
  /// Answers meta/read/log requests with the oldest record it ever served
  /// for the item — "respond with old data".
  kStaleData,
  /// Flips bytes in the values (and records) it returns — "data that is
  /// corrupted"; signatures make this detectable.
  kCorruptValues,
  /// Acknowledges writes with ok=true but throws them away (lying about
  /// durability).
  kDropWrites,
  /// Honest, but every WAL commit stalls kSlowDiskStall (a failing or
  /// saturated disk): what admission control must see to shed.
  kSlowDisk,
};

/// Extra latency each WAL commit pays under ServerFault::kSlowDisk.
inline constexpr std::chrono::milliseconds kSlowDiskStall{20};

class FaultyServer final : public core::SecureStoreServer {
 public:
  FaultyServer(net::Transport& transport, NodeId id, core::StoreConfig config,
               crypto::KeyPair keys, Options options, Rng rng,
               std::set<ServerFault> faults);

  const std::set<ServerFault>& faults() const { return faults_; }
  bool has(ServerFault fault) const { return faults_.contains(fault); }

 protected:
  bool accept_request(NodeId from, net::MsgType type) override;
  std::optional<std::optional<std::pair<net::MsgType, Bytes>>> preempt_request(
      NodeId from, net::MsgType type, BytesView body) override;
  std::optional<std::pair<net::MsgType, Bytes>> filter_response(
      NodeId from, net::MsgType request_type, BytesView request_body,
      std::optional<std::pair<net::MsgType, Bytes>> honest) override;
  void sync_wal(storage::WriteAheadLog& wal) override;

 private:
  Bytes corrupted(net::MsgType type, Bytes honest_body) const;

  std::set<ServerFault> faults_;
  // First-served responses, replayed forever under the stale behaviors.
  std::optional<Bytes> stale_context_reply_;
  std::map<std::pair<std::uint16_t, std::uint64_t>, Bytes> stale_data_replies_;
};

}  // namespace securestore::faults
