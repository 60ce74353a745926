// Tamper-evident audit log.
//
// The Bayou follow-up the paper discusses in §3 ([Spreitzer et al. 1997])
// "propose[d] logging and auditing of writes and reads to detect and
// rectify damage done by malicious servers". This is that mechanism: every
// accepted write is appended to a hash chain
//
//   h_0 = H("audit-genesis"),   h_i = H(h_{i-1} · entry_i)
//
// so an auditor who fetches a server's log can verify that nothing was
// retroactively altered or deleted (any edit breaks every subsequent link),
// and can cross-compare logs from different servers: a signed write present
// in one honest log but permanently absent from another server's log
// convicts that server of suppression (§4 requires non-faulty servers to
// propagate all updates they have seen).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/record.h"
#include "util/bytes.h"
#include "util/time.h"

namespace securestore::storage {

struct AuditEntry {
  std::uint64_t sequence = 0;   // position in this server's chain
  SimTime accepted_at = 0;      // server-local time of acceptance
  ItemId item{};
  core::Timestamp ts;
  ClientId writer{};
  Bytes record_digest;          // d(signed payload): identifies the write
  Bytes chain_hash;             // h_i

  void encode(Writer& w) const;
  static AuditEntry decode(Reader& r);
};

class AuditLog {
 public:
  AuditLog();

  /// Appends an accepted write. Returns the new chain head.
  const Bytes& append(const core::WriteRecord& record, SimTime accepted_at);

  const std::vector<AuditEntry>& entries() const { return entries_; }
  const Bytes& head() const { return head_; }
  std::size_t size() const { return entries_.size(); }

  Bytes serialize() const;
  /// Decodes a log and checks every link of its chain in the same pass.
  /// Throws DecodeError on malformed bytes; a well-formed log whose chain
  /// is broken still decodes (an auditor must be able to report it), with
  /// verify() false.
  static AuditLog deserialize(BytesView data);

  /// False iff some link of the chain is broken. Links are checked as
  /// entries enter the log: append() computes each one, deserialize()
  /// recomputes and compares every one, so this is O(1).
  bool verify() const;

  /// True iff a write with this record digest appears in the log.
  bool contains(BytesView record_digest) const;

 private:
  using Digest = std::array<std::uint8_t, 32>;

  static Bytes genesis();
  static Digest link(BytesView previous, const AuditEntry& entry);

  std::vector<AuditEntry> entries_;
  Bytes head_;
  bool intact_ = true;
};

/// Cross-server audit findings.
struct AuditFinding {
  enum class Kind {
    kBrokenChain,     // a server's log fails hash verification
    kMissingWrite,    // a write known to peers is absent from this server
  };
  Kind kind;
  NodeId server{};
  Bytes record_digest;  // the affected write (kMissingWrite)
  std::string detail;
};

/// Compares verified logs across servers. Dissemination carries each
/// item's NEWEST record (superseded versions are legitimately absent from
/// peers), so the suppression check is per item: for every item, the newest
/// stable write any verified log records must be matched-or-exceeded by
/// every other log. `tolerate_tail` skips the newest entries of each log
/// when establishing the baseline (dissemination lag is not suppression).
std::vector<AuditFinding> cross_audit(
    const std::vector<std::pair<NodeId, const AuditLog*>>& logs,
    std::size_t tolerate_tail);

}  // namespace securestore::storage
