#include "storage/audit_log.h"

#include <algorithm>
#include <array>
#include <map>

#include "crypto/sha2.h"
#include "util/serial.h"

namespace securestore::storage {

void AuditEntry::encode(Writer& w) const {
  w.u64(sequence);
  w.u64(accepted_at);
  w.u64(item.value);
  ts.encode(w);
  w.u32(writer.value);
  w.bytes(record_digest);
  w.bytes(chain_hash);
}

AuditEntry AuditEntry::decode(Reader& r) {
  AuditEntry entry;
  entry.sequence = r.u64();
  entry.accepted_at = r.u64();
  entry.item = ItemId{r.u64()};
  entry.ts = core::Timestamp::decode(r);
  entry.writer = ClientId{r.u32()};
  entry.record_digest = r.bytes();
  entry.chain_hash = r.bytes();
  return entry;
}

Bytes AuditLog::genesis() { return crypto::sha256(to_bytes("securestore.audit.genesis.v1")); }

AuditLog::AuditLog() : head_(genesis()) {}

namespace {

/// Feeds a hash the exact bytes a Writer would produce for the same calls,
/// staged in a fixed buffer instead of a growing heap one: a whole audit
/// link normally fits, so it reaches the hash as one update.
class HashWriter {
 public:
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void raw(BytesView data) {
    if (data.size() > kStage - staged_) {
      flush();
      if (data.size() > kStage) {
        hash_.update(data);
        return;
      }
    }
    std::copy(data.begin(), data.end(), stage_.begin() + static_cast<std::ptrdiff_t>(staged_));
    staged_ += data.size();
  }
  void bytes(BytesView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  std::array<std::uint8_t, crypto::Sha256::kDigestSize> finish() {
    flush();
    return hash_.finish();
  }

 private:
  static constexpr std::size_t kStage = 192;

  void le(std::uint64_t v, int width) {
    std::uint8_t buf[8];
    for (int i = 0; i < width; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    raw(BytesView(buf, static_cast<std::size_t>(width)));
  }
  void flush() {
    hash_.update(BytesView(stage_.data(), staged_));
    staged_ = 0;
  }

  crypto::Sha256 hash_;
  std::array<std::uint8_t, kStage> stage_;
  std::size_t staged_ = 0;
};

/// Smallest encoded AuditEntry (empty digests): bounds how many entries a
/// blob of a given size can hold, so a hostile count cannot force a huge
/// reservation.
constexpr std::size_t kMinEncodedEntry = 8 + 8 + 8 + (8 + 4 + 4) + 4 + 4 + 4;

}  // namespace

AuditLog::Digest AuditLog::link(BytesView previous, const AuditEntry& entry) {
  // Same bytes as Writer{raw(previous), u64 sequence, u64 accepted_at,
  // u64 item, Timestamp::encode, u32 writer, bytes record_digest}.
  HashWriter w;
  w.raw(previous);
  w.u64(entry.sequence);
  w.u64(entry.accepted_at);
  w.u64(entry.item.value);
  w.u64(entry.ts.time);
  w.u32(entry.ts.writer.value);
  w.bytes(entry.ts.digest);
  w.u32(entry.writer.value);
  w.bytes(entry.record_digest);
  return w.finish();
}

const Bytes& AuditLog::append(const core::WriteRecord& record, SimTime accepted_at) {
  AuditEntry entry;
  entry.sequence = entries_.size();
  entry.accepted_at = accepted_at;
  entry.item = record.item;
  entry.ts = record.ts;
  entry.writer = record.writer;
  entry.record_digest = crypto::sha256(record.signed_payload());
  const Digest chain_hash = link(head_, entry);
  entry.chain_hash.assign(chain_hash.begin(), chain_hash.end());
  head_ = entry.chain_hash;
  entries_.push_back(std::move(entry));
  return head_;
}

Bytes AuditLog::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const AuditEntry& entry : entries_) entry.encode(w);
  return w.take();
}

AuditLog AuditLog::deserialize(BytesView data) {
  Reader r(data);
  AuditLog log;
  const std::uint32_t count = r.u32();
  log.entries_.reserve(std::min<std::size_t>(count, r.remaining() / kMinEncodedEntry));
  for (std::uint32_t i = 0; i < count; ++i) {
    AuditEntry entry = AuditEntry::decode(r);
    // Once one link fails the verdict is settled; the rest only decodes.
    if (log.intact_) {
      const Digest expected = link(log.head_, entry);
      log.intact_ = entry.sequence == i &&
                    std::equal(expected.begin(), expected.end(), entry.chain_hash.begin(),
                               entry.chain_hash.end());
    }
    log.head_ = entry.chain_hash;
    log.entries_.push_back(std::move(entry));
  }
  r.expect_end();
  return log;
}

bool AuditLog::verify() const { return intact_; }

bool AuditLog::contains(BytesView record_digest) const {
  return std::any_of(entries_.begin(), entries_.end(), [&](const AuditEntry& entry) {
    return entry.record_digest.size() == record_digest.size() &&
           std::equal(entry.record_digest.begin(), entry.record_digest.end(),
                      record_digest.begin());
  });
}

std::vector<AuditFinding> cross_audit(
    const std::vector<std::pair<NodeId, const AuditLog*>>& logs,
    std::size_t tolerate_tail) {
  std::vector<AuditFinding> findings;

  // 1. Per-server chain integrity.
  for (const auto& [server, log] : logs) {
    if (!log->verify()) {
      findings.push_back(AuditFinding{AuditFinding::Kind::kBrokenChain, server, {},
                                      "hash chain fails verification"});
    }
  }

  // 2. Suppression, per item: establish the newest stable write any
  // verified log recorded, then require every log to have caught up to it.
  struct Newest {
    core::Timestamp ts;
    Bytes digest;
  };
  std::map<std::uint64_t, Newest> baseline;  // item -> newest stable write
  for (const auto& [server, log] : logs) {
    if (!log->verify()) continue;
    const std::size_t count = log->entries().size();
    const std::size_t stable = count > tolerate_tail ? count - tolerate_tail : 0;
    for (std::size_t i = 0; i < stable; ++i) {
      const AuditEntry& entry = log->entries()[i];
      auto [it, inserted] =
          baseline.try_emplace(entry.item.value, Newest{entry.ts, entry.record_digest});
      if (!inserted && it->second.ts < entry.ts) {
        it->second = Newest{entry.ts, entry.record_digest};
      }
    }
  }

  for (const auto& [server, log] : logs) {
    if (!log->verify()) continue;  // already reported
    for (const auto& [item, newest] : baseline) {
      const bool caught_up = std::any_of(
          log->entries().begin(), log->entries().end(), [&](const AuditEntry& entry) {
            return entry.item.value == item && !(entry.ts < newest.ts);
          });
      if (!caught_up) {
        findings.push_back(AuditFinding{AuditFinding::Kind::kMissingWrite, server,
                                        newest.digest,
                                        "item's newest write is absent from this log"});
      }
    }
  }
  return findings;
}

}  // namespace securestore::storage
