// Signed write records and signed contexts — what servers store.
//
// Per Fig. 2, a write message carries {uid(x_j), ts or X_i, v} plus the
// writer's signature over exactly those fields. Following §6 ("each write
// requires the signing of the digest of the value and the meta data"), the
// signature here covers the *digest* of the value rather than the value
// itself, so a record's meta-data alone is verifiable — servers exchange
// and validate meta-data during gossip and the meta phase of a read without
// shipping values.
//
// Servers are passive: they never produce these, only verify and store
// them, which is the paper's §5.2 correctness argument in code — "no
// malicious server can modify any data item since all data items are
// signed".
#pragma once

#include <optional>

#include "core/context.h"
#include "core/timestamp.h"
#include "core/types.h"
#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/ids.h"

namespace securestore::core {

/// Record flags (bit set, signed with the record).
enum RecordFlags : std::uint8_t {
  kNoFlags = 0,
  /// Fragmentation-scattering (§3, [14][18]): this record is one fragment
  /// of a value dispersed across servers. Scattered records are excluded
  /// from gossip — dissemination would concentrate every fragment (and key
  /// share) on every server, collapsing the secret-sharing threshold.
  kScattered = 1 << 0,
};

struct WriteRecord {
  ItemId item{};
  GroupId group{};
  ConsistencyModel model = ConsistencyModel::kMRC;
  std::uint8_t flags = kNoFlags;
  ClientId writer{};
  Timestamp ts;
  /// X_writer at write time; meaningful (non-empty) only for CC.
  Context writer_context;
  Bytes value;
  /// d(v): bound into the signature; for multi-writer data also appears
  /// inside `ts.digest`.
  Bytes value_digest;
  /// Writer's signature over `signed_payload()`.
  Bytes signature;

  /// The canonical bytes the signature covers: item, group, model, writer,
  /// ts, writer context, d(v). Everything a server relays and everything a
  /// reader's consistency decision depends on — but not the value, which is
  /// checked against d(v).
  Bytes signed_payload() const;

  /// Computes d(v), fills `value_digest`, signs. For multi-writer records
  /// the caller must have set ts.digest = d(v) first (checked).
  void sign(const crypto::KeyPair& writer);

  /// Full verification: signature over the meta-data AND value matches d(v).
  bool verify(BytesView writer_public_key) const;

  /// Meta-only verification (no value available): signature over meta-data.
  bool verify_meta(BytesView writer_public_key) const;

  /// The record without its value — what meta queries and reconstruction
  /// responses carry.
  WriteRecord meta_only() const;

  void encode(Writer& w) const;
  static WriteRecord decode(Reader& r);
  Bytes serialize() const;
  static WriteRecord deserialize(BytesView data);

  bool operator==(const WriteRecord& other) const = default;
};

/// A client's context as stored in the secure store (Fig. 1): the context
/// plus the owner's signature over its canonical serialization.
struct StoredContext {
  ClientId owner{};
  Context context;
  Bytes signature;

  Bytes signed_payload() const;
  void sign(const crypto::KeyPair& owner);
  bool verify(BytesView owner_public_key) const;

  void encode(Writer& w) const;
  static StoredContext decode(Reader& r);

  bool operator==(const StoredContext& other) const = default;
};

}  // namespace securestore::core
