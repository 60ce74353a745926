// Append-only, segmented write-ahead log.
//
// A server's snapshot is periodic, so every accepted (and acked) mutation
// between two snapshots would vanish on a crash — silently shrinking the
// b+1/2b+1 quorums honest clients relied on (§5.2–5.3). The WAL closes that
// window: each accepted write/context is appended as a CRC-protected,
// length-prefixed frame, the owner commits (`sync()`) before the ack, and
// recovery replays `snapshot + WAL tail` through the normal apply paths so
// every invariant (ordering, equivocation flags, log bounds, causal holds)
// is re-established rather than trusted from disk.
//
// Group commit: `append` only writes the frame; `sync` is the one fsync of
// appended frames, so an owner that appends a whole delivery batch and then
// commits pays one fsync for all of it (DESIGN.md §7).
//
// On-disk layout (PROTOCOL.md §9): a directory of segment files named
// `wal-<first-lsn, 16 hex digits>.log`. Each segment starts with a header
// (magic, version, first LSN) followed by frames:
//
//   u32 len · u32 crc32(body) · body{ u8 type · u64 lsn · payload }
//
// A torn or corrupt tail frame fails its CRC (or its LSN regresses) and is
// truncated at recovery, never fatal; segments beyond the first corruption
// are unreachable history and are removed. Entirely-superseded segments are
// deleted once a durable snapshot covers their last LSN.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace securestore::storage {

enum class FsyncPolicy : std::uint8_t {
  kAlways,  // sync() fsyncs: every frame a commit covers is durable
  kNever,   // OS page cache only (survives process death, not power loss)
};

enum class WalEntryType : std::uint8_t {
  kWrite = 1,    // accepted WriteRecord (visible or parked in the hold queue)
  kContext = 2,  // accepted StoredContext
  kRelease = 3,  // a held write that became visible
};

struct WalStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t fsyncs = 0;            // data-file and directory fsyncs
  std::uint64_t rotations = 0;         // segments closed because of size
  std::uint64_t segments_removed = 0;  // dropped by snapshot truncation
  std::uint64_t replayed_entries = 0;  // entries handed to replay callbacks
  std::uint64_t truncated_tail_bytes = 0;  // torn/corrupt bytes dropped at recovery
};

struct WalOptions {
  std::string dir;  // created if missing
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  std::size_t segment_bytes = 1u << 20;  // rotate once the active segment reaches this
};

class WriteAheadLog {
 public:
  using ReplayFn =
      std::function<void(std::uint64_t lsn, WalEntryType type, BytesView payload)>;

  /// Opens (creating the directory if needed), scans existing segments,
  /// truncates any torn/corrupt tail, and positions for append after the
  /// last valid entry. Throws std::runtime_error on I/O failure.
  explicit WriteAheadLog(WalOptions options);
  /// Opens as above and, in the same pass that CRC-checks each frame,
  /// replays every valid entry with lsn > `replay_after` through `replay`,
  /// oldest first — a booting server reads its log once, not twice.
  WriteAheadLog(WalOptions options, std::uint64_t replay_after, const ReplayFn& replay);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Writes one entry's frame; it is durable only once a later sync()
  /// returns. Returns the entry's LSN (LSNs start at 1 and only grow).
  std::uint64_t append(WalEntryType type, BytesView payload);

  /// The commit point: one fsync makes every appended entry durable (under
  /// kNever the entries are merely handed to the OS). No-op when nothing
  /// is pending.
  void sync();

  /// The LSN of the newest entry ever appended (0 = empty log).
  std::uint64_t last_lsn() const { return next_lsn_ - 1; }
  /// The newest LSN the last commit covers: every entry at or below it
  /// survives a crash (under kAlways). Recovered entries count as synced.
  std::uint64_t synced_lsn() const { return synced_lsn_; }
  /// Whether appended entries await a sync().
  bool has_unsynced() const { return synced_lsn_ < last_lsn(); }

  /// Guarantees future LSNs exceed `lsn` — called after a snapshot restore
  /// so appends against a fresh/behind WAL can never collide with LSNs the
  /// snapshot already covers.
  void reserve_through(std::uint64_t lsn);

  /// Re-reads the log from disk and replays every entry with
  /// lsn > after_lsn, oldest first.
  void replay(std::uint64_t after_lsn, const ReplayFn& fn);

  /// Removes segments whose every entry has lsn <= `lsn` (i.e. is covered
  /// by a durable snapshot). The active segment always survives. Returns
  /// the number of segment files deleted.
  std::size_t truncate_up_to(std::uint64_t lsn);

  const WalStats& stats() const { return stats_; }
  std::size_t segment_count() const { return segments_.size(); }
  const std::string& dir() const { return options_.dir; }

 private:
  struct Segment {
    std::uint64_t first_lsn = 0;
    std::string path;
  };

  /// Scans every segment once: validates and truncates as the constructor
  /// documents, handing each valid entry with lsn > replay_after to
  /// `replay` (when set) as it is checked.
  void recover_existing(std::uint64_t replay_after, const ReplayFn& replay);
  void open_active(std::uint64_t first_lsn);
  void rotate();

  WalOptions options_;
  std::vector<Segment> segments_;  // ordered by first_lsn; back() is active
  int fd_ = -1;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t synced_lsn_ = 0;
  std::size_t active_size_ = 0;
  WalStats stats_;
};

/// fsyncs a directory so creates/renames/unlinks inside it are durable.
/// Best effort: silently returns if the directory refuses to open.
void fsync_dir(const std::string& dir);

}  // namespace securestore::storage
