#include "storage/wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "util/crc32.h"
#include "util/serial.h"

namespace securestore::storage {

namespace {

constexpr char kSegmentMagic[] = "SECURESTORE-WAL";
constexpr std::uint32_t kSegmentVersion = 1;
constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";

// Frame: u32 len · u32 crc · body{ u8 type · u64 lsn · payload }.
constexpr std::size_t kFrameHeaderBytes = 8;
constexpr std::size_t kFrameBodyMinBytes = 9;
// A length prefix beyond this is treated as corruption, not an allocation.
constexpr std::size_t kMaxFrameBody = 64u << 20;

void write_all(int fd, BytesView data) {
  const std::uint8_t* cursor = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, cursor, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("wal: write failed: ") + std::strerror(errno));
    }
    cursor += n;
    left -= static_cast<std::size_t>(n);
  }
}

Bytes read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw std::runtime_error("wal: cannot open " + path);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  Bytes data(size > 0 ? static_cast<std::size_t>(size) : 0);
  const std::size_t read = std::fread(data.data(), 1, data.size(), file);
  std::fclose(file);
  if (read != data.size()) throw std::runtime_error("wal: short read from " + path);
  return data;
}

std::string segment_file_name(std::uint64_t first_lsn) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(first_lsn));
  return std::string(kSegmentPrefix) + hex + kSegmentSuffix;
}

/// Parses `wal-<16 hex>.log` back to its first LSN; nullopt for other names.
std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  const std::string prefix(kSegmentPrefix);
  const std::string suffix(kSegmentSuffix);
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string hex = name.substr(prefix.size(), 16);
  if (hex.find_first_not_of("0123456789abcdef") != std::string::npos) return std::nullopt;
  return std::strtoull(hex.c_str(), nullptr, 16);
}

Bytes segment_header(std::uint64_t first_lsn) {
  Writer w;
  w.str(kSegmentMagic);
  w.u32(kSegmentVersion);
  w.u64(first_lsn);
  return w.take();
}

/// Walks one segment image: checks the header against `first_lsn`, then
/// each frame's length, CRC and LSN order (`next_lsn` is the smallest
/// acceptable LSN and advances past every valid frame — gaps are legal, a
/// snapshot restore may reserve_through() ahead of a fresh WAL;
/// regressions mean corruption). Every valid frame goes to
/// `visit(lsn, type, payload)` as soon as it is checked. Returns the byte
/// length of the valid prefix (0 = even the header is bad).
template <typename Visit>
std::size_t scan_segment(BytesView data, std::uint64_t first_lsn, std::uint64_t& next_lsn,
                         Visit&& visit) {
  Reader r(data);
  try {
    if (r.str() != kSegmentMagic) return 0;
    if (r.u32() != kSegmentVersion) return 0;
    if (r.u64() != first_lsn) return 0;
  } catch (const DecodeError&) {
    return 0;
  }
  std::size_t good = data.size() - r.remaining();
  while (r.remaining() >= kFrameHeaderBytes) {
    const std::uint32_t len = r.u32();
    if (len < kFrameBodyMinBytes || len > kMaxFrameBody) break;
    if (r.remaining() < 4 + static_cast<std::size_t>(len)) break;  // torn frame
    const std::uint32_t crc = r.u32();
    const BytesView body = r.view(len);
    if (crc32(body) != crc) break;
    Reader br(body);
    const auto type = static_cast<WalEntryType>(br.u8());
    const std::uint64_t lsn = br.u64();
    if (lsn < next_lsn) break;
    next_lsn = lsn + 1;
    good = data.size() - r.remaining();
    visit(lsn, type, body.subspan(kFrameBodyMinBytes));
  }
  return good;
}

}  // namespace

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

WriteAheadLog::WriteAheadLog(WalOptions options) : WriteAheadLog(std::move(options), 0, {}) {}

WriteAheadLog::WriteAheadLog(WalOptions options, std::uint64_t replay_after,
                             const ReplayFn& replay)
    : options_(std::move(options)) {
  if (options_.dir.empty()) throw std::runtime_error("wal: empty directory");
  std::filesystem::create_directories(options_.dir);
  recover_existing(replay_after, replay);
  synced_lsn_ = last_lsn();
  if (segments_.empty()) {
    open_active(next_lsn_);
  } else {
    const Segment& active = segments_.back();
    fd_ = ::open(active.path.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) throw std::runtime_error("wal: cannot reopen " + active.path);
    active_size_ = static_cast<std::size_t>(std::filesystem::file_size(active.path));
  }
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    sync();
    ::close(fd_);
  }
}

void WriteAheadLog::recover_existing(std::uint64_t replay_after, const ReplayFn& replay) {
  std::vector<Segment> found;
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir)) {
    if (!entry.is_regular_file()) continue;
    const auto first_lsn = parse_segment_name(entry.path().filename().string());
    if (first_lsn.has_value()) found.push_back({*first_lsn, entry.path().string()});
  }
  std::sort(found.begin(), found.end(),
            [](const Segment& a, const Segment& b) { return a.first_lsn < b.first_lsn; });

  bool corrupted = false;
  for (const Segment& segment : found) {
    if (corrupted || segment.first_lsn < next_lsn_) {
      // Past the first corruption (or overlapping LSNs — which only a
      // damaged directory produces): unreachable history, drop it.
      std::error_code ec;
      const auto size = std::filesystem::file_size(segment.path, ec);
      stats_.truncated_tail_bytes += ec ? 0 : static_cast<std::uint64_t>(size);
      std::filesystem::remove(segment.path, ec);
      corrupted = true;
      continue;
    }
    const Bytes data = read_file(segment.path);
    const std::size_t good = scan_segment(
        data, segment.first_lsn, next_lsn_,
        [&](std::uint64_t lsn, WalEntryType type, BytesView payload) {
          if (!replay || lsn <= replay_after) return;
          ++stats_.replayed_entries;
          replay(lsn, type, payload);
        });
    if (good == 0) {
      // Header unreadable: the whole file is garbage.
      stats_.truncated_tail_bytes += data.size();
      std::error_code ec;
      std::filesystem::remove(segment.path, ec);
      corrupted = true;
      continue;
    }
    if (good < data.size()) {
      // Torn or corrupt tail: keep the valid prefix, drop the rest.
      stats_.truncated_tail_bytes += data.size() - good;
      std::filesystem::resize_file(segment.path, good);
      corrupted = true;
    }
    segments_.push_back(segment);
  }
  if (corrupted) fsync_dir(options_.dir);
}

std::uint64_t WriteAheadLog::append(WalEntryType type, BytesView payload) {
  Writer body;
  body.u8(static_cast<std::uint8_t>(type));
  body.u64(next_lsn_);
  body.raw(payload);

  Writer frame;
  frame.u32(static_cast<std::uint32_t>(body.data().size()));
  frame.u32(crc32(body.data()));
  frame.raw(body.data());

  write_all(fd_, frame.data());
  active_size_ += frame.data().size();
  ++stats_.appends;
  stats_.bytes_appended += frame.data().size();
  const std::uint64_t lsn = next_lsn_++;
  if (active_size_ >= options_.segment_bytes) rotate();
  return lsn;
}

void WriteAheadLog::sync() {
  if (!has_unsynced() || fd_ < 0) return;
  if (options_.fsync == FsyncPolicy::kAlways) {
    ::fsync(fd_);
    ++stats_.fsyncs;
  }
  synced_lsn_ = last_lsn();
}

void WriteAheadLog::reserve_through(std::uint64_t lsn) {
  if (next_lsn_ > lsn) return;
  // Nothing pending stays nothing pending: the skipped LSNs hold no frames.
  const bool clean = !has_unsynced();
  next_lsn_ = lsn + 1;
  if (clean) synced_lsn_ = last_lsn();
}

void WriteAheadLog::replay(std::uint64_t after_lsn, const ReplayFn& fn) {
  std::uint64_t next_lsn = 0;
  for (const Segment& segment : segments_) {
    const Bytes data = read_file(segment.path);
    scan_segment(data, segment.first_lsn, next_lsn,
                 [&](std::uint64_t lsn, WalEntryType type, BytesView payload) {
                   if (lsn <= after_lsn) return;
                   ++stats_.replayed_entries;
                   fn(lsn, type, payload);
                 });
  }
}

std::size_t WriteAheadLog::truncate_up_to(std::uint64_t lsn) {
  std::size_t removed = 0;
  // segments_[i] covers [first_lsn_i, first_lsn_{i+1} - 1]: removable once
  // a durable snapshot covers everything before the next segment starts.
  while (segments_.size() > 1 && segments_[1].first_lsn <= lsn + 1) {
    std::error_code ec;
    std::filesystem::remove(segments_.front().path, ec);
    segments_.erase(segments_.begin());
    ++removed;
  }
  if (removed > 0) {
    stats_.segments_removed += removed;
    if (options_.fsync != FsyncPolicy::kNever) {
      fsync_dir(options_.dir);
      ++stats_.fsyncs;
    }
  }
  return removed;
}

void WriteAheadLog::open_active(std::uint64_t first_lsn) {
  const std::string path = options_.dir + "/" + segment_file_name(first_lsn);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd_ < 0) throw std::runtime_error("wal: cannot create " + path);
  const Bytes header = segment_header(first_lsn);
  write_all(fd_, header);
  active_size_ = header.size();
  if (options_.fsync != FsyncPolicy::kNever) {
    ::fsync(fd_);
    fsync_dir(options_.dir);
    stats_.fsyncs += 2;
  }
  segments_.push_back({first_lsn, path});
}

void WriteAheadLog::rotate() {
  sync();  // a closed segment is complete on disk before its successor exists
  ::close(fd_);
  ++stats_.rotations;
  open_active(next_lsn_);
}

}  // namespace securestore::storage
