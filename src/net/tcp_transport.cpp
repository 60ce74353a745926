#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace securestore::net {

namespace {

/// Reads exactly n bytes; false on EOF/error.
bool read_all(int fd, void* buffer, std::size_t n) {
  auto* out = static_cast<std::uint8_t*>(buffer);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_all(int fd, const void* buffer, std::size_t n) {
  const auto* in = static_cast<const std::uint8_t*>(buffer);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, in + sent, n - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

// Frame header (PROTOCOL.md §1a): magic · version · reserved(2) ·
// be32 length · be32 from · be32 to. `length` counts from+to+payload.
constexpr std::uint8_t kFrameMagic = 0xC5;
// Version 2 (PROTOCOL.md §1a): payload envelopes may carry an optional
// trace-context field. The frame header itself is unchanged, so readers
// accept both versions; we emit the current one.
constexpr std::uint8_t kFrameVersion = 2;
constexpr std::uint8_t kMinFrameVersion = 1;
constexpr std::size_t kHeaderSize = 16;
constexpr std::uint32_t kMaxFrame = 64 * 1024 * 1024;

// Send-path bounds: per-connection queue cap and reconnect backoff.
constexpr std::size_t kMaxQueueFrames = 1024;
constexpr int kMinBackoffMs = 10;
constexpr int kMaxBackoffMs = 2000;

void store_be32(std::uint8_t* out, std::uint32_t value) {
  out[0] = static_cast<std::uint8_t>(value >> 24);
  out[1] = static_cast<std::uint8_t>(value >> 16);
  out[2] = static_cast<std::uint8_t>(value >> 8);
  out[3] = static_cast<std::uint8_t>(value);
}

std::uint32_t load_be32(const std::uint8_t* in) {
  return (static_cast<std::uint32_t>(in[0]) << 24) | (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) | static_cast<std::uint32_t>(in[3]);
}

Bytes encode_frame(NodeId from, NodeId to, const Bytes& payload) {
  Bytes frame(kHeaderSize + payload.size());
  frame[0] = kFrameMagic;
  frame[1] = kFrameVersion;
  frame[2] = 0;
  frame[3] = 0;
  store_be32(frame.data() + 4, static_cast<std::uint32_t>(8 + payload.size()));
  store_be32(frame.data() + 8, from.value);
  store_be32(frame.data() + 12, to.value);
  std::memcpy(frame.data() + kHeaderSize, payload.data(), payload.size());
  return frame;
}

/// Blocking connect to the endpoint; -1 on failure. Loopback connects
/// resolve immediately (accept or ECONNREFUSED), so the writer thread is
/// never stuck here long — and it runs off every send path regardless.
int try_connect(const TcpEndpoint& endpoint) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &address.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

TcpTransport::Socket::~Socket() { ::close(fd); }

void TcpTransport::Socket::shut() { ::shutdown(fd, SHUT_RDWR); }

TcpTransport::TcpTransport(std::uint16_t listen_port, std::map<NodeId, TcpEndpoint> directory,
                           std::shared_ptr<obs::Registry> registry,
                           std::shared_ptr<obs::EventLog> events)
    : directory_(std::move(directory)), executor_(std::move(registry), std::move(events)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(listen_port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpTransport: bind() failed");
  }
  socklen_t length = sizeof(address);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
  port_ = ntohs(address.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpTransport: listen() failed");
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::stop() {
  // No handler runs once the executor has stopped; frames still arriving
  // find their ring closed and are counted dropped.
  executor_.stop();

  // Collect every connection, barring new ones, then close them all:
  // writers wake up and exit, readers are unblocked via socket shutdown.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard lock(directory_mutex_);
    if (closed_for_send_) return;
    closed_for_send_ = true;
    for (auto& [endpoint, conn] : outbound_) conns.push_back(conn);
    outbound_.clear();
    learned_.clear();
  }
  // Shut the listener down; accept() returns and the acceptor exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  {
    std::lock_guard lock(readers_mutex_);
    accepting_ = false;
    for (auto& conn : inbound_conns_) conns.push_back(conn);
    inbound_conns_.clear();
    for (auto& weak : sockets_) {
      if (const auto sock = weak.lock()) sock->shut();
    }
  }
  for (auto& conn : conns) {
    {
      std::lock_guard lock(conn->mutex);
      conn->closed = true;
    }
    conn->cv.notify_all();
  }

  if (acceptor_.joinable()) acceptor_.join();
  for (auto& conn : conns) {
    if (conn->writer.joinable()) conn->writer.join();
  }
  std::vector<std::thread> to_join;
  {
    std::lock_guard lock(readers_mutex_);
    to_join = std::move(readers_);
    readers_.clear();
  }
  for (std::thread& reader : to_join) {
    if (reader.joinable()) reader.join();
  }
}

void TcpTransport::set_endpoint(NodeId node, TcpEndpoint endpoint) {
  std::lock_guard lock(directory_mutex_);
  directory_[node] = std::move(endpoint);
}

void TcpTransport::drop_queue(Conn& conn) {
  if (conn.queue.empty()) return;
  executor_.count_dropped(conn.queue.size());
  conn.queue.clear();
}

void TcpTransport::enqueue_frame(const std::shared_ptr<Conn>& conn, Bytes frame) {
  std::size_t depth = 0;
  bool dropped = false;
  {
    std::lock_guard lock(conn->mutex);
    if (conn->closed || conn->queue.size() >= kMaxQueueFrames) {
      dropped = true;
    } else {
      conn->queue.push_back(std::move(frame));
      depth = conn->queue.size();
    }
  }
  conn->cv.notify_all();
  executor_.with_stats([&](sim::TransportStats& stats) {
    if (dropped) {
      ++stats.messages_dropped;
      ++stats.send_queue_drops;
    } else if (depth > stats.send_queue_highwater) {
      stats.send_queue_highwater = depth;
    }
  });
}

void TcpTransport::send(NodeId from, NodeId to, Bytes payload) {
  executor_.with_stats([&](sim::TransportStats& stats) {
    ++stats.messages_sent;
    stats.bytes_sent += payload.size();
  });

  // Local fast path.
  if (executor_.registered(to)) {
    executor_.deliver(from, to, std::move(payload));
    return;
  }

  if (payload.size() > kMaxFrame - 8) {
    executor_.count_dropped(1);
    return;
  }
  Bytes frame = encode_frame(from, to, payload);

  // Pick the channel: the connection the destination last spoke to us on,
  // else the directory endpoint's (created on first use). No socket I/O
  // happens here — the frame is queued and the connection's writer thread
  // does the rest.
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard lock(directory_mutex_);
    if (closed_for_send_) {
      executor_.count_dropped(1);
      return;
    }
    if (const auto learned = learned_.find(to); learned != learned_.end()) {
      if (learned->second->closed) {
        learned_.erase(learned);  // channel died; fall back to the directory
      } else {
        conn = learned->second;
      }
    }
    if (!conn) {
      const auto entry = directory_.find(to);
      if (entry == directory_.end()) {
        executor_.count_dropped(1);
        return;
      }
      auto [it, inserted] = outbound_.try_emplace(entry->second, nullptr);
      if (inserted) {
        it->second = std::make_shared<Conn>();
        it->second->endpoint = entry->second;
        it->second->writer = std::thread([this, c = it->second] { writer_loop(c); });
      }
      conn = it->second;
    }
  }
  enqueue_frame(conn, std::move(frame));
}

bool TcpTransport::start_reader(const std::shared_ptr<Conn>& conn,
                                const std::shared_ptr<Socket>& sock) {
  std::lock_guard lock(readers_mutex_);
  if (!accepting_) return false;
  sockets_.push_back(sock);
  readers_.emplace_back([this, sock, conn] { reader_loop(sock, conn); });
  return true;
}

void TcpTransport::writer_loop(std::shared_ptr<Conn> conn) {
  int backoff_ms = kMinBackoffMs;
  std::unique_lock lk(conn->mutex);
  while (true) {
    conn->cv.wait(lk, [&] { return conn->closed.load() || !conn->queue.empty(); });
    if (conn->closed) break;

    if (!conn->sock) {
      // Outbound channels (the only kind that can be up without a socket)
      // reconnect here, off every send path, with capped exponential
      // backoff; frames queued against an unreachable peer are dropped —
      // datagram semantics, the protocol timeouts handle it.
      const TcpEndpoint endpoint = *conn->endpoint;
      lk.unlock();
      const int fd = try_connect(endpoint);
      if (fd < 0) {
        executor_.with_stats([](sim::TransportStats& stats) { ++stats.connect_failures; });
        lk.lock();
        drop_queue(*conn);
        conn->cv.wait_for(lk, std::chrono::milliseconds(backoff_ms),
                          [&] { return conn->closed.load(); });
        backoff_ms = std::min(backoff_ms * 2, kMaxBackoffMs);
        continue;
      }
      auto sock = std::make_shared<Socket>(fd);
      if (!start_reader(conn, sock)) {
        // Stopping: the socket may not gain a reader, so it may not be
        // used (this also closes it, fixing the old cached-fd leak).
        sock->shut();
        lk.lock();
        drop_queue(*conn);
        continue;
      }
      lk.lock();
      if (conn->closed) {
        sock->shut();  // reader notices and cleans up
        break;
      }
      backoff_ms = kMinBackoffMs;
      if (conn->ever_connected) {
        executor_.with_stats([](sim::TransportStats& stats) { ++stats.reconnects; });
      }
      conn->ever_connected = true;
      conn->sock = sock;
    }

    Bytes frame = std::move(conn->queue.front());
    conn->queue.pop_front();
    const std::shared_ptr<Socket> sock = conn->sock;
    lk.unlock();
    const bool ok = write_all(sock->fd, frame.data(), frame.size());
    lk.lock();
    if (!ok) {
      executor_.count_dropped(1);
      if (conn->sock == sock) {
        sock->shut();  // reader notices, resets conn->sock and cleans up
      }
    }
  }
  drop_queue(*conn);
}

void TcpTransport::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listener closed: shutting down
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto sock = std::make_shared<Socket>(fd);
    auto conn = std::make_shared<Conn>();
    conn->sock = sock;
    conn->ever_connected = true;

    std::lock_guard lock(readers_mutex_);
    if (!accepting_) {
      // Nothing references the socket or connection; closing the fd via
      // ~Socket is the whole cleanup.
      return;
    }
    inbound_conns_.push_back(conn);
    sockets_.push_back(sock);
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
    readers_.emplace_back([this, sock, conn] { reader_loop(sock, conn); });
  }
}

void TcpTransport::reader_loop(std::shared_ptr<Socket> sock, std::shared_ptr<Conn> conn) {
  const int fd = sock->fd;
  while (true) {
    std::uint8_t header[kHeaderSize];
    if (!read_all(fd, header, sizeof(header))) break;
    // Versioned framing: a bad magic/version is a protocol error and tears
    // the connection down rather than desynchronizing the stream.
    if (header[0] != kFrameMagic || header[1] < kMinFrameVersion ||
        header[1] > kFrameVersion) {
      break;
    }
    const std::uint32_t frame_length = load_be32(header + 4);
    if (frame_length < 8 || frame_length > kMaxFrame) break;
    const NodeId from{load_be32(header + 8)};
    const NodeId to{load_be32(header + 12)};
    Bytes payload(frame_length - 8);
    if (!payload.empty() && !read_all(fd, payload.data(), payload.size())) break;
    {
      // Remember how to reach the sender: over this very channel.
      std::lock_guard lock(directory_mutex_);
      learned_[from] = conn;
    }
    executor_.deliver(from, to, std::move(payload));
  }

  // The socket is dead. Outbound channels drop it and let the writer
  // reconnect on the next frame; inbound channels are done for good.
  bool channel_gone = false;
  {
    std::lock_guard lock(conn->mutex);
    if (conn->sock == sock) conn->sock.reset();
    if (!conn->endpoint) {
      conn->closed = true;
      channel_gone = true;
    }
  }
  conn->cv.notify_all();
  if (channel_gone) {
    std::lock_guard lock(directory_mutex_);
    for (auto it = learned_.begin(); it != learned_.end();) {
      it = it->second == conn ? learned_.erase(it) : std::next(it);
    }
  }
  {
    std::lock_guard lock(readers_mutex_);
    std::erase_if(sockets_, [&](const std::weak_ptr<Socket>& weak) {
      const auto strong = weak.lock();
      return !strong || strong == sock;
    });
  }
  // Dropping our reference closes the fd once the writer is done with it.
}

}  // namespace securestore::net
