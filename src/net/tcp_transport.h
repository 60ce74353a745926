// TCP transport: the store over real sockets.
//
// Each process runs one TcpTransport: it listens on its own port, hosts any
// number of local nodes, and routes messages to remote nodes through a
// static endpoint map (NodeId -> host:port) — the deployment directory a
// real installation would distribute alongside the key directory.
//
// Wire framing per message (PROTOCOL.md §1a, all integers big-endian):
// u8 magic (0xC5) · u8 version (2) · u16 reserved (0) ·
// u32 length (8 + payload) · u32 from · u32 to · payload.
// Readers accept versions 1 and 2 (2 marks that payload envelopes may
// carry an optional trace-context field; the frame header is unchanged).
//
// Send path: `send()` never performs socket I/O. It frames the message and
// enqueues it on the destination connection's bounded send queue; a
// per-connection writer thread drains the queue and owns connect/reconnect
// with capped exponential backoff, entirely off the caller's path. A full
// queue or an unconnectable peer drops frames (counted in stats) — like
// the other transports, delivery is best-effort datagram semantics and the
// protocol timeouts handle loss.
//
// Receive path: reader threads (and the local-send fast path) hand each
// message to the shared net::Executor (see executor.h), which owns the
// delivery rings, the one dispatch thread that runs every delivery and
// scheduled callback, the batched drains and the shutdown accounting.
// Call stop() before destroying nodes registered on the transport.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/executor.h"
#include "net/transport.h"

namespace securestore::net {

struct TcpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  bool operator==(const TcpEndpoint&) const = default;
  bool operator<(const TcpEndpoint& other) const {
    return std::tie(host, port) < std::tie(other.host, other.port);
  }
};

class TcpTransport final : public Transport {
 public:
  /// Binds and listens on `listen_port` (0 = pick an ephemeral port, see
  /// `port()`). `directory` maps every node in the deployment to its
  /// process's endpoint; nodes registered locally are delivered in-process.
  /// `registry` scopes this process's metrics; null = own a fresh one.
  /// `events` scopes the event log the same way.
  TcpTransport(std::uint16_t listen_port, std::map<NodeId, TcpEndpoint> directory,
               std::shared_ptr<obs::Registry> registry = nullptr,
               std::shared_ptr<obs::EventLog> events = nullptr);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// The actual listening port (after ephemeral resolution).
  std::uint16_t port() const { return port_; }

  /// Adds/updates directory entries (e.g. once an ephemeral peer port is
  /// known). Thread-safe.
  void set_endpoint(NodeId node, TcpEndpoint endpoint);

  void register_node(NodeId node, DeliverFn deliver) override {
    executor_.register_node(node, std::move(deliver));
  }
  void register_node_batched(NodeId node, BatchDeliverFn deliver) override {
    executor_.register_node_batched(node, std::move(deliver));
  }
  void unregister_node(NodeId node) override { executor_.unregister_node(node); }
  void send(NodeId from, NodeId to, Bytes payload) override;
  SimTime now() const override { return executor_.now(); }
  void schedule(SimDuration delay, std::function<void()> callback) override {
    executor_.schedule(delay, std::move(callback));
  }
  /// Delivery-ring occupancy of `node` (approximate; racing producers).
  std::size_t backlog(NodeId node) const override { return executor_.backlog(node); }
  const sim::TransportStats& stats() const override { return executor_.stats_view(); }
  void reset_stats() override { executor_.reset_stats(); }
  obs::Registry& registry() override { return executor_.registry(); }
  obs::EventLog& events() override { return executor_.events(); }

  /// Joins all background threads; idempotent.
  void stop();

 private:
  /// A live socket. Held by shared_ptr from its reader and (while writing)
  /// its connection, so the fd is closed — and its number freed for reuse —
  /// only after every user is done with it. `shut()` is the cross-thread
  /// kill switch: safe while any holder is blocked in recv/send.
  struct Socket {
    explicit Socket(int fd) : fd(fd) {}
    ~Socket();
    void shut();
    const int fd;
  };

  /// One logical channel with its own writer thread and bounded send
  /// queue. Outbound channels (endpoint set) reconnect on failure; inbound
  /// channels (accepted sockets used for learned reply routes) close for
  /// good when their socket dies.
  struct Conn {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Bytes> queue;            // framed messages awaiting write
    std::atomic<bool> closed{false};    // terminal; set under mutex
    bool ever_connected = false;        // distinguishes connects from reconnects
    std::shared_ptr<Socket> sock;       // null while disconnected/reconnecting
    std::optional<TcpEndpoint> endpoint;  // outbound reconnect target
    std::thread writer;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Socket> sock, std::shared_ptr<Conn> conn);
  void writer_loop(std::shared_ptr<Conn> conn);
  /// Registers the socket and spawns its reader; false when stopping (the
  /// socket is then shut down and must not be used).
  bool start_reader(const std::shared_ptr<Conn>& conn, const std::shared_ptr<Socket>& sock);
  void enqueue_frame(const std::shared_ptr<Conn>& conn, Bytes frame);
  /// Drops every queued frame, counting them. Caller holds conn.mutex.
  void drop_queue(Conn& conn);

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  mutable std::mutex directory_mutex_;
  std::map<NodeId, TcpEndpoint> directory_;
  std::map<TcpEndpoint, std::shared_ptr<Conn>> outbound_;
  // Learned routes: a node that sent us a frame is reachable over that same
  // connection — how servers answer clients on ephemeral ports without a
  // directory entry.
  std::map<NodeId, std::shared_ptr<Conn>> learned_;
  bool closed_for_send_ = false;  // stop() ran: no new connections

  Executor executor_;  // its dispatch thread runs send() from handlers
  std::thread acceptor_;
  std::mutex readers_mutex_;
  std::vector<std::thread> readers_;
  std::vector<std::shared_ptr<Conn>> inbound_conns_;     // for stop() to close
  std::vector<std::weak_ptr<Socket>> sockets_;           // for stop() to shut down
  bool accepting_ = true;  // guarded by readers_mutex_
};

}  // namespace securestore::net
