// The connection front end shared by vppbd and the proxy: bind, an
// accept thread, one IO thread per connection, the v8 handshake (TCP
// only) with keepalive, the idle reap, the frame limits, and the
// stop-time drain.  It never sees a Request or a Response: each frame
// read goes to the owner's handler, and the bytes it returns are
// written back before the next frame is read.  A handler that throws
// vppb::Error drops that connection; auth failures and idle reaps are
// reported through hooks so each tier keeps its own counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.hpp"
#include "util/socket.hpp"

namespace vppb::server {

/// The listener half of ServerOptions and ProxyOptions.
struct ListenerOptions {
  /// Unix-domain socket path; preferred when non-empty (any stale
  /// socket file is replaced).
  std::string unix_path;
  /// Loopback TCP port, used when unix_path is empty.  0 = ephemeral
  /// (read the bound port from tcp_port() after start()).
  std::uint16_t tcp_port = 0;

  // --- hostile-network hardening (protocol v8) ---
  /// Shared key for the TCP handshake (empty = the challenge still
  /// flows, flagged optional).  Unix sockets never authenticate: the
  /// socket file's permissions are the local trust boundary, and the
  /// loopback digest baseline must stay byte-identical.
  std::string auth_key;
  /// Bound on each handshake read/write; a peer that connects and then
  /// goes silent is dropped after this.
  std::int64_t auth_timeout_ms = 5000;
  /// Idle-connection reap: a connection with no new frame for this many
  /// milliseconds is closed (slowloris defense).  0 = never reap,
  /// preserving the long-lived-idle-client behaviour local tools rely
  /// on.
  std::int64_t idle_timeout_ms = 0;
  /// Total time a *started* frame may take to arrive before the
  /// connection is dropped (defeats one-byte-per-window trickling).
  /// 0 = unbounded.
  std::int64_t frame_deadline_ms = 0;
  /// Ceiling on accepted request frames, bytes (hostile peers should
  /// not get to pick allocation sizes up to the full 64 MiB protocol
  /// cap).  0 = the protocol cap.
  std::size_t max_request_frame_bytes = 0;
};

/// Turns one request frame into the encoded reply.  `payload` may be
/// modified in place; `conn_id` is unique per accepted connection.
using FrameHandler = std::function<std::vector<std::uint8_t>(
    std::vector<std::uint8_t>& payload, std::uint64_t conn_id)>;

struct FrameHooks {
  std::function<void()> auth_failure;  ///< a TCP peer failed the handshake
  std::function<void()> idle_reap;     ///< a connection idled or trickled out
};

class FrameServer {
 public:
  /// `log_name` is the component for log lines ("server", "proxy").
  FrameServer(ListenerOptions opt, std::string log_name, FrameHandler handler,
              FrameHooks hooks);
  ~FrameServer();  ///< calls stop()

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds the endpoint.  Throws vppb::Error, before any thread starts,
  /// when it cannot be bound or a time limit is below 0 or above
  /// INT_MAX milliseconds.
  void bind();
  /// Starts the accept thread; requires a successful bind().
  void start();
  /// Stops accepting, half-closes every connection's read side (the
  /// frame in flight is answered, then the IO thread sees EOF), joins
  /// everything and removes the unix socket file.  Idempotent.
  void stop();

  /// Human-readable bound endpoint ("path.sock" or "127.0.0.1:port").
  const std::string& endpoint() const { return endpoint_; }
  std::uint16_t tcp_port() const { return port_; }

 private:
  struct Conn {
    util::Socket sock;
    std::thread thread;
    std::uint64_t id = 0;
  };

  void accept_loop();
  void serve_connection(Conn* conn);

  ListenerOptions opt_;
  std::string log_name_;
  FrameHandler handler_;
  FrameHooks hooks_;
  int auth_timeout_ms_ = 0;  ///< range-checked copies, set by bind()
  int idle_timeout_ms_ = 0;
  FrameLimits limits_;

  util::Socket listener_;
  std::string endpoint_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;  ///< accept thread only
};

}  // namespace vppb::server
