#include "server/frame_server.hpp"

#include <unistd.h>

#include <climits>

#include "obs/log.hpp"
#include "server/auth.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::server {

namespace {

using obs::LogLevel;

/// The socket layer takes int milliseconds; a wider value must be
/// refused, not narrowed (a wrapped frame deadline reads as
/// "unbounded" and would silently disable the trickle defence).
int checked_ms(const char* name, std::int64_t ms) {
  if (ms < 0 || ms > INT_MAX)
    throw Error(strprintf("%s must be in [0, %d] ms, got %lld", name, INT_MAX,
                          static_cast<long long>(ms)));
  return static_cast<int>(ms);
}

}  // namespace

FrameServer::FrameServer(ListenerOptions opt, std::string log_name,
                         FrameHandler handler, FrameHooks hooks)
    : opt_(std::move(opt)),
      log_name_(std::move(log_name)),
      handler_(std::move(handler)),
      hooks_(std::move(hooks)) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::bind() {
  auth_timeout_ms_ = checked_ms("auth timeout", opt_.auth_timeout_ms);
  idle_timeout_ms_ = checked_ms("idle timeout", opt_.idle_timeout_ms);
  limits_.frame_deadline_ms =
      checked_ms("frame deadline", opt_.frame_deadline_ms);
  if (opt_.max_request_frame_bytes > 0)
    limits_.max_bytes = opt_.max_request_frame_bytes;
  if (!opt_.unix_path.empty()) {
    listener_ = util::listen_unix(opt_.unix_path);
    endpoint_ = opt_.unix_path;
  } else {
    port_ = opt_.tcp_port;
    listener_ = util::listen_tcp(port_);
    endpoint_ = strprintf("127.0.0.1:%u", port_);
  }
}

void FrameServer::start() {
  VPPB_CHECK_MSG(listener_.valid(), "frame server started before bind()");
  running_.store(true);
  accept_thread_ = std::thread(&FrameServer::accept_loop, this);
}

void FrameServer::stop() {
  if (!running_.exchange(false)) return;
  accept_thread_.join();
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& c : conns_) c->sock.shutdown_read();
  }
  // The accept thread is gone, so conns_ is stable from here.
  for (auto& c : conns_)
    if (c->thread.joinable()) c->thread.join();
  conns_.clear();
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
}

void FrameServer::accept_loop() {
  while (running_.load()) {
    util::Socket s = util::accept_with_timeout(listener_, 100);
    if (!s.valid()) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (!running_.load()) break;  // raced with stop(): drop the socket
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->sock = std::move(s);
    conn->id = next_conn_id_++;
    conn->thread = std::thread(&FrameServer::serve_connection, this, conn);
  }
}

void FrameServer::serve_connection(Conn* conn) {
  const char* name = log_name_.c_str();
  try {
    // TCP peers must pass the v8 handshake before the first frame is
    // read; the rejection is typed, bounded (fixed-size preamble, never
    // a length-prefixed allocation), and pre-dispatch.
    if (opt_.unix_path.empty()) {
      try {
        AuthConfig cfg;
        cfg.key = opt_.auth_key;
        cfg.handshake_timeout_ms = auth_timeout_ms_;
        auth_accept(conn->sock, cfg);
      } catch (const Error& e) {
        // A wrong key is worth a warning; a peer that hung up or went
        // silent mid-handshake is not.
        if (hooks_.auth_failure) hooks_.auth_failure();
        obs::logf(dynamic_cast<const AuthError*>(&e) ? LogLevel::kWarn
                                                     : LogLevel::kDebug,
                  name, "handshake failed: %s", e.what());
        conn->sock.shutdown_both();
        return;
      }
      // Half-open connections (peer host gone without a FIN) must die
      // deterministically, not after the kernel's multi-hour default.
      conn->sock.set_keepalive(/*idle_s=*/30, /*interval_s=*/10,
                               /*probes=*/3, /*user_timeout_ms=*/45000);
    }
    if (idle_timeout_ms_ > 0) conn->sock.set_recv_timeout(idle_timeout_ms_);
    std::vector<std::uint8_t> payload;
    while (read_frame(conn->sock, payload, limits_))
      write_frame(conn->sock, handler_(payload, conn->id));
  } catch (const util::SocketTimeout& e) {
    // Idle past the deadline, or a started frame trickling in too
    // slowly: reap the connection.  The server owes this peer nothing.
    if (hooks_.idle_reap) hooks_.idle_reap();
    obs::logf(LogLevel::kInfo, name, "idle connection reaped: %s", e.what());
  } catch (const Error& e) {
    // Broken framing, a lost peer, or a handler refusing the stream:
    // the connection is the unit of failure — drop it, serve the rest.
    obs::logf(LogLevel::kDebug, name, "connection dropped: %s", e.what());
  }
  // The Conn object lives until stop() joins its thread, but the wire
  // must not: shut the socket down now so a peer blocked on recv sees
  // EOF the moment we stop serving it.  shutdown (not close) — stop()
  // may concurrently shutdown_read() this fd, and closing here would
  // race that against fd reuse.
  conn->sock.shutdown_both();
}

}  // namespace vppb::server
