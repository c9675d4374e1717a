// A network fault-injection relay: a byte-level TCP/Unix proxy that
// sits between two vppb endpoints and injects wire-level faults on a
// seeded, deterministic schedule — the VPPB_FAULT idea extended from
// the process to the network.
//
// The relay accepts connections on its own endpoint and pumps bytes to
// a fixed target, applying the configured rules to every forwarded
// chunk.  Schedules are seeded (xorshift64*), so a chaos run that
// passes is a reproducible proof, not a coin flip.
//
// Spec grammar (comma-separated entries, like VPPB_FAULT):
//
//   delay-ms:N        pause N ms before forwarding each chunk
//                     (both directions — models path latency)
//   drop:P            P% of connections (seeded per-connection coin)
//                     are cut after a random prefix of forwarded bytes
//   partition:S:D     full partition window [S, S+D) ms after start():
//                     existing connections are cut at S; connections
//                     made during the window are black-holed (accepted,
//                     bytes discarded, nothing forwarded) and cut when
//                     the window ends
//   half-open:N       every Nth connection goes silent after a random
//                     prefix: forwarding stops in both directions but
//                     the sockets stay open — the classic vanished-peer
//                     shape that only keepalive/deadlines detect
//   trickle:B         forward at most B bytes per 10 ms tick per
//                     direction (byte-trickle; defeats naive per-recv
//                     timers, which is why frame deadlines exist)
//
// Test support only: test_net and the chaos harness's partition
// schedule link it; the shipped libraries and the vppb CLI do not.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/socket.hpp"

namespace vppb::util {

struct NetemOptions {
  /// Listen endpoint: Unix path when non-empty, else loopback TCP
  /// (`listen_port` 0 = ephemeral; read the bound port after start()).
  std::string listen_unix;
  std::uint16_t listen_port = 0;
  /// Forward target: Unix path when non-empty, else host:port
  /// (host empty = loopback).
  std::string target_unix;
  std::string target_host;
  std::uint16_t target_port = 0;
  /// Fault schedule (see file comment); empty = transparent relay.
  std::string schedule;
  std::uint64_t seed = 1;
  /// Bound on the relay's own connect to the target.
  int connect_timeout_ms = 2000;
};

class NetemRelay {
 public:
  explicit NetemRelay(NetemOptions opt);
  ~NetemRelay();  ///< calls stop()

  NetemRelay(const NetemRelay&) = delete;
  NetemRelay& operator=(const NetemRelay&) = delete;

  /// Parses the schedule, binds the listen endpoint, starts the accept
  /// thread.  Throws vppb::Error on a malformed schedule or bind
  /// failure.
  void start();
  void stop();

  std::uint16_t port() const { return port_; }
  const std::string& endpoint() const { return endpoint_; }

  /// True while a configured partition window is open (for tests that
  /// want to synchronize assertions with the schedule).
  bool partitioned() const;

  // Observability for tests.
  std::uint64_t connections() const { return connections_.load(); }
  std::uint64_t cut_connections() const { return cut_.load(); }
  std::uint64_t half_open_connections() const { return half_open_.load(); }
  std::uint64_t forwarded_bytes() const { return forwarded_.load(); }
  std::uint64_t blackholed_bytes() const { return blackholed_.load(); }

 private:
  struct Rules {
    int delay_ms = 0;
    int drop_pct = 0;
    std::int64_t partition_start_ms = -1;
    std::int64_t partition_dur_ms = 0;
    std::uint64_t half_open_period = 0;
    std::size_t trickle_bytes = 0;
  };

  struct Conn {
    Socket client;
    Socket target;
    std::thread up;    ///< client -> target pump
    std::thread down;  ///< target -> client pump
    std::atomic<bool> silent{false};  ///< half-open: stop forwarding
    std::atomic<bool> dead{false};    ///< cut already accounted
    std::atomic<std::size_t> moved{0};  ///< forwarded bytes, both pumps
    /// Seeded plan, fixed at accept: cut/quiet after this many
    /// forwarded bytes (SIZE_MAX = never).
    std::size_t cut_after = SIZE_MAX;
    bool cut_closes = true;  ///< true: close (drop); false: go silent
    bool blackholed = false; ///< born inside a partition window
  };

  static Rules parse(const std::string& spec);
  void accept_loop();
  void pump(Conn* conn, bool upstream);
  std::int64_t elapsed_ms() const;

  NetemOptions opt_;
  Rules rules_;
  Socket listener_;
  std::string endpoint_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::chrono::steady_clock::time_point started_at_{};

  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t rng_ = 1;       ///< accept-thread only
  std::uint64_t accepted_ = 0;  ///< accept-thread only

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> cut_{0};
  std::atomic<std::uint64_t> half_open_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> blackholed_{0};
};

}  // namespace vppb::util
