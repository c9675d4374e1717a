// vppbd — the resident prediction service.
//
// Threading model: a FrameServer (server/frame_server.hpp) owns the
// listener, the accept thread and one lightweight IO thread per
// connection; each frame it reads runs through admission control here,
// and the response is written before the next frame is read (strict
// request/response per connection — no reordering, no per-connection
// queues).  The compute itself runs on a shared util::ThreadPool: the
// IO thread posts the handler and blocks for the result, so CPU-bound
// work is bounded by the pool size no matter how many clients connect.
//
// Admission is a bounded in-flight count, not a queue that grows: a
// request arriving while `admission_limit` requests are admitted (on a
// worker or waiting for one) is answered immediately with
// Status::kOverloaded.  Clients see explicit backpressure instead of
// unbounded latency, and a misbehaving client cannot pile up work.
//
// stop() drains gracefully: the FrameServer stops accepting and
// half-closes every connection (in-flight requests finish and their
// responses are delivered), then the worker tasks and the watchdog are
// joined.  `vppb serve` wires SIGINT/SIGTERM to exactly this.
//
// Resource governance (the hang-proofing layer): every admitted request
// carries a core::RunGuard armed with the server ceilings (max_steps /
// max_sim_ms / max_result_mb / max_wall_ms) and the request's own
// deadline; the engine polls it per step, so a pathological trace gets
// a typed kBudgetExceeded instead of wedging a worker.  A watchdog
// thread walks the in-flight requests on an interval and escalates:
// first it cancels an overdue request's guard (cooperative), then — if
// the worker still has not come back after the escalation grace — it
// answers the waiting client itself, abandons the worker's late result,
// records a poison strike against the trace, and restores pool capacity
// via ThreadPool::grow.  Repeated strikes on one content key trip the
// TraceCache quarantine, after which the request is rejected kPoisoned
// before admission — it never reaches a worker again until the
// quarantine decays.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/guard.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "server/deadline.hpp"
#include "server/frame_server.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/trace_cache.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace vppb::server {

/// The listener fields (unix_path, tcp_port, auth_key, the time limits,
/// max_request_frame_bytes) come from ListenerOptions.
struct ServerOptions : ListenerOptions {
  /// Workers of the owned pool (0 = all hardware threads).  Ignored
  /// when `pool` is set.
  int jobs = 0;
  /// Share an existing pool instead of owning one (embedding, tests).
  util::ThreadPool* pool = nullptr;
  /// Maximum admitted (queued-or-running) requests before overload
  /// rejection.
  int admission_limit = 64;
  std::size_t cache_entries = 16;
  std::size_t cache_bytes = 512u << 20;
  /// Fault-injection plan (unowned; must outlive the server).  Null
  /// means "use FaultPlan::global()", i.e. honor $VPPB_FAULT.  Tests
  /// pass their own plan to inject without touching the environment.
  util::FaultPlan* faults = nullptr;

  // --- resource governance (0 = unlimited / disabled) ---
  /// Per-request ceiling on simulated engine steps.
  std::uint64_t max_steps = 0;
  /// Per-request ceiling on simulated time, milliseconds.
  std::int64_t max_sim_ms = 0;
  /// Per-request ceiling on result storage, megabytes.
  std::uint64_t max_result_mb = 0;
  /// Per-request wall-clock ceiling, milliseconds.  This is what the
  /// watchdog enforces for requests without a deadline; without it a
  /// deadline-less request can only be stopped by the other budgets.
  std::int64_t max_wall_ms = 0;
  /// Watchdog scan interval; 0 disables the watchdog thread.
  std::int64_t watchdog_interval_ms = 50;
  /// After cancelling an overdue request, how long the watchdog waits
  /// for the worker to come back before abandoning it (answering the
  /// client itself and replacing the worker).
  std::int64_t watchdog_escalate_ms = 1000;
  /// Cap on replacement workers over the server's lifetime, so a storm
  /// of wedges cannot grow the pool without bound.
  int watchdog_max_replacements = 4;
  /// Poison circuit breaker: strikes (crashes or budget kills on one
  /// content key) before quarantine.  0 disables it.
  int poison_strikes = 3;
  /// Quarantine window after a trip, milliseconds.
  std::int64_t quarantine_ms = 30000;
  /// Per-client fair admission: in-flight requests allowed per client
  /// identity (Request::client_id, falling back to the connection).
  /// 0 disables the per-client check; the global admission_limit always
  /// applies.
  int per_client_limit = 0;

  /// Shard identity reported in health/stats responses (protocol v5).
  /// Assigned by the operator or the cluster launcher; 0 = standalone.
  std::uint64_t shard_id = 0;

  /// Always-on span capture: start() enables the process-wide tracer so
  /// tracedump always has rings to drain (overhead is gated < 3% by
  /// bench_obs).  Embedders that manage the tracer themselves turn it
  /// off.
  bool tracing = true;

  // --- SLO objectives (0 = objective off) ---
  /// Latency objective: p99 of compute requests under this many ms.
  double slo_p99_ms = 0.0;
  /// Availability objective as a success fraction, e.g. 0.999.
  double slo_availability = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the endpoint and starts the accept thread.  Throws
  /// vppb::Error when the endpoint cannot be bound or a listener time
  /// limit is out of range, before any thread starts.
  void start();

  /// Graceful drain (see file comment).  Idempotent.
  void stop();

  /// Human-readable bound endpoint ("path.sock" or "127.0.0.1:port").
  const std::string& endpoint() const { return frames_.endpoint(); }
  std::uint16_t tcp_port() const { return frames_.tcp_port(); }

  /// Start-time epoch: unique per process start, so a routing tier can
  /// tell "the same shard restarted" (same id, new epoch — cold cache)
  /// from a long-lived healthy backend.  0 before start().
  std::uint64_t epoch() const { return epoch_; }

  TraceCache& cache() { return cache_; }
  Metrics& metrics() { return metrics_; }

 private:
  /// Shared state of one admitted request.  The IO thread waits on it;
  /// the worker delivers into it; the watchdog may cancel it or — when
  /// the worker is wedged — deliver a typed answer in the worker's
  /// stead.  shared_ptr-owned so an abandoned worker can still write
  /// its (discarded) result safely after the waiter has moved on.
  struct ReqState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;  ///< a response is in resp (under mu)
    Response resp;

    core::RunGuard guard;
    Deadline deadline;
    ReqType type = ReqType::kPredict;
    std::string trace_path;
    std::chrono::steady_clock::time_point admitted_at{};
    /// Stage timeline for want_timeline requests.  Stamped by the IO
    /// thread before the post and by the worker during dispatch; the
    /// worker copies it into its Response, so a watchdog-answered
    /// request simply reports no timeline (no racing reader).
    std::unique_ptr<obs::Timeline> timeline;

    // Watchdog-private escalation state (only its thread touches these).
    bool cancelled = false;
    bool abandoned = false;
    std::chrono::steady_clock::time_point cancelled_at{};
  };

  /// The FrameServer handler: fault injection, decode, execute, origin
  /// stamp, encode.  `conn_id` is the per-client fallback identity.
  std::vector<std::uint8_t> serve_frame(std::vector<std::uint8_t>& payload,
                                        std::uint64_t conn_id);
  Response execute(const Request& req, std::uint64_t conn_key);
  Response dispatch(const Request& req, ReqState& st);
  Response stats_response();
  Response health_response();
  Response metricsdump_response();
  Response tracedump_response();
  void fill_cache_stats(StatsBody& out);
  /// Stamps the SLO burn rates + tracing telemetry into a stats body
  /// and the breach verdict onto the response.
  void fill_slo(Response& resp);

  core::RunLimits request_limits(const Request& req) const;
  bool client_admit(std::uint64_t client);
  void client_release(std::uint64_t client);
  void watchdog_loop();
  void watchdog_scan(const std::shared_ptr<ReqState>& st);

  ServerOptions opt_;
  util::FaultPlan* faults_ = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
  TraceCache cache_;
  Metrics metrics_;
  obs::SloTracker slo_;

  std::uint64_t epoch_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<int> in_flight_{0};

  std::mutex client_mu_;
  std::unordered_map<std::uint64_t, int> client_in_flight_;

  std::thread watchdog_thread_;
  /// Separate from running_: the watchdog must keep rescuing draining
  /// connections after stop() flips running_ off.
  std::atomic<bool> watchdog_stop_{false};
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;  ///< wakes the watchdog for stop()
  std::vector<std::shared_ptr<ReqState>> watched_;
  int replacements_made_ = 0;  ///< watchdog thread only

  // Posted-but-unfinished worker tasks; stop() waits for zero so an
  // abandoned task can never outlive the server it captures.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  int tasks_live_ = 0;

  // Last: its connection threads use every member above.
  FrameServer frames_;
};

}  // namespace vppb::server
