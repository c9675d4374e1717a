// vppb proxy — the consistent-hash routing tier in front of N vppbd
// shards.
//
// The proxy speaks the exact varint frame protocol on both sides: to a
// client it looks like one (very large) vppbd; to a shard it looks like
// one more client.  Compute requests (predict / simulate / analyze)
// are routed by the FNV-1a digest of the trace file's bytes — the same
// function the TraceCache keys by — so each shard's cache sees a
// disjoint, stable slice of the trace population and a cluster of N
// shards has ~N times the effective cache, not N copies of one.
//
// Layered on the routing:
//
//   Single-flight   Identical concurrent requests (same encoded bytes)
//                   collapse into one upstream forward; followers wait
//                   and share the leader's response.  This sits *above*
//                   each shard's cache single-flight: the shard's
//                   version collapses concurrent compiles of one trace,
//                   the proxy's collapses identical whole requests
//                   before they spend shard admission slots.
//
//   Failover        A transport error on a forward ejects the shard
//                   (Membership re-probes it with backoff) and re-routes
//                   to the ring successor, so a shard death costs
//                   clients nothing but latency: typed errors never
//                   reach a healthy client because of a dead shard.
//
//   Hedged retries  With hedge_ms > 0, a routed request that has not
//                   answered within the hedge window is also sent to
//                   the ring successor; first definitive answer wins.
//                   Deadline-aware: a request whose remaining deadline
//                   budget cannot absorb the hedge window is never
//                   hedged (the hedge would answer a client that
//                   already gave up).
//
//   Aggregation     stats / health / metricsdump fan out to every
//                   shard and come back merged (counters summed,
//                   latency percentiles upper-bounded by the per-shard
//                   maxima) plus a per-shard ShardInfo breakdown, so
//                   `vppb stats --watch` works unchanged against the
//                   proxy.  Down shards contribute their last-known
//                   stats, marked unhealthy.
//
//   Global quota    A per-client token bucket (cluster/quota.hpp) in
//                   front of the routing: one identity's rate budget
//                   is enforced once, at the proxy, instead of K times
//                   across K shards.  Rejections are typed
//                   kQuotaExceeded with a retry_after_ms refill hint.
//                   Anonymous callers are resolved to the proxy's
//                   connection key, which is also stamped into the
//                   forwarded request's origin_id so shard-level
//                   per-client fairness still tells them apart behind
//                   the proxy's pooled connections.
//
//   Replicas        Failover walks the key's R-owner ring walk
//                   (Ring::owners) in order before rehashing: the
//                   primary first — cache affinity — then, when the
//                   primary is off the ring, stand-ins that have
//                   already served this exact request (warm for it)
//                   ahead of cold successors.
//
//   Brownout        When the live-shard fraction or the proxy's own
//                   in-flight compute load crosses a threshold, the
//                   proxy sheds by priority: health/stats always
//                   answer, repeat computes are served slightly stale
//                   from the proxy's response cache (digest-safe:
//                   responses are deterministic in the request), cold
//                   computes are shed kOverloaded with a retry hint.
//                   The degraded state is surfaced in health/stats.
//                   The same response cache is the last resort when
//                   every shard is down mid-request.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/quota.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "server/frame_server.hpp"
#include "server/protocol.hpp"
#include "util/thread_pool.hpp"

namespace vppb::cluster {

/// The listener fields come from ListenerOptions, as for ServerOptions.
/// Unless membership.auth_key is set, auth_key also secures the
/// upstream dials to TCP shards.
struct ProxyOptions : server::ListenerOptions {
  std::vector<ShardEndpoint> shards;
  MembershipOptions membership;

  /// Hedge window for routed compute requests; 0 disables hedging.
  std::int64_t hedge_ms = 0;
  /// Per-forward receive timeout; a shard silent past this is treated
  /// as dead (ejected + failover).  0 = wait forever (then only a
  /// closed connection triggers failover).
  int forward_timeout_ms = 30000;
  /// Worker threads for hedged forwards (a hedged request occupies up
  /// to two while in flight).  Non-hedged forwards run on the
  /// connection's own IO thread and never touch this pool.
  int hedge_jobs = 8;

  /// Cluster-wide per-client rate quota; quota.rps <= 0 disables.
  QuotaOptions quota;
  /// Owner-walk length for compute failover/hedging: the primary plus
  /// replicas-1 ring successors are tried in order before the key is
  /// rehashed on the shrunken ring.  Clamped to [1, shard count].
  int replicas = 2;
  /// Brownout trigger: live shards strictly below this percentage of
  /// configured shards (0 = never by liveness).
  int brownout_min_live_pct = 0;
  /// Brownout trigger: proxy-level in-flight compute requests at or
  /// above this (0 = never by load).
  int brownout_max_inflight = 0;
  /// Oldest proxy-cached response servable during brownout or total
  /// outage; 0 disables stale serving.
  std::int64_t stale_ms = 30000;
  /// Response cache capacity (kOk compute responses; SVG-bearing
  /// responses are never cached — they dwarf everything else).
  std::size_t response_cache_entries = 256;

  /// Always-on span capture, same convention as ServerOptions: the
  /// proxy's own rings feed the cluster-wide `vppb trace-collect`.
  bool tracing = true;
  /// Cluster-level SLO objectives over routed compute requests
  /// (0 = objective off).  Independent of the per-shard objectives:
  /// this is the latency/availability a *client* of the cluster sees,
  /// failover and hedging included.
  double slo_p99_ms = 0.0;
  double slo_availability = 0.0;
};

class Proxy {
 public:
  explicit Proxy(ProxyOptions opt);
  ~Proxy();  ///< calls stop()

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// Binds the endpoint, probes every shard once, and starts serving.
  /// Not an error if all shards are down (the prober keeps trying; the
  /// proxy answers kError until one comes up).  Throws vppb::Error when
  /// the endpoint cannot be bound or a listener time limit is out of
  /// range, before any thread starts.
  void start();
  void stop();  ///< graceful drain; idempotent

  const std::string& endpoint() const { return frames_.endpoint(); }
  std::uint16_t tcp_port() const { return frames_.tcp_port(); }
  Membership& membership() { return membership_; }

  /// True when a brownout trigger holds right now; fills the live /
  /// configured shard counts either way (also used by aggregation).
  bool brownout_active(std::size_t* live = nullptr,
                       std::size_t* total = nullptr) const;

 private:
  /// One proxy-cached compute response: the answer, when it landed,
  /// and which shard incarnations have served this exact request
  /// (warm-replica preference during failover).
  struct CachedResponse {
    server::Response resp;
    std::chrono::steady_clock::time_point at;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> warm;  ///< (id, epoch)
    std::uint64_t tick = 0;  ///< LRU stamp
  };

  /// Cross-tier single-flight state: one per distinct in-flight
  /// encoded request; followers wait on it.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    server::Response resp;
    std::exception_ptr error;
  };

  /// Shared state of one hedged forward (primary + optional hedge).
  struct Hedge {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;                ///< a definitive response landed
    std::size_t winner = 0;           ///< shard index that answered
    server::Response resp;
    int launched = 0;
    int failed = 0;
    std::vector<std::size_t> failed_shards;
  };

  /// The FrameServer handler: decode, execute, trace_id echo, encode.
  /// `conn_id` is the fallback identity for anonymous clients.
  std::vector<std::uint8_t> serve_frame(std::vector<std::uint8_t>& payload,
                                        std::uint64_t conn_id);
  server::Response execute(const server::Request& req,
                           std::uint64_t conn_key);
  /// `tl` (optional) is the proxy-side stage timeline for
  /// want_timeline requests.  It is only ever stamped from the leader
  /// connection's thread (hedge attempts run on the pool but the
  /// orchestration — and every stamp — stays on the caller), which is
  /// the Timeline's single-writer requirement.
  server::Response single_flight(const server::Request& req,
                                 std::uint64_t route_key,
                                 std::uint64_t cache_key,
                                 std::chrono::steady_clock::time_point t0,
                                 obs::Timeline* tl);
  server::Response forward_failover(const server::Request& req,
                                    std::uint64_t route_key,
                                    std::uint64_t cache_key,
                                    std::chrono::steady_clock::time_point t0,
                                    obs::Timeline* tl);
  /// One forward on one connection; throws vppb::Error on transport
  /// failure (the caller ejects).  Clean exchanges pool the connection.
  server::Response forward_once(std::size_t idx, const server::Request& req);
  /// Primary + hedge via the pool; false when every launched attempt
  /// died on transport (the caller re-routes).
  bool hedged_forward(const server::Request& req,
                      const std::vector<std::size_t>& candidates,
                      std::chrono::steady_clock::time_point t0,
                      server::Response* out, obs::Timeline* tl);
  server::Response aggregate(const server::Request& req);
  server::Response error_response(const server::Request& req,
                                  const std::string& what) const;

  /// Digest-safe cache identity of a compute request: the route key
  /// (trace content) plus every parameter that shapes the result —
  /// caller identity and deadline excluded, they never change the
  /// computed answer.
  static std::uint64_t response_cache_key(const server::Request& req,
                                          std::uint64_t route_key);
  /// A cached kOk response younger than `max_age_ms`, marked
  /// served_stale with its age; nullopt on miss/expired/disabled.
  bool cache_lookup(std::uint64_t cache_key, std::int64_t max_age_ms,
                    server::Response* out);
  /// Remembers a kOk compute response (and that shard id/epoch served
  /// it).  SVG-bearing responses are skipped.
  void cache_store(std::uint64_t cache_key, const server::Response& resp);
  bool cache_warm(std::uint64_t cache_key, std::uint64_t shard_id,
                  std::uint64_t epoch) const;

  ProxyOptions opt_;
  Membership membership_;
  ClientQuota quota_;
  obs::SloTracker slo_;
  util::ThreadPool hedge_pool_;

  std::atomic<bool> running_{false};

  std::mutex flight_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> flights_;

  std::atomic<int> inflight_{0};  ///< compute requests being forwarded
  std::atomic<std::uint64_t> brownout_sheds_{0};
  std::atomic<std::uint64_t> stale_serves_{0};
  std::atomic<std::uint64_t> sampled_{0};  ///< trace-carrying requests seen

  mutable std::mutex cache_mu_;
  std::unordered_map<std::uint64_t, CachedResponse> rcache_;
  std::uint64_t cache_tick_ = 0;

  // Posted-but-unfinished hedge tasks; stop() waits for zero so an
  // abandoned attempt can never outlive the proxy it captures.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  int tasks_live_ = 0;

  // Last: its connection threads use every member above.
  server::FrameServer frames_;
};

/// Sums `from` into `into`: counters add; latency percentiles take the
/// per-shard maximum (an upper bound — order statistics do not merge).
void merge_stats(server::StatsBody& into, const server::StatsBody& from);

/// Merges Prometheus text expositions: samples with the same series
/// key are summed, HELP/TYPE comments are kept from their first
/// appearance, family order follows first appearance.  Input order is
/// (section label, exposition text); labels are only used in error
/// logging.
std::string merge_prometheus(
    const std::vector<std::pair<std::string, std::string>>& sections);

}  // namespace vppb::cluster
