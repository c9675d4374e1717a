#include "cluster/proxy.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "server/trace_cache.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::cluster {
namespace {

using obs::LogLevel;
using server::Request;
using server::ReqType;
using server::Response;
using server::StageSpan;
using server::StatsBody;
using server::Status;
using server::WireSpan;

/// Cap on the merged trace-collect response: shards dump up to 32k
/// spans per ring, and the proxy concatenates all of them plus its own;
/// the total must stay under kMaxFrame (64 MiB) at ~60 encoded bytes a
/// span.
constexpr std::size_t kMergedSpanCap = 1u << 19;

/// Registry handles for the proxy, registered once (same pattern as
/// the cache metrics): the routing tier's own behavior — forwards,
/// failovers, hedges, dedup hits — is visible in `vppb request
/// metricsdump` against the proxy.
struct ProxyMetrics {
  obs::Counter& requests;
  obs::Counter& forwards;
  obs::Counter& failovers;
  obs::Counter& hedges;
  obs::Counter& hedge_wins;
  obs::Counter& dedup_hits;
  obs::Counter& no_shards;
  obs::Counter& quota_rejections;
  obs::Counter& brownout_sheds;
  obs::Counter& stale_serves;
  obs::Counter& auth_failures;
  obs::Counter& idle_reaps;
  obs::Gauge& shards_up;

  static ProxyMetrics& get() {
    auto& reg = obs::Registry::global();
    static ProxyMetrics m{
        reg.counter("vppb_proxy_requests_total",
                    "Requests received by the proxy"),
        reg.counter("vppb_proxy_forwards_total",
                    "Forward attempts sent to shards"),
        reg.counter("vppb_proxy_failovers_total",
                    "Forwards re-routed after a shard transport failure"),
        reg.counter("vppb_proxy_hedges_total", "Hedge attempts launched"),
        reg.counter("vppb_proxy_hedge_wins_total",
                    "Requests answered by the hedge, not the primary"),
        reg.counter("vppb_proxy_dedup_hits_total",
                    "Requests collapsed into an identical in-flight one"),
        reg.counter("vppb_proxy_no_shards_total",
                    "Requests failed because every shard was down"),
        reg.counter("vppb_proxy_quota_rejections_total",
                    "Requests rejected by the global per-client quota"),
        reg.counter("vppb_proxy_brownout_sheds_total",
                    "Cold computes shed while the proxy was in brownout"),
        reg.counter("vppb_proxy_stale_serves_total",
                    "Answers served from the proxy response cache"),
        reg.counter("vppb_proxy_auth_failures_total",
                    "TCP connections rejected by the v8 handshake"),
        reg.counter("vppb_proxy_idle_reaps_total",
                    "Client connections reaped for idling past the limit"),
        reg.gauge("vppb_proxy_shards_up", "Healthy shards in the ring"),
    };
    return m;
  }
};

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool is_compute(ReqType t) {
  return t == ReqType::kPredict || t == ReqType::kSimulate ||
         t == ReqType::kAnalyze;
}

/// RAII in-flight accounting for the brownout load trigger.
class InflightScope {
 public:
  explicit InflightScope(std::atomic<int>& n) : n_(n) { ++n_; }
  ~InflightScope() { --n_; }
  InflightScope(const InflightScope&) = delete;
  InflightScope& operator=(const InflightScope&) = delete;

 private:
  std::atomic<int>& n_;
};

}  // namespace

void merge_stats(StatsBody& into, const StatsBody& from) {
  into.requests += from.requests;
  for (std::size_t i = 0; i < server::kReqTypeCount; ++i)
    into.by_type[i] += from.by_type[i];
  into.errors += from.errors;
  into.overloads += from.overloads;
  into.deadlines += from.deadlines;
  into.cache_hits += from.cache_hits;
  into.cache_misses += from.cache_misses;
  into.cache_evictions += from.cache_evictions;
  into.cache_waits += from.cache_waits;
  into.cache_entries += from.cache_entries;
  into.cache_bytes += from.cache_bytes;
  into.latency_count += from.latency_count;
  // Order statistics do not merge; the per-shard maximum is an honest
  // upper bound ("no shard's p99 exceeds this"), which is the side an
  // operator wants to be wrong on.
  into.p50_us = std::max(into.p50_us, from.p50_us);
  into.p90_us = std::max(into.p90_us, from.p90_us);
  into.p99_us = std::max(into.p99_us, from.p99_us);
  into.max_us = std::max(into.max_us, from.max_us);
  into.budget_kills += from.budget_kills;
  into.poisoned += from.poisoned;
  into.poison_strikes += from.poison_strikes;
  into.quarantined += from.quarantined;
  into.watchdog_cancels += from.watchdog_cancels;
  into.watchdog_replacements += from.watchdog_replacements;
  into.quota_rejections += from.quota_rejections;
  into.brownout_sheds += from.brownout_sheds;
  into.stale_serves += from.stale_serves;
  // SLO state merges pessimistically: the cluster's objective is the
  // strictest configured one, and the cluster's burn is the worst
  // shard's burn — an operator paged on the merged number is paged no
  // later than they would be watching every shard.
  const auto min_nonzero = [](double a, double b) {
    if (a == 0.0) return b;
    if (b == 0.0) return a;
    return std::min(a, b);
  };
  into.slo_p99_ms = min_nonzero(into.slo_p99_ms, from.slo_p99_ms);
  into.slo_availability =
      std::max(into.slo_availability, from.slo_availability);
  into.lat_burn_1m = std::max(into.lat_burn_1m, from.lat_burn_1m);
  into.lat_burn_5m = std::max(into.lat_burn_5m, from.lat_burn_5m);
  into.lat_burn_1h = std::max(into.lat_burn_1h, from.lat_burn_1h);
  into.avail_burn_1m = std::max(into.avail_burn_1m, from.avail_burn_1m);
  into.avail_burn_5m = std::max(into.avail_burn_5m, from.avail_burn_5m);
  into.avail_burn_1h = std::max(into.avail_burn_1h, from.avail_burn_1h);
  into.sampled_requests += from.sampled_requests;
  into.trace_dropped += from.trace_dropped;
}

std::string merge_prometheus(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  // Series key -> summed value, plus first-appearance ordering and the
  // HELP/TYPE comment block captured from the first section to carry
  // each family.
  std::vector<std::string> order;                    // series keys
  std::unordered_map<std::string, double> values;
  std::unordered_map<std::string, std::string> comments;  // family -> block
  std::vector<std::string> family_order;

  for (const auto& [label, text] : sections) {
    std::string pending_comments;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      std::string line = text.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      if (line[0] == '#') {
        pending_comments += line;
        pending_comments += '\n';
        continue;
      }
      // Histogram bucket lines may carry an OpenMetrics exemplar suffix
      // (` # {trace_id="..."} value`); exemplars do not merge — cut the
      // line back to the plain sample before parsing.
      const std::size_t ex = line.find(" # ");
      if (ex != std::string::npos) line.resize(ex);
      const std::size_t sp = line.rfind(' ');
      if (sp == std::string::npos || sp == 0) continue;  // not a sample
      const std::string key = line.substr(0, sp);
      const double val = std::strtod(line.c_str() + sp + 1, nullptr);
      // Family name: the series key up to '{' (or the whole key).
      const std::string family = key.substr(0, key.find('{'));
      if (!pending_comments.empty()) {
        if (comments.emplace(family, pending_comments).second)
          family_order.push_back(family);
        pending_comments.clear();
      } else if (comments.emplace(family, std::string()).second) {
        family_order.push_back(family);
      }
      auto [it, fresh] = values.emplace(key, val);
      if (fresh) {
        order.push_back(key);
      } else {
        it->second += val;
      }
    }
    (void)label;
  }

  // Emit family by family in first-appearance order, each series in
  // first-appearance order within it.
  std::string out;
  for (const std::string& family : family_order) {
    out += comments[family];
    for (const std::string& key : order) {
      if (key.substr(0, key.find('{')) != family) continue;
      const double v = values[key];
      if (v == static_cast<double>(static_cast<long long>(v))) {
        out += strprintf("%s %lld\n", key.c_str(),
                         static_cast<long long>(v));
      } else {
        out += strprintf("%s %.6g\n", key.c_str(), v);
      }
    }
  }
  return out;
}

namespace {

/// One key secures the whole path: unless the membership options name
/// their own upstream key, the proxy's listener key is also used when
/// dialing TCP shards.
ProxyOptions normalize(ProxyOptions opt) {
  if (opt.membership.auth_key.empty())
    opt.membership.auth_key = opt.auth_key;
  return opt;
}

}  // namespace

Proxy::Proxy(ProxyOptions opt)
    : opt_(normalize(std::move(opt))),
      membership_(opt_.shards, opt_.membership),
      quota_(opt_.quota),
      hedge_pool_(std::max(2, opt_.hedge_jobs)),
      frames_(opt_, "proxy",
              [this](std::vector<std::uint8_t>& payload,
                     std::uint64_t conn_id) {
                return serve_frame(payload, conn_id);
              },
              server::FrameHooks{
                  []() { ProxyMetrics::get().auth_failures.inc(); },
                  []() { ProxyMetrics::get().idle_reaps.inc(); }}) {
  slo_.configure(obs::SloOptions{opt_.slo_p99_ms, opt_.slo_availability});
}

Proxy::~Proxy() { stop(); }

void Proxy::start() {
  VPPB_CHECK_MSG(!running_.load(), "proxy already started");
  frames_.bind();
  membership_.start();  // one synchronous probe round populates the ring
  ProxyMetrics::get().shards_up.set(
      static_cast<std::int64_t>(membership_.up_count()));
  if (opt_.tracing) obs::Tracer::global().enable();
  running_.store(true);
  frames_.start();
  obs::logf(LogLevel::kInfo, "proxy",
            "routing on %s across %zu shards (%zu up, hedge %lld ms)",
            frames_.endpoint().c_str(), membership_.shard_count(),
            membership_.up_count(),
            static_cast<long long>(opt_.hedge_ms));
}

void Proxy::stop() {
  if (!running_.exchange(false)) return;
  frames_.stop();
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [&]() { return tasks_live_ == 0; });
  }
  membership_.stop();
  obs::logf(LogLevel::kInfo, "proxy", "stopped (drained) on %s",
            frames_.endpoint().c_str());
}

std::vector<std::uint8_t> Proxy::serve_frame(
    std::vector<std::uint8_t>& payload, std::uint64_t conn_id) {
  Response resp;
  std::uint64_t trace_id = 0;
  try {
    const Request req = server::decode_request(payload);
    trace_id = req.trace_id;
    resp = execute(req, conn_id);
  } catch (const Error& e) {
    // Undecodable request, unreadable trace file, every shard down: a
    // typed answer on an intact connection.
    resp.status = Status::kError;
    resp.error = e.what();
  }
  // Echo the caller's trace id even on stale-cache answers, whose
  // stored copy carries whatever id first populated them.
  resp.trace_id = trace_id;
  return server::encode(resp);
}

Response Proxy::error_response(const Request& req,
                               const std::string& what) const {
  Response resp;
  resp.type = req.type;
  resp.status = Status::kError;
  resp.error = what;
  return resp;
}

bool Proxy::brownout_active(std::size_t* live, std::size_t* total) const {
  const std::size_t up = membership_.up_count();
  const std::size_t all = membership_.shard_count();
  if (live) *live = up;
  if (total) *total = all;
  if (opt_.brownout_min_live_pct > 0 &&
      up * 100 < all * static_cast<std::size_t>(opt_.brownout_min_live_pct))
    return true;
  if (opt_.brownout_max_inflight > 0 &&
      inflight_.load() >= opt_.brownout_max_inflight)
    return true;
  return false;
}

Response Proxy::execute(const Request& req, std::uint64_t conn_key) {
  ProxyMetrics& pm = ProxyMetrics::get();
  pm.requests.inc();
  if (req.trace_id != 0) sampled_.fetch_add(1);
  // Propagated trace context: the proxy's own spans for this request
  // carry the caller's trace id, so trace-collect stitches the routing
  // tier and the shards into one distributed trace.
  obs::TraceContext tctx(req.sampled ? req.trace_id : 0);
  obs::Span span("proxy.execute", "proxy");
  const auto t0 = std::chrono::steady_clock::now();
  // Health and stats never queue behind compute and are never shed:
  // in a brownout they are exactly the requests an operator needs.
  if (!is_compute(req.type)) return aggregate(req);

  // Global per-client quota, enforced once for the whole cluster.
  // Anonymous callers resolve to this connection's key.
  const std::uint64_t ident =
      req.client_id != 0 ? req.client_id : conn_key;
  if (quota_.enabled()) {
    const ClientQuota::Verdict v = quota_.admit(ident, t0);
    if (!v.admitted) {
      pm.quota_rejections.inc();
      Response resp;
      resp.type = req.type;
      resp.status = Status::kQuotaExceeded;
      resp.retry_after_ms = v.retry_after_ms;
      resp.error = strprintf(
          "client %llu over its cluster-wide rate quota "
          "(%.4g rps, burst %.4g); retry in %lld ms",
          static_cast<unsigned long long>(ident), opt_.quota.rps,
          opt_.quota.burst, static_cast<long long>(v.retry_after_ms));
      return resp;
    }
  }

  // Proxy-side stage timeline; the shard's stages come back in its
  // response and are grafted under the forward stage at depth+1.
  std::unique_ptr<obs::Timeline> tl;
  if (req.want_timeline) tl = std::make_unique<obs::Timeline>();

  // Route by the trace's content digest — the same FNV-1a the shard's
  // TraceCache will key the compiled trace by.
  std::uint64_t key = 0;
  const std::int64_t route0 = tl ? tl->now_us() : 0;
  try {
    key = server::content_key_of_file(req.trace_path);
  } catch (const Error& e) {
    return error_response(
        req, strprintf("proxy cannot read trace %s: %s",
                       req.trace_path.c_str(), e.what()));
  }
  if (tl) tl->stage("route", route0, tl->now_us() - route0);
  const std::uint64_t ckey = response_cache_key(req, key);

  // Brownout: shed by priority.  Repeats answer slightly stale from
  // the response cache (digest-safe), cold computes are turned away
  // with a hint instead of piling onto a degraded cluster.
  if (brownout_active()) {
    Response cached;
    if (cache_lookup(ckey, opt_.stale_ms, &cached)) {
      pm.stale_serves.inc();
      stale_serves_.fetch_add(1);
      cached.brownout = true;
      if (tl) {
        tl->marker("stale-serve");
        cached.timeline.clear();
        for (const obs::Stage& s : tl->stages())
          cached.timeline.push_back(
              StageSpan{s.name, s.start_us, s.dur_us, s.depth});
      }
      return cached;
    }
    pm.brownout_sheds.inc();
    brownout_sheds_.fetch_add(1);
    Response resp;
    resp.type = req.type;
    resp.status = Status::kOverloaded;
    resp.brownout = true;
    resp.retry_after_ms = opt_.membership.probe_cap_ms;
    resp.error = "proxy brownout: shedding cold compute requests until "
                 "the cluster recovers; retry later";
    return resp;
  }

  // Forward with the resolved identity stamped, so shard-side fairness
  // can still tell anonymous proxied callers apart.
  Request fwd = req;
  if (fwd.client_id == 0) fwd.origin_id = ident;
  InflightScope scope(inflight_);
  Response resp = single_flight(fwd, key, ckey, t0, tl.get());
  // Cluster-level SLO: what this client actually experienced, failover
  // and hedging included.  Rejections above (quota, brownout shed) are
  // the proxy protecting the objective, not burning it.
  const bool ok = resp.status != Status::kError &&
                  resp.status != Status::kDeadlineExceeded &&
                  resp.status != Status::kBudgetExceeded;
  slo_.record(std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              ok);
  if (tl) {
    // Compose: proxy stages at their recorded depth, shard stages
    // (already shifted to this timeline and re-parented by the forward
    // layer) appended after.
    std::vector<StageSpan> merged;
    for (const obs::Stage& s : tl->stages())
      merged.push_back(StageSpan{s.name, s.start_us, s.dur_us, s.depth});
    for (StageSpan& s : resp.timeline) merged.push_back(std::move(s));
    resp.timeline = std::move(merged);
  }
  return resp;
}

Response Proxy::single_flight(const Request& req, std::uint64_t route_key,
                              std::uint64_t cache_key,
                              std::chrono::steady_clock::time_point t0,
                              obs::Timeline* tl) {
  // De-dup key: the encoded request with the proxy's own origin stamp
  // zeroed, so requests that arrived byte-identical (same trace
  // content *and* same parameters, deadline, client id) still collapse
  // across connections; the leader's origin represents the flight.
  Request canon = req;
  canon.origin_id = 0;
  const std::vector<std::uint8_t> encoded = server::encode(canon);
  const std::uint64_t fkey = fnv1a(encoded.data(), encoded.size());

  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto it = flights_.find(fkey);
    if (it == flights_.end()) {
      flight = std::make_shared<Flight>();
      flights_.emplace(fkey, flight);
      leader = true;
    } else {
      flight = it->second;
    }
  }
  if (!leader) {
    ProxyMetrics::get().dedup_hits.inc();
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&]() { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->resp;
  }

  Response resp;
  std::exception_ptr error;
  try {
    resp = forward_failover(req, route_key, cache_key, t0, tl);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    flights_.erase(fkey);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->resp = resp;
    flight->error = error;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return resp;
}

Response Proxy::forward_once(std::size_t idx, const Request& req) {
  ProxyMetrics::get().forwards.inc();
  obs::Span span("proxy.forward", "proxy");
  span.arg("shard", static_cast<std::int64_t>(membership_.endpoint(idx).id));
  server::Client conn = membership_.take_conn(idx);
  server::RetryPolicy once;
  once.max_attempts = 1;  // retries belong to the failover layer
  once.request_timeout_ms = opt_.forward_timeout_ms;
  Response resp = conn.call_retry(req, once);
  // Only a connection that completed a clean request/response exchange
  // is safe to reuse; a thrown transport error never reaches here.
  membership_.give_back(idx, std::move(conn));
  return resp;
}

bool Proxy::hedged_forward(const Request& req,
                           const std::vector<std::size_t>& candidates,
                           std::chrono::steady_clock::time_point t0,
                           Response* out, obs::Timeline* tl) {
  ProxyMetrics& pm = ProxyMetrics::get();
  auto hedge = std::make_shared<Hedge>();
  auto launch = [this, hedge, req](std::size_t idx) {
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      ++tasks_live_;
    }
    {
      std::lock_guard<std::mutex> lock(hedge->mu);
      ++hedge->launched;
    }
    hedge_pool_.post([this, hedge, req, idx]() {
      // The pool thread needs its own trace context: thread-locals do
      // not follow the request across the post.
      obs::TraceContext tctx(req.sampled ? req.trace_id : 0);
      try {
        Response r = forward_once(idx, req);
        std::lock_guard<std::mutex> lock(hedge->mu);
        if (!hedge->done) {
          hedge->done = true;
          hedge->winner = idx;
          hedge->resp = std::move(r);
        }
      } catch (...) {
        // Transport failure, or anything else: an exception escaping a
        // posted task would terminate the process, so every failure
        // becomes "this attempt lost" and the shard gets ejected.
        std::lock_guard<std::mutex> lock(hedge->mu);
        ++hedge->failed;
        hedge->failed_shards.push_back(idx);
      }
      hedge->cv.notify_all();
      // Notify while holding the lock: stop() may destroy the proxy the
      // instant it sees tasks_live_ == 0, so an unlocked notify here
      // could touch a dead condition variable (a losing hedge attempt
      // routinely outlives its request).
      std::lock_guard<std::mutex> lock(drain_mu_);
      if (--tasks_live_ == 0) drain_cv_.notify_all();
    });
  };

  launch(candidates[0]);
  bool hedged = false;
  {
    std::unique_lock<std::mutex> lock(hedge->mu);
    hedge->cv.wait_for(lock, std::chrono::milliseconds(opt_.hedge_ms),
                       [&]() {
                         return hedge->done ||
                                hedge->failed >= hedge->launched;
                       });
    // Hedge only when the primary is still silent and the request's
    // remaining deadline could actually absorb another attempt — a
    // hedge the client cannot wait for is pure load.
    const bool deadline_allows =
        req.deadline_ms == 0 ||
        req.deadline_ms - elapsed_ms(t0) > opt_.hedge_ms;
    if (!hedge->done && candidates.size() > 1 && deadline_allows) {
      lock.unlock();
      pm.hedges.inc();
      if (tl) tl->marker("hedge");
      hedged = true;
      launch(candidates[1]);
      lock.lock();
    }
    hedge->cv.wait(lock, [&]() {
      return hedge->done || hedge->failed >= hedge->launched;
    });
  }

  // Eject outside hedge->mu: eject takes the membership lock and
  // notifies the prober.
  std::vector<std::size_t> failed;
  bool done = false;
  std::size_t winner = 0;
  {
    std::lock_guard<std::mutex> lock(hedge->mu);
    failed = hedge->failed_shards;
    done = hedge->done;
    winner = hedge->winner;
    if (done) *out = hedge->resp;
  }
  for (std::size_t idx : failed) {
    pm.failovers.inc();
    membership_.eject(idx);
  }
  if (done && hedged && winner == candidates[1]) pm.hedge_wins.inc();
  pm.shards_up.set(static_cast<std::int64_t>(membership_.up_count()));
  return done;
}

std::uint64_t Proxy::response_cache_key(const Request& req,
                                        std::uint64_t route_key) {
  Request canon = req;
  canon.trace_path.clear();  // content, not path, identifies the trace
  canon.client_id = 0;
  canon.origin_id = 0;
  canon.deadline_ms = 0;
  const std::vector<std::uint8_t> encoded = server::encode(canon);
  std::uint64_t h = fnv1a(encoded.data(), encoded.size());
  // Splice the trace content key in (boost-style hash combine).
  h ^= route_key + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

bool Proxy::cache_lookup(std::uint64_t cache_key, std::int64_t max_age_ms,
                         Response* out) {
  if (max_age_ms <= 0 || opt_.response_cache_entries == 0) return false;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = rcache_.find(cache_key);
  if (it == rcache_.end()) return false;
  const std::int64_t age =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - it->second.at)
          .count();
  if (age > max_age_ms) return false;
  it->second.tick = ++cache_tick_;
  *out = it->second.resp;
  out->served_stale = true;
  out->stale_age_ms = age;
  return true;
}

void Proxy::cache_store(std::uint64_t cache_key, const Response& resp) {
  if (opt_.response_cache_entries == 0) return;
  if (resp.status != Status::kOk || !resp.svg.empty()) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  CachedResponse& e = rcache_[cache_key];
  const std::pair<std::uint64_t, std::uint64_t> served{resp.shard_id,
                                                       resp.epoch};
  if (std::find(e.warm.begin(), e.warm.end(), served) == e.warm.end())
    e.warm.push_back(served);
  e.resp = resp;
  // Per-request observability never replays: a stale serve gets the
  // cached *answer*, not the timeline of whoever populated the cache.
  e.resp.timeline.clear();
  e.resp.spans.clear();
  e.at = std::chrono::steady_clock::now();
  e.tick = ++cache_tick_;
  while (rcache_.size() > opt_.response_cache_entries) {
    auto oldest = rcache_.begin();
    for (auto it = rcache_.begin(); it != rcache_.end(); ++it)
      if (it->second.tick < oldest->second.tick) oldest = it;
    rcache_.erase(oldest);
  }
}

bool Proxy::cache_warm(std::uint64_t cache_key, std::uint64_t shard_id,
                       std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = rcache_.find(cache_key);
  if (it == rcache_.end()) return false;
  const std::pair<std::uint64_t, std::uint64_t> want{shard_id, epoch};
  return std::find(it->second.warm.begin(), it->second.warm.end(), want) !=
         it->second.warm.end();
}

Response Proxy::forward_failover(const Request& req, std::uint64_t route_key,
                                 std::uint64_t cache_key,
                                 std::chrono::steady_clock::time_point t0,
                                 obs::Timeline* tl) {
  // Grafts the answering shard's timeline under this proxy's: shift to
  // when the (winning) forward began and nest one level deeper, so a
  // depth-0 walk of the merged waterfall never double-counts shard time
  // already covered by the forward stage.
  const auto graft = [tl](Response& resp, std::int64_t f0,
                          const char* label) {
    if (tl == nullptr) return;
    for (StageSpan& s : resp.timeline) {
      s.start_us += f0;
      s.depth += 1;
    }
    tl->stage(strprintf("%s shard=%llu", label,
                        static_cast<unsigned long long>(resp.shard_id)),
              f0, tl->now_us() - f0);
  };
  ProxyMetrics& pm = ProxyMetrics::get();
  const std::size_t shard_count = membership_.shard_count();
  const std::size_t rounds = std::max<std::size_t>(std::size_t{1},
                                                   shard_count);
  const std::size_t want = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(1, opt_.replicas)), std::size_t{1},
      std::max<std::size_t>(std::size_t{1}, shard_count));
  const std::uint64_t primary_id = membership_.configured_owner(route_key);
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::size_t> candidates =
        membership_.route(route_key, want);
    if (candidates.empty()) break;
    // Replica-read preference: the primary always comes first while it
    // is on the ring (cache affinity).  When the walk starts at a
    // stand-in, a replica that has already served this exact request
    // — its cache is warm for it — beats a cold ring successor.
    if (candidates.size() > 1 &&
        membership_.endpoint(candidates[0]).id != primary_id) {
      const std::vector<ShardView> snap = membership_.snapshot();
      std::stable_partition(
          candidates.begin(), candidates.end(), [&](std::size_t i) {
            return cache_warm(cache_key, snap[i].endpoint.id,
                              snap[i].epoch);
          });
    }
    if (opt_.hedge_ms > 0 && candidates.size() > 1) {
      Response resp;
      const std::int64_t f0 = tl ? tl->now_us() : 0;
      if (hedged_forward(req, candidates, t0, &resp, tl)) {
        graft(resp, f0, "forward");
        cache_store(cache_key, resp);
        return resp;
      }
      continue;  // every attempt died on transport: re-route
    }
    // The replica walk: primary first, then up to replicas-1 ring
    // successors, each tried in order before the key is rehashed on
    // the shrunken ring.
    for (std::size_t idx : candidates) {
      try {
        const std::int64_t f0 = tl ? tl->now_us() : 0;
        Response resp = forward_once(idx, req);
        graft(resp, f0, "forward");
        cache_store(cache_key, resp);
        return resp;
      } catch (const Error& e) {
        obs::logf(LogLevel::kWarn, "proxy",
                  "shard %llu failed mid-forward (%s); failing over",
                  static_cast<unsigned long long>(
                      membership_.endpoint(idx).id),
                  e.what());
        if (tl) tl->marker("failover");
        pm.failovers.inc();
        membership_.eject(idx);
        pm.shards_up.set(static_cast<std::int64_t>(membership_.up_count()));
      }
    }
  }
  // Every owner (and every re-route) is gone.  A slightly-stale cached
  // answer is digest-identical to what a live shard would compute —
  // strictly better than a typed error for a read of a deterministic
  // function.
  Response cached;
  if (cache_lookup(cache_key, opt_.stale_ms, &cached)) {
    pm.stale_serves.inc();
    stale_serves_.fetch_add(1);
    if (tl) tl->marker("stale-serve");
    return cached;
  }
  pm.no_shards.inc();
  return error_response(req, "no healthy shards: every backend is down "
                             "or failed mid-request");
}

Response Proxy::aggregate(const Request& req) {
  Response out;
  out.type = req.type;
  out.status = Status::kOk;

  Request probe;
  probe.type = req.type;
  std::vector<std::pair<std::string, std::string>> metric_sections;
  metric_sections.emplace_back("proxy",
                               obs::Registry::global().prometheus_text());

  const std::vector<ShardView> before = membership_.snapshot();
  bool shard_burning = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    server::ShardInfo info;
    info.shard_id = before[i].endpoint.id;
    info.endpoint = before[i].endpoint.display();
    info.epoch = before[i].epoch;
    info.healthy = false;
    info.stats = before[i].last_stats;
    if (before[i].healthy) {
      try {
        Response r = forward_once(i, probe);
        if (r.status == Status::kOk) {
          info.healthy = true;
          info.epoch = r.epoch;
          info.stats = r.stats;
          membership_.note_stats(i, r.stats, r.epoch);
          out.ready = out.ready || r.ready;
          out.in_flight += r.in_flight;
          out.admission_limit += r.admission_limit;
          shard_burning = shard_burning || r.slo_burning;
          if (req.type == ReqType::kMetricsDump)
            metric_sections.emplace_back(info.endpoint, r.report);
          if (req.type == ReqType::kTraceDump)
            out.spans.insert(out.spans.end(),
                             std::make_move_iterator(r.spans.begin()),
                             std::make_move_iterator(r.spans.end()));
        }
      } catch (const Error&) {
        membership_.eject(i);
        ProxyMetrics::get().shards_up.set(
            static_cast<std::int64_t>(membership_.up_count()));
      }
    }
    merge_stats(out.stats, info.stats);
    out.shards.push_back(std::move(info));
  }
  if (req.type == ReqType::kTraceDump) {
    // The proxy's own rings join the merged dump as pid 0 (shard ids
    // start at 1), on the same absolute unix-ns timebase the shards
    // used, so the collector needs no clock negotiation.
    const obs::Tracer& tracer = obs::Tracer::global();
    const std::int64_t epoch_unix = tracer.epoch_unix_ns();
    for (const obs::Tracer::SnapshotEvent& se : tracer.snapshot(1u << 15)) {
      WireSpan w;
      w.pid = 0;
      w.tid = se.tid;
      w.name = se.ev.name != nullptr ? se.ev.name : "?";
      w.cat = se.ev.cat != nullptr ? se.ev.cat : "vppb";
      w.start_unix_ns = epoch_unix + se.ev.start_ns;
      w.dur_ns = se.ev.dur_ns;
      w.trace_id = se.ev.trace_id;
      if (se.ev.arg_name != nullptr) {
        w.arg_name = se.ev.arg_name;
        w.arg_value = se.ev.arg_value;
      }
      out.spans.push_back(std::move(w));
    }
    if (out.spans.size() > kMergedSpanCap) {
      obs::logf(LogLevel::kWarn, "proxy",
                "tracedump truncated: %zu spans merged, keeping newest %zu",
                out.spans.size(), kMergedSpanCap);
      out.spans.erase(out.spans.begin(),
                      out.spans.end() - static_cast<std::ptrdiff_t>(
                                            kMergedSpanCap));
      out.stats.trace_dropped += 1;  // surfaced as a truncation warning
    }
  }
  if (req.type == ReqType::kMetricsDump)
    out.report = merge_prometheus(metric_sections);
  // Health from the routing tier's own perspective: ready as long as
  // any shard can take traffic.
  if (req.type == ReqType::kHealth) {
    bool any_up = false;
    for (const auto& sh : out.shards) any_up = any_up || sh.healthy;
    out.ready = out.ready && any_up;
  }
  // The proxy's own resilience layers are part of the cluster's story:
  // the merged stats carry its quota/brownout/stale counters (shards
  // report zeros for these), and health says when load is being shed.
  out.stats.quota_rejections += quota_.rejections();
  out.stats.brownout_sheds += brownout_sheds_.load();
  out.stats.stale_serves += stale_serves_.load();
  out.stats.sampled_requests += sampled_.load();
  out.stats.trace_dropped += obs::Tracer::global().dropped_count();
  // Cluster SLO verdict: the proxy's own client-facing burn, or any
  // shard already in breach.
  const obs::BurnRates burn = slo_.burn();
  if (slo_.enabled()) {
    out.stats.slo_p99_ms = opt_.slo_p99_ms;
    out.stats.slo_availability = opt_.slo_availability;
    out.stats.lat_burn_1m = std::max(out.stats.lat_burn_1m, burn.lat_1m);
    out.stats.lat_burn_5m = std::max(out.stats.lat_burn_5m, burn.lat_5m);
    out.stats.lat_burn_1h = std::max(out.stats.lat_burn_1h, burn.lat_1h);
    out.stats.avail_burn_1m =
        std::max(out.stats.avail_burn_1m, burn.avail_1m);
    out.stats.avail_burn_5m =
        std::max(out.stats.avail_burn_5m, burn.avail_5m);
    out.stats.avail_burn_1h =
        std::max(out.stats.avail_burn_1h, burn.avail_1h);
  }
  out.slo_burning = burn.burning || shard_burning;
  std::size_t live = 0, total = 0;
  out.brownout = brownout_active(&live, &total);
  out.live_shards = live;
  out.total_shards = total;
  return out;
}

}  // namespace vppb::cluster
