#include "server/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "server/handlers.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vppb::server {

namespace {
using obs::LogLevel;
}  // namespace

Server::Server(ServerOptions opt)
    : opt_(opt),
      faults_(opt.faults ? opt.faults : &util::FaultPlan::global()),
      cache_(opt.cache_entries, opt.cache_bytes, faults_),
      frames_(opt, "server",
              [this](std::vector<std::uint8_t>& payload,
                     std::uint64_t conn_id) {
                return serve_frame(payload, conn_id);
              },
              FrameHooks{[this]() { metrics_.count_auth_failure(); },
                         [this]() { metrics_.count_idle_reap(); }}) {
  if (opt_.pool) {
    pool_ = opt_.pool;
  } else {
    owned_pool_ = std::make_unique<util::ThreadPool>(opt_.jobs);
    pool_ = owned_pool_.get();
  }
  cache_.configure_quarantine(opt_.poison_strikes, opt_.quarantine_ms);
  slo_.configure(obs::SloOptions{opt_.slo_p99_ms, opt_.slo_availability});
}

Server::~Server() { stop(); }

void Server::start() {
  VPPB_CHECK_MSG(!running_.load(), "server already started");
  frames_.bind();
  // Epoch: unique per process start.  Mixing the pid into the clock
  // reading keeps two shards forked in the same tick distinguishable.
  epoch_ = static_cast<std::uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count()) ^
           (static_cast<std::uint64_t>(::getpid()) << 48);
  if (epoch_ == 0) epoch_ = 1;
  // Always-on span capture (tracedump drains these rings; bench_obs
  // gates the enabled overhead < 3%).
  if (opt_.tracing) obs::Tracer::global().enable();
  running_.store(true);
  watchdog_stop_.store(false);
  if (opt_.watchdog_interval_ms > 0)
    watchdog_thread_ = std::thread(&Server::watchdog_loop, this);
  frames_.start();
  obs::logf(LogLevel::kInfo, "server", "listening on %s (admission limit %d)",
            frames_.endpoint().c_str(), opt_.admission_limit);
  if (faults_->armed())
    obs::logf(LogLevel::kWarn, "server", "fault injection armed: %s",
              faults_->summary().c_str());
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  frames_.stop();
  // An abandoned worker task may still be running after its waiter
  // returned; it captures `this`, so it must finish before teardown.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [&]() { return tasks_live_ == 0; });
  }
  // The watchdog outlives the drain so it can rescue draining
  // connections whose worker is wedged.
  watchdog_stop_.store(true);
  watch_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  obs::logf(LogLevel::kInfo, "server", "stopped (drained) on %s",
            frames_.endpoint().c_str());
}

std::vector<std::uint8_t> Server::serve_frame(
    std::vector<std::uint8_t>& payload, std::uint64_t conn_id) {
  // Fault injection happens where real damage would: between the wire
  // and the decoder.  A corrupted payload must come back as a typed
  // kError response; a short read must cost exactly this connection and
  // nothing else.
  if (faults_->should_fire(util::FaultSite::kShortRead))
    throw Error("injected short read: dropping connection");
  if (!payload.empty() && faults_->should_fire(util::FaultSite::kCorruptFrame))
    payload[payload.size() / 2] ^= 0x20;
  Response resp;
  std::uint64_t trace_id = 0;
  try {
    const Request req = decode_request(payload);
    trace_id = req.trace_id;
    resp = execute(req, conn_id);
  } catch (const Error& e) {
    // Undecodable but correctly framed request: answer, keep the
    // connection (the framing itself is intact).
    resp.status = Status::kError;
    resp.error = e.what();
    metrics_.count_error();
  }
  // Every response names its origin, not just the probe types: the
  // routing tier attributes compute answers (failover, hedging) by the
  // shard identity stamped here.
  resp.shard_id = opt_.shard_id;
  resp.epoch = epoch_;
  resp.trace_id = trace_id;
  if (resp.timeline.empty()) return encode(resp);
  // The serialize stage cannot ride inside the bytes it measures; time
  // a first encode, then re-encode with the stage appended (only
  // timeline requests pay the double encode).
  std::int64_t last_us = 0;
  for (const StageSpan& sp : resp.timeline)
    last_us =
        std::max(last_us, sp.start_us + (sp.dur_us > 0 ? sp.dur_us : 0));
  const auto s0 = std::chrono::steady_clock::now();
  (void)encode(resp);
  const std::int64_t ser_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - s0)
          .count();
  resp.timeline.push_back(
      StageSpan{"serialize", last_us, std::max<std::int64_t>(ser_us, 1), 0});
  return encode(resp);
}

core::RunLimits Server::request_limits(const Request& req) const {
  core::RunLimits limits;
  limits.max_steps = opt_.max_steps;
  limits.max_sim_ms = opt_.max_sim_ms;
  limits.max_result_bytes = opt_.max_result_mb << 20;
  // The tighter of the server wall ceiling and the request's own
  // deadline: the engine then notices an expired deadline mid-step,
  // not just at the coarse handler checkpoints.
  limits.max_wall_ms = opt_.max_wall_ms;
  if (req.deadline_ms > 0 &&
      (limits.max_wall_ms == 0 || req.deadline_ms < limits.max_wall_ms))
    limits.max_wall_ms = req.deadline_ms;
  return limits;
}

bool Server::client_admit(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(client_mu_);
  int& n = client_in_flight_[client];
  if (n >= opt_.per_client_limit) return false;
  ++n;
  return true;
}

void Server::client_release(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(client_mu_);
  auto it = client_in_flight_.find(client);
  if (it != client_in_flight_.end() && --it->second <= 0)
    client_in_flight_.erase(it);
}

Response Server::execute(const Request& req, std::uint64_t conn_key) {
  metrics_.count_request(req.type);
  if (req.trace_id != 0) metrics_.count_sampled();
  const auto t0 = std::chrono::steady_clock::now();

  // Health answers before admission: a readiness probe that can be
  // rejected for overload cannot tell "busy but alive" from "dead",
  // which is the one question it exists to answer.
  if (req.type == ReqType::kHealth) return health_response();

  const bool compute = req.type == ReqType::kPredict ||
                       req.type == ReqType::kSimulate ||
                       req.type == ReqType::kAnalyze;

  // Quarantine check before any slot is reserved: a poisoned trace has
  // already cost workers; it must not cost admission capacity too.
  // Anything other than "quarantined" (unreadable file, ...) falls
  // through — the handler produces the authoritative error.
  if (compute) {
    try {
      cache_.check_poisoned(req.trace_path);
    } catch (const Poisoned& e) {
      metrics_.count_poisoned();
      obs::logf(LogLevel::kWarn, "server", "poisoned: rejecting %s of %s",
                to_string(req.type), req.trace_path.c_str());
      Response resp;
      resp.type = req.type;
      resp.status = Status::kPoisoned;
      resp.error = e.what();
      return resp;
    } catch (const std::exception&) {
    }
  }

  // Per-client fair admission before the global gate: one flooding
  // client exhausts its own quota, not the shared slots.
  // Identity order: explicit client_id, then the origin the routing
  // tier stamped (all proxy traffic shares pooled connections, so the
  // conn key alone cannot tell proxied callers apart), then the
  // connection itself.
  const std::uint64_t client = req.client_id != 0   ? req.client_id
                               : req.origin_id != 0 ? req.origin_id
                                                    : conn_key;
  const bool client_gated = opt_.per_client_limit > 0;
  if (client_gated && !client_admit(client)) {
    metrics_.count_overload();
    obs::logf(LogLevel::kDebug, "server",
              "overload: client %llu over per-client limit %d",
              static_cast<unsigned long long>(client), opt_.per_client_limit);
    Response resp;
    resp.type = req.type;
    resp.status = Status::kOverloaded;
    resp.error = strprintf("client quota exceeded: %d requests in flight "
                           "for this client (per-client limit %d); retry later",
                           opt_.per_client_limit, opt_.per_client_limit);
    return resp;
  }

  // Admission: reserve a slot or reject immediately.  The count covers
  // requests posted to the pool but not yet finished, so a saturated
  // pool surfaces as explicit overload, never as unbounded queueing.
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      opt_.admission_limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (client_gated) client_release(client);
    metrics_.count_overload();
    obs::logf(LogLevel::kDebug, "server", "overload: rejecting %s request",
              to_string(req.type));
    Response resp;
    resp.type = req.type;
    resp.status = Status::kOverloaded;
    resp.error = strprintf("server overloaded: %d requests in flight "
                           "(admission limit %d); retry later",
                           opt_.admission_limit, opt_.admission_limit);
    return resp;
  }

  auto st = std::make_shared<ReqState>();
  st->guard.arm(request_limits(req));
  st->deadline = Deadline::after_ms(req.deadline_ms);
  st->type = req.type;
  st->trace_path = compute ? req.trace_path : std::string();
  st->admitted_at = t0;
  std::int64_t posted_us = 0;
  if (req.want_timeline && compute) {
    st->timeline = std::make_unique<obs::Timeline>();
    // Admission covers everything from frame decode to the pool post
    // (quarantine + quota checks); queue is stamped by the worker when
    // it actually picks the request up.
    posted_us = st->timeline->now_us();
    st->timeline->stage("admission", 0, posted_us);
  }
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watched_.push_back(st);
  }
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++tasks_live_;
  }
  pool_->post([this, req, st, posted_us]() {
    if (st->timeline)
      st->timeline->stage("queue", posted_us,
                          st->timeline->now_us() - posted_us);
    Response r = dispatch(req, *st);
    {
      // The watchdog may have answered the client already; its verdict
      // stands and this (late) result is discarded.
      std::lock_guard<std::mutex> lock(st->mu);
      if (!st->done) {
        st->resp = std::move(r);
        st->done = true;
        st->cv.notify_one();
      }
    }
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (--tasks_live_ == 0) drain_cv_.notify_all();
  });

  Response resp;
  {
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait(lock, [&]() { return st->done; });
    resp = std::move(st->resp);
  }
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    for (auto it = watched_.begin(); it != watched_.end(); ++it) {
      if (it->get() == st.get()) {
        watched_.erase(it);
        break;
      }
    }
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  if (client_gated) client_release(client);

  // A result computed after the deadline passed is as useless to the
  // client as no result: report it as such, so deadline semantics hold
  // even when no handler checkpoint happened to notice the expiry.
  if (resp.status == Status::kOk && st->deadline.expired()) {
    resp = Response{};
    resp.type = req.type;
    resp.status = Status::kDeadlineExceeded;
    resp.error = "deadline exceeded: result completed too late";
    metrics_.count_deadline();
  }

  if (resp.status == Status::kError) metrics_.count_error();
  const double latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  metrics_.record_latency_us(latency_us, req.sampled ? req.trace_id : 0);
  if (compute) {
    // SLO accounting covers compute only: probes and dumps are not the
    // service the objectives are about.  Overload and poison rejections
    // count as ok — they are the server protecting the objective, and
    // charging them would let one flooding client burn the error budget.
    const bool ok = resp.status != Status::kError &&
                    resp.status != Status::kDeadlineExceeded &&
                    resp.status != Status::kBudgetExceeded;
    slo_.record(latency_us, ok);
  }
  obs::logf(LogLevel::kDebug, "server", "%s -> status %d in %.0f us",
            to_string(req.type), static_cast<int>(resp.status), latency_us);
  return resp;
}

Response Server::dispatch(const Request& req, ReqState& st) {
  // Propagated trace context: every span this worker opens while the
  // handler runs carries the caller's trace id, so a cross-process
  // trace-collect can stitch proxy and shard spans into one trace.
  obs::TraceContext tctx(req.sampled ? req.trace_id : 0);
  Response resp = [&]() -> Response {
  try {
    // A request that spent its whole budget waiting for a worker is
    // abandoned here, before any compute.
    st.deadline.check("queue wait");
    // Worker-side stall faults.  delay-ms is cooperative: it polls the
    // guard, so a watchdog cancel cuts it short.  wedge-ms is not — it
    // models a worker stuck in a tight native loop, which only the
    // watchdog's abandon-and-replace escalation can get past.
    if (faults_->should_fire(util::FaultSite::kDelayResponse)) {
      const auto until =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(
              faults_->param(util::FaultSite::kDelayResponse));
      while (std::chrono::steady_clock::now() < until) {
        st.guard.check_cancel();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (faults_->should_fire(util::FaultSite::kWedge))
      std::this_thread::sleep_for(std::chrono::milliseconds(
          faults_->param(util::FaultSite::kWedge)));
    switch (req.type) {
      case ReqType::kPredict:
        return handle_predict(req, cache_, st.deadline, &st.guard,
                              st.timeline.get());
      case ReqType::kSimulate:
        return handle_simulate(req, cache_, st.deadline, &st.guard,
                               st.timeline.get());
      case ReqType::kAnalyze:
        return handle_analyze(req, cache_, st.deadline, &st.guard,
                              st.timeline.get());
      case ReqType::kStats:
        return stats_response();
      case ReqType::kHealth:
        return health_response();  // normally answered pre-admission
      case ReqType::kMetricsDump:
        return metricsdump_response();
      case ReqType::kTraceDump:
        return tracedump_response();
    }
    throw Error("unhandled request type");
  } catch (const DeadlineExceeded& e) {
    metrics_.count_deadline();
    Response resp;
    resp.type = req.type;
    resp.status = Status::kDeadlineExceeded;
    resp.error = e.what();
    return resp;
  } catch (const core::BudgetExceeded& e) {
    Response resp;
    resp.type = req.type;
    // A cancel or wall trip on a request whose own deadline has passed
    // is that deadline biting (the guard is just the messenger), so the
    // client sees the same typed status it always has.  Genuine budget
    // trips additionally count as a poison strike: a trace that eats a
    // budget is on its way to quarantine.
    if (st.deadline.expired() && (e.trip() == core::GuardTrip::kCancelled ||
                                  e.trip() == core::GuardTrip::kWallTime)) {
      metrics_.count_deadline();
      resp.status = Status::kDeadlineExceeded;
    } else {
      metrics_.count_budget();
      resp.status = Status::kBudgetExceeded;
      if (!st.trace_path.empty()) cache_.record_strike(st.trace_path);
    }
    resp.error = e.what();
    return resp;
  } catch (const Poisoned& e) {
    // The quarantine tripped between the pre-admission check and the
    // cache lookup (another worker's strike landed in the window).
    metrics_.count_poisoned();
    Response resp;
    resp.type = req.type;
    resp.status = Status::kPoisoned;
    resp.error = e.what();
    return resp;
  } catch (const std::bad_alloc&) {
    // Allocation failure is the "crash" half of the poison ledger: a
    // trace that blows the heap will do it again on retry.
    if (!st.trace_path.empty()) cache_.record_strike(st.trace_path);
    Response resp;
    resp.type = req.type;
    resp.status = Status::kError;
    resp.error = "out of memory while serving request";
    return resp;
  } catch (const std::exception& e) {
    // std::exception, not just vppb::Error: an unexpected exception must
    // become a typed response, never a dead worker.
    Response resp;
    resp.type = req.type;
    resp.status = Status::kError;
    resp.error = e.what();
    return resp;
  }
  }();
  // The worker — not the IO thread — copies the timeline into the
  // response, so a watchdog-answered request simply carries none and no
  // reader ever races a wedged worker still stamping stages.
  if (st.timeline != nullptr) {
    for (const obs::Stage& sp : st.timeline->stages())
      resp.timeline.push_back(
          StageSpan{sp.name, sp.start_us, sp.dur_us, sp.depth});
  }
  return resp;
}

void Server::watchdog_loop() {
  for (;;) {
    std::vector<std::shared_ptr<ReqState>> snapshot;
    {
      std::unique_lock<std::mutex> lock(watch_mu_);
      watch_cv_.wait_for(
          lock, std::chrono::milliseconds(opt_.watchdog_interval_ms),
          [&]() { return watchdog_stop_.load(); });
      if (watchdog_stop_.load()) return;
      snapshot = watched_;
    }
    for (const auto& st : snapshot) watchdog_scan(st);
  }
}

void Server::watchdog_scan(const std::shared_ptr<ReqState>& st) {
  {
    std::lock_guard<std::mutex> lock(st->mu);
    if (st->done) return;
  }
  const auto now = std::chrono::steady_clock::now();
  if (!st->cancelled) {
    bool overdue = st->deadline.expired();
    if (opt_.max_wall_ms > 0 &&
        now - st->admitted_at >= std::chrono::milliseconds(opt_.max_wall_ms))
      overdue = true;
    if (!overdue) return;
    // First rung: cooperative.  A worker at any guard checkpoint sees
    // this on its next step and unwinds with a typed error.
    st->guard.cancel();
    st->cancelled = true;
    st->cancelled_at = now;
    metrics_.count_watchdog_cancel();
    obs::logf(LogLevel::kWarn, "server",
              "watchdog: cancelled overdue %s request",
              to_string(st->type));
    return;
  }
  if (st->abandoned) return;
  if (now - st->cancelled_at <
      std::chrono::milliseconds(opt_.watchdog_escalate_ms))
    return;
  // Second rung: the worker ignored the cancel for the whole escalation
  // grace — treat it as wedged.  Answer the client in its stead, put the
  // content on the poison ledger, and restore the pool capacity the
  // wedged worker is sitting on.
  Response resp;
  resp.type = st->type;
  if (st->deadline.expired()) {
    resp.status = Status::kDeadlineExceeded;
    resp.error = "deadline exceeded: worker unresponsive, request abandoned";
    metrics_.count_deadline();
  } else {
    resp.status = Status::kBudgetExceeded;
    resp.error =
        "wall-time budget exceeded: worker unresponsive, request abandoned";
    metrics_.count_budget();
  }
  {
    std::lock_guard<std::mutex> lock(st->mu);
    if (st->done) return;  // the worker came back at the last moment
    st->resp = std::move(resp);
    st->done = true;
    st->cv.notify_one();
  }
  st->abandoned = true;
  if (!st->trace_path.empty()) cache_.record_strike(st->trace_path);
  if (replacements_made_ < opt_.watchdog_max_replacements) {
    ++replacements_made_;
    pool_->grow(1);
    metrics_.count_watchdog_replacement();
    obs::logf(LogLevel::kWarn, "server",
              "watchdog: abandoned wedged %s request, grew pool "
              "(replacement %d of %d)",
              to_string(st->type), replacements_made_,
              opt_.watchdog_max_replacements);
  } else {
    obs::logf(LogLevel::kWarn, "server",
              "watchdog: abandoned wedged %s request (replacement "
              "budget exhausted)",
              to_string(st->type));
  }
}

void Server::fill_cache_stats(StatsBody& out) {
  const TraceCache::Stats cs = cache_.stats();
  out.cache_hits = cs.hits;
  out.cache_misses = cs.misses;
  out.cache_evictions = cs.evictions;
  out.cache_waits = cs.waits;
  out.cache_entries = cs.entries;
  out.cache_bytes = cs.bytes;
  out.poison_strikes = cs.poison_strikes;
  out.quarantined = cs.quarantined;
}

void Server::fill_slo(Response& resp) {
  resp.stats.slo_p99_ms = opt_.slo_p99_ms;
  resp.stats.slo_availability = opt_.slo_availability;
  const obs::BurnRates burn = slo_.burn();
  resp.stats.lat_burn_1m = burn.lat_1m;
  resp.stats.lat_burn_5m = burn.lat_5m;
  resp.stats.lat_burn_1h = burn.lat_1h;
  resp.stats.avail_burn_1m = burn.avail_1m;
  resp.stats.avail_burn_5m = burn.avail_5m;
  resp.stats.avail_burn_1h = burn.avail_1h;
  resp.stats.trace_dropped = obs::Tracer::global().dropped_count();
  resp.slo_burning = burn.burning;
}

Response Server::stats_response() {
  Response resp;
  resp.type = ReqType::kStats;
  resp.shard_id = opt_.shard_id;
  resp.epoch = epoch_;
  metrics_.snapshot(resp.stats);  // includes this stats request itself
  fill_cache_stats(resp.stats);
  fill_slo(resp);
  return resp;
}

Response Server::health_response() {
  Response resp;
  resp.type = ReqType::kHealth;
  resp.shard_id = opt_.shard_id;
  resp.epoch = epoch_;
  resp.ready = running_.load();
  resp.in_flight = static_cast<std::uint64_t>(
      in_flight_.load(std::memory_order_acquire));
  resp.admission_limit = static_cast<std::uint64_t>(opt_.admission_limit);
  metrics_.snapshot(resp.stats);
  fill_cache_stats(resp.stats);
  fill_slo(resp);
  return resp;
}

Response Server::tracedump_response() {
  Response resp;
  resp.type = ReqType::kTraceDump;
  resp.shard_id = opt_.shard_id;
  resp.epoch = epoch_;
  const obs::Tracer& tracer = obs::Tracer::global();
  // Absolute unix-ns timestamps: each process stamps events against its
  // own captured system-clock epoch, so the collector merges dumps from
  // proxy + shards without any clock negotiation.
  const std::int64_t epoch_unix = tracer.epoch_unix_ns();
  // Per-ring cap keeps the dump (64 threads x cap) under kMaxFrame even
  // with every ring full.
  for (const obs::Tracer::SnapshotEvent& se : tracer.snapshot(1u << 15)) {
    WireSpan w;
    w.pid = opt_.shard_id;
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
    resp.spans.push_back(std::move(w));
  }
  metrics_.snapshot(resp.stats);
  fill_cache_stats(resp.stats);
  fill_slo(resp);
  return resp;
}

Response Server::metricsdump_response() {
  // Refresh the point-in-time gauges the event paths cannot keep
  // current on their own, then dump the whole registry.  The text rides
  // in `report`, the same free-form channel `analyze` uses.
  auto& reg = obs::Registry::global();
  reg.gauge("vppb_server_in_flight", "Admitted requests currently running")
      .set(in_flight_.load(std::memory_order_acquire));
  reg.gauge("vppb_server_admission_limit", "Admission control limit")
      .set(opt_.admission_limit);
  const TraceCache::Stats cs = cache_.stats();  // also refreshes the
                                                // quarantined gauge
  reg.gauge("vppb_cache_entries", "Ready entries resident")
      .set(static_cast<std::int64_t>(cs.entries));
  reg.gauge("vppb_cache_bytes",
            "Charged trace bytes resident (file + footprint)")
      .set(static_cast<std::int64_t>(cs.bytes));
  // Burn rates are dimensionless ratios; gauges are integral, so they
  // export in milli-units (burn x1000) — 1000 = burning exactly at the
  // objective's sustainable rate.
  const obs::BurnRates burn = slo_.burn();
  const auto milli = [](double v) {
    return static_cast<std::int64_t>(v * 1000.0);
  };
  reg.gauge("vppb_slo_latency_burn_5m_milli",
            "Latency error-budget burn rate over 5m, x1000")
      .set(milli(burn.lat_5m));
  reg.gauge("vppb_slo_availability_burn_5m_milli",
            "Availability error-budget burn rate over 5m, x1000")
      .set(milli(burn.avail_5m));
  reg.gauge("vppb_slo_burning",
            "1 when a multi-window burn-rate alert is firing")
      .set(burn.burning ? 1 : 0);

  Response resp;
  resp.type = ReqType::kMetricsDump;
  resp.shard_id = opt_.shard_id;
  resp.epoch = epoch_;
  resp.report = reg.prometheus_text();
  metrics_.snapshot(resp.stats);  // keep the structured body populated too
  fill_cache_stats(resp.stats);
  fill_slo(resp);
  return resp;
}

}  // namespace vppb::server
