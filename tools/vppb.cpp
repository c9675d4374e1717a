// vppb — the command-line front-end tying the whole tool together.
//
//   vppb gen <workload>      record a built-in workload to a trace file
//   vppb info <trace>        log statistics (threads, events, duration)
//   vppb check <trace>       semantic lint (unmatched unlocks, bad joins)
//   vppb predict <trace>     speed-up sweep across processor counts
//   vppb simulate <trace>    full simulation: timeline, stats, SVG/ASCII
//   vppb analyze <trace>     contention report (the §5 diagnosis)
//   vppb validate <workload> Table-1-style row: real vs predicted
//   vppb convert <in> <out>  text <-> binary trace conversion
//   vppb serve               run the resident prediction daemon (vppbd)
//   vppb proxy               consistent-hash routing tier over N shards
//   vppb cluster             fork N shards + proxy in one command
//   vppb request <type> ...  query a running daemon (or proxy)
//
// Trace files are sniffed: both the text and the binary format load.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "cluster/launcher.hpp"
#include "cluster/membership.hpp"
#include "cluster/proxy.hpp"
#include "core/engine.hpp"
#include "core/sweep.hpp"
#include "machine/validate.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "recorder/recorder.hpp"
#include "server/auth.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/stats_text.hpp"
#include "server/trace_cache.hpp"
#include "solaris/program.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "trace/lint.hpp"
#include "util/atomic_file.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/table.hpp"
#include "viz/analysis.hpp"
#include "viz/visualizer.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace vppb;

int usage() {
  std::fprintf(
      stderr,
      "usage: vppb <command> [args]\n"
      "  gen <workload> [--threads N] [--scale S] [--out F] [--binary]\n"
      "      [--crash-safe] [--chunk-records N]\n"
      "      workloads: ocean water fft radix lu prodcons-naive\n"
      "                 prodcons-tuned forkjoin pipeline\n"
      "      --crash-safe streams a chunked log to <out> as the workload\n"
      "      runs; a crash mid-run leaves every sealed chunk recoverable\n"
      "  info <trace>\n"
      "  check <trace>        semantic lint; exit 0 clean, 3 warnings,\n"
      "        4 errors (unlock-without-lock, bad joins, negative\n"
      "        semaphore counts, non-monotonic timestamps, ...)\n"
      "  predict <trace> [--max-cpus N] [--lwps N] [--comm-delay-us D]\n"
      "          [--jobs N]   (0 = all hardware threads)\n"
      "  simulate <trace> [--cpus N] [--lwps N] [--svg F] [--columns N]\n"
      "  analyze <trace> [--cpus N]\n"
      "  predict/simulate/analyze accept run budgets (--max-steps N,\n"
      "  --max-sim-ms N, --max-result-mb N, --max-wall-ms N; 0 = off);\n"
      "  a tripped budget exits 5 with the budget named\n"
      "  validate <workload> [--cpus-list 2,4,8] [--scale S] [--reps N]\n"
      "  convert <in> <out>   (binary iff <out> ends in .bin)\n"
      "  serve [--socket PATH | --port N] [--jobs N] [--admission N]\n"
      "        [--cache-entries N] [--cache-mb N] [--per-client N]\n"
      "        [--shard-id N]   (identity reported in health/stats)\n"
      "        budgets as above, plus the watchdog/quarantine knobs:\n"
      "        [--watchdog-ms N] [--escalate-ms N] [--poison-strikes N]\n"
      "        [--quarantine-ms N]\n"
      "  proxy --shards EP[,EP...] [--socket PATH | --port N]\n"
      "        [--hedge-ms N] [--vnodes N] [--forward-timeout-ms N]\n"
      "        [--quota-rps R] [--quota-burst B] [--replicas N]\n"
      "        [--brownout-live-pct P] [--brownout-inflight N]\n"
      "        [--stale-ms N]\n"
      "        consistent-hash routing tier; each EP is a unix socket\n"
      "        path or a loopback port; exit 1 on bad config\n"
      "  cluster [--shards N] [--dir D] [--socket PATH | --port N]\n"
      "          [--jobs N] [--cache-entries N] [--hedge-ms N]\n"
      "          + the proxy resilience flags above\n"
      "          fork N vppbd shards under D + serve a proxy over them\n"
      "  request <predict|simulate|analyze|stats|health|metricsdump|\n"
      "           tracedump>\n"
      "          [trace] [--socket PATH | --port N] [--deadline-ms N]\n"
      "          [--timeout-ms N] [--retries N] [--client-id N] + the\n"
      "          predict/simulate/analyze flags above; --svg F saves the\n"
      "          simulate render; exit 3 overloaded, 4 deadline, 5 budget\n"
      "          exceeded, 6 poisoned, 7 quota exceeded, 8 SLO burning\n"
      "          (health only), 9 authentication rejected\n"
      "          --timeline prints the per-stage waterfall of this\n"
      "          request (queue/admission/cache/compile/simulate/...);\n"
      "          --trace-id N tags the request with a chosen distributed\n"
      "          trace id (0 = mint one when --timeline is set)\n"
      "  stats [--watch] [--interval-ms N] [--count N]\n"
      "        live daemon counter view (stats request in a loop)\n"
      "  top [--interval-ms N] [--count N]\n"
      "        live per-shard dashboard: rps, p99, SLO burn rates,\n"
      "        brownout/stale counters (against a proxy or a vppbd)\n"
          "  trace-collect [--out F] [--socket PATH | --port N]\n"
      "        drain span rings cluster-wide into one clock-aligned\n"
      "        Chrome trace JSON (pid = shard id, 0 = proxy); load it\n"
      "        at ui.perfetto.dev\n"
      "  serve/proxy/cluster accept SLO objectives (--slo-p99-ms MS,\n"
      "  --slo-availability F e.g. 0.999): stats/health/top surface\n"
      "  multi-window burn rates; health exits 8 while burning\n"
      "  info/predict/simulate/analyze/convert accept --salvage: load the\n"
      "  longest valid prefix of a damaged trace instead of failing\n"
      "  workload names must be exact or a unique prefix of >= 4 chars\n"
      "  serve/proxy TCP listeners run the v8 challenge-response\n"
      "  handshake; --auth-key-file F (or $VPPB_AUTH_KEY) makes the key\n"
      "  proof mandatory, and request uses the same flag/env to answer.\n"
      "  Partition tolerance knobs: --connect-timeout-ms,\n"
      "  --idle-timeout-ms, --frame-deadline-ms, --max-request-frame-mb\n"
      "  global: --profile F (or $VPPB_PROFILE) writes a Chrome trace of\n"
      "  the run; --log-level L / --log-json override $VPPB_LOG\n");
  return 2;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& app : workloads::splash_suite()) {
    std::string key = app.name;
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    names.push_back(key);
  }
  names.insert(names.end(), {"prodcons-naive", "prodcons-tuned", "forkjoin",
                             "pipeline"});
  return names;
}

/// Accepts an exact workload name or a unique prefix of at least 4
/// characters; anything else — a typo like "radixsort", an ambiguous or
/// too-short prefix — errors with the candidate list, instead of the
/// old behaviour of silently running whatever shared 5 characters.
std::string resolve_workload_name(const std::string& name) {
  const std::vector<std::string> names = workload_names();
  std::vector<std::string> matches;
  for (const auto& n : names) {
    if (n == name) return n;
    if (name.size() >= 4 && n.size() > name.size() &&
        n.compare(0, name.size(), name) == 0) {
      matches.push_back(n);
    }
  }
  if (matches.size() == 1) return matches.front();
  std::string msg = matches.size() > 1
                        ? "ambiguous workload '" + name + "'; matches:"
                        : "unknown workload '" + name + "'; workloads:";
  for (const auto& n : (matches.size() > 1 ? matches : names)) msg += ' ' + n;
  throw Error(msg);
}

std::function<void()> workload_by_name(const std::string& given, int threads,
                                       double scale) {
  const std::string name = resolve_workload_name(given);
  for (const auto& app : workloads::splash_suite()) {
    std::string key = app.name;
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    if (key == name) {
      return [app, threads, scale]() {
        app.run(workloads::SplashParams{threads, scale});
      };
    }
  }
  if (name == "prodcons-naive" || name == "prodcons-tuned") {
    workloads::ProdConsParams p;
    p.producers = 30 * threads / 8 + 10;
    p.consumers = p.producers / 2;
    p.items_per_producer = 10;
    const bool tuned = name == "prodcons-tuned";
    return [p, tuned]() {
      if (tuned) {
        workloads::prodcons_tuned(p);
      } else {
        workloads::prodcons_naive(p);
      }
    };
  }
  if (name == "forkjoin") {
    return [threads, scale]() {
      workloads::fork_join(threads, SimTime::millis(20).scaled(scale));
    };
  }
  if (name == "pipeline") {
    return [threads, scale]() {
      workloads::pipeline(threads, 50,
                          SimTime::micros(400).scaled(scale));
    };
  }
  throw Error("unknown workload '" + name + "'");
}

/// Budgets for an offline run, from the shared --max-* flags.  The
/// returned guard is unarmed (all zero) unless the user set a flag, so
/// the default CLI path stays the guarded-but-unlimited fast path.
core::RunLimits cli_limits(Flags& flags) {
  core::RunLimits limits;
  limits.max_steps = static_cast<std::uint64_t>(flags.i64("max-steps"));
  limits.max_sim_ms = flags.i64("max-sim-ms");
  limits.max_result_bytes =
      static_cast<std::uint64_t>(flags.i64("max-result-mb")) << 20;
  limits.max_wall_ms = flags.i64("max-wall-ms");
  return limits;
}

/// Loads a trace honoring --salvage: in salvage mode a damaged file
/// yields its longest valid prefix, with the recovery report on stderr.
trace::Trace load_trace(Flags& flags, const std::string& path) {
  if (!flags.boolean("salvage")) return trace::load_any_file(path);
  trace::LoadOptions opt;
  opt.salvage = true;
  trace::LoadReport report;
  trace::Trace t = trace::load_any_file(path, opt, &report);
  // summary() already lists each issue with its byte offset.
  obs::logf(obs::LogLevel::kWarn, "cli", "salvage: %s",
            report.summary().c_str());
  return t;
}

int cmd_gen(Flags& flags) {
  if (flags.positional().size() < 2) return usage();
  const int threads = static_cast<int>(flags.i64("threads"));
  const auto body =
      workload_by_name(flags.positional()[1], threads, flags.dbl("scale"));
  sol::Program program;
  const std::string out = flags.str("out");
  rec::Recorder::Options ropts;
  if (flags.boolean("crash-safe")) {
    // The chunked live log IS the output: it is complete by the time
    // record_program returns, and it would have been (up to the last
    // unsealed chunk) even if the workload had died mid-run.
    ropts.live_log_path = out;
    ropts.live_chunk_records =
        static_cast<std::size_t>(flags.i64("chunk-records"));
    ropts.install_crash_handlers = true;
  }
  const trace::Trace t = rec::record_program(program, body, ropts);
  if (!flags.boolean("crash-safe")) {
    if (flags.boolean("binary")) {
      trace::save_binary_file(t, out);
    } else {
      trace::save_file(t, out);
    }
  }
  std::printf("recorded %zu events over %s -> %s%s\n", t.records.size(),
              t.duration().to_string().c_str(), out.c_str(),
              flags.boolean("crash-safe") ? " (crash-safe chunked log)" : "");
  return 0;
}

int cmd_info(Flags& flags) {
  if (flags.positional().size() < 2) return usage();
  const trace::Trace t = load_trace(flags, flags.positional()[1]);
  const trace::TraceStats stats = trace::compute_stats(t);
  std::printf("trace: %s\n", flags.positional()[1].c_str());
  std::printf("  records:    %zu (%zu threads)\n", stats.records,
              stats.threads);
  std::printf("  duration:   %s (uni-processor)\n",
              stats.duration.to_string().c_str());
  std::printf("  event rate: %.0f calls/s\n", stats.events_per_second);
  std::printf("  threads:\n");
  for (const auto& meta : t.threads) {
    std::printf("    T%-4d %-16s start=%s%s\n", meta.tid,
                t.strings.get(meta.name).c_str(),
                t.strings.get(meta.start_func).c_str(),
                meta.bound ? " [bound]" : "");
  }
  std::printf("  calls by primitive:\n");
  for (const auto& [op, n] : stats.per_op) {
    std::printf("    %-18s %zu\n",
                std::string(trace::op_name(op)).c_str(), n);
  }
  return 0;
}

int cmd_check(Flags& flags) {
  if (flags.positional().size() < 2) return usage();
  const trace::Trace t = load_trace(flags, flags.positional()[1]);
  const trace::LintReport report = trace::lint(t);
  std::printf("%s", report.to_string().c_str());
  if (report.errors > 0) return 4;
  if (report.warnings > 0) return 3;
  return 0;
}

int cmd_predict(Flags& flags) {
  if (flags.positional().size() < 2) return usage();
  const core::RunGuard guard(cli_limits(flags));
  // The load goes through a (one-shot, unbounded) TraceCache so the CLI
  // exercises the same path the daemon serves from — and a --profile of
  // a predict run shows cache.get/cache.load spans next to the engine
  // phases.  Salvage mode bypasses it: the cache refuses damaged files.
  server::TraceCache cache(1, std::numeric_limits<std::size_t>::max());
  std::shared_ptr<const server::TraceCache::Entry> entry;
  core::CompiledTrace salvaged;
  if (flags.boolean("salvage")) {
    salvaged = core::compile(load_trace(flags, flags.positional()[1]), &guard);
  } else {
    entry = cache.get(flags.positional()[1], &guard);
  }
  const core::CompiledTrace& compiled = entry ? entry->compiled : salvaged;
  core::SimConfig base;
  base.sched.lwps = static_cast<int>(flags.i64("lwps"));
  base.hw.comm_delay = SimTime::micros(flags.i64("comm-delay-us"));
  std::vector<int> cpu_counts;
  for (int cpus = 1; cpus <= flags.i64("max-cpus"); cpus *= 2)
    cpu_counts.push_back(cpus);
  std::vector<core::SimResult> results;
  core::SweepOptions opt;
  opt.jobs = util::ThreadPool::resolve_jobs(static_cast<int>(flags.i64("jobs")));
  opt.results = &results;
  opt.guard = &guard;
  const core::SpeedupCurve curve =
      core::sweep_cpus(compiled, cpu_counts, base, opt);
  TextTable table;
  table.header({"CPUs", "speed-up", "efficiency"});
  for (const auto& p : curve.points()) {
    table.row({strprintf("%d", p.cpus), strprintf("%.2f", p.speedup),
               strprintf("%.0f%%", 100.0 * p.efficiency)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nAmdahl fit: serial fraction %.1f%%; efficiency stays >= "
              "50%% up to %d CPUs\n",
              100.0 * curve.amdahl_serial_fraction(), curve.knee(0.5));
  std::printf("sweep digest: %016llx\n",
              static_cast<unsigned long long>(core::digest(results)));
  return 0;
}

int cmd_simulate(Flags& flags) {
  if (flags.positional().size() < 2) return usage();
  const core::RunGuard guard(cli_limits(flags));
  const trace::Trace t = load_trace(flags, flags.positional()[1]);
  core::SimConfig cfg;
  cfg.hw.cpus = static_cast<int>(flags.i64("cpus"));
  cfg.sched.lwps = static_cast<int>(flags.i64("lwps"));
  const core::SimResult r = core::simulate(t, cfg, &guard);
  std::printf("predicted %s on %d CPUs (speed-up %.2f, %zu events, "
              "digest %016llx)\n\n",
              r.total.to_string().c_str(), cfg.hw.cpus, r.speedup,
              r.events.size(),
              static_cast<unsigned long long>(core::digest(r)));
  viz::Visualizer v(r, t);
  v.compress_threads();
  const int columns = static_cast<int>(flags.i64("columns"));
  std::printf("%s\n%s\n%s", viz::render_parallelism_ascii(v, columns, 8).c_str(),
              viz::render_flow_ascii(v, columns).c_str(),
              viz::render_lwp_ascii(v, columns).c_str());
  std::printf("\nper-CPU: ");
  for (const auto& c : r.cpu_stats) {
    std::printf("cpu%d %.0f%%  ", c.cpu,
                100.0 * c.busy.seconds_d() /
                    std::max(1e-12, r.total.seconds_d()));
  }
  std::printf("\nLWPs used: %zu\n", r.lwp_stats.size());
  if (!flags.str("svg").empty()) {
    util::atomic_write_file(flags.str("svg"),
                            viz::render_svg(v, viz::RenderOptions{}));
    std::printf("wrote %s\n", flags.str("svg").c_str());
  }
  return 0;
}

int cmd_analyze(Flags& flags) {
  if (flags.positional().size() < 2) return usage();
  const core::RunGuard guard(cli_limits(flags));
  const trace::Trace t = load_trace(flags, flags.positional()[1]);
  core::SimConfig cfg;
  cfg.hw.cpus = static_cast<int>(flags.i64("cpus"));
  const core::SimResult r = core::simulate(t, cfg, &guard);
  const viz::AnalysisReport report = viz::analyze(r, t);
  std::printf("simulated on %d CPUs: speed-up %.2f\n\n%s", cfg.hw.cpus,
              r.speedup, report.to_string().c_str());
  std::printf("\nthread utilization (run/ready/blocked/sleep %%):\n");
  for (const auto& u : report.utilization) {
    std::printf("  T%-4d %-16s %3.0f / %3.0f / %3.0f / %3.0f\n", u.tid,
                u.name.c_str(), 100 * u.running_fraction,
                100 * u.runnable_fraction, 100 * u.blocked_fraction,
                100 * u.sleeping_fraction);
  }
  return 0;
}

int cmd_validate(Flags& flags) {
  if (flags.positional().size() < 2) return usage();
  const double scale = flags.dbl("scale");
  std::vector<int> cpu_counts;
  for (const auto& f : split(flags.str("cpus-list"), ',')) {
    std::int64_t v = 0;
    if (!parse_i64(f, v)) throw Error("bad --cpus-list");
    cpu_counts.push_back(static_cast<int>(v));
  }
  machine::MachineConfig mc;
  mc.repetitions = static_cast<int>(flags.i64("reps"));
  const std::string name = flags.positional()[1];
  const machine::ValidationReport report = machine::validate_workload(
      name,
      [&name, scale](int threads) {
        workload_by_name(name, threads, scale)();
      },
      cpu_counts, mc);
  TextTable table;
  table.header({"CPUs", "real (min-max)", "predicted", "error"});
  for (const auto& p : report.points) {
    table.row({strprintf("%d", p.cpus),
               strprintf("%.2f (%.2f-%.2f)", p.real_mid, p.real_min,
                         p.real_max),
               strprintf("%.2f", p.predicted),
               strprintf("%.1f%%", 100.0 * p.error)});
  }
  std::printf("%s\nmax |error| %.1f%%\n", table.render().c_str(),
              100.0 * report.max_abs_error());
  return 0;
}

int cmd_serve(Flags& flags) {
  server::ServerOptions opt;
  opt.unix_path = flags.str("socket");
  opt.tcp_port = static_cast<std::uint16_t>(flags.i64("port"));
  if (opt.unix_path.empty() && opt.tcp_port == 0) opt.unix_path = "vppb.sock";
  opt.jobs = static_cast<int>(flags.i64("jobs"));
  opt.admission_limit = static_cast<int>(flags.i64("admission"));
  opt.cache_entries = static_cast<std::size_t>(flags.i64("cache-entries"));
  opt.cache_bytes = static_cast<std::size_t>(flags.i64("cache-mb")) << 20;
  opt.max_steps = static_cast<std::uint64_t>(flags.i64("max-steps"));
  opt.max_sim_ms = flags.i64("max-sim-ms");
  opt.max_result_mb = static_cast<std::uint64_t>(flags.i64("max-result-mb"));
  opt.max_wall_ms = flags.i64("max-wall-ms");
  opt.watchdog_interval_ms = flags.i64("watchdog-ms");
  opt.watchdog_escalate_ms = flags.i64("escalate-ms");
  opt.poison_strikes = static_cast<int>(flags.i64("poison-strikes"));
  opt.quarantine_ms = flags.i64("quarantine-ms");
  opt.per_client_limit = static_cast<int>(flags.i64("per-client"));
  opt.shard_id = static_cast<std::uint64_t>(flags.i64("shard-id"));
  opt.slo_p99_ms = flags.dbl("slo-p99-ms");
  opt.slo_availability = flags.dbl("slo-availability");
  opt.auth_key = server::load_auth_key(flags.str("auth-key-file"));
  opt.idle_timeout_ms = flags.i64("idle-timeout-ms");
  opt.frame_deadline_ms = flags.i64("frame-deadline-ms");
  opt.max_request_frame_bytes =
      static_cast<std::size_t>(flags.i64("max-request-frame-mb")) << 20;

  // Block the shutdown signals before any thread exists, so every
  // server/pool thread inherits the mask and only sigwait sees them.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  server::Server srv(opt);
  srv.start();
  std::printf("vppbd: serving on %s (jobs %d, admission %d, cache %zu "
              "entries / %lld MiB)\n",
              srv.endpoint().c_str(),
              util::ThreadPool::resolve_jobs(opt.jobs), opt.admission_limit,
              opt.cache_entries,
              static_cast<long long>(opt.cache_bytes >> 20));
  // An armed fault plan is announced by the server itself, as a
  // structured kWarn line.
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  std::printf("vppbd: caught %s, draining in-flight requests...\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  srv.stop();
  std::printf("vppbd: drained, bye\n");
  return 0;
}

/// Shared by `vppb proxy` and `vppb cluster`: run an already-started
/// proxy until SIGINT/SIGTERM, then drain.  The signal mask must be
/// blocked by the caller *before* the proxy's threads exist.
int run_proxy_until_signal(cluster::Proxy& proxy, sigset_t* set) {
  std::printf("vppb proxy: routing on %s across %zu shards (%zu up)\n",
              proxy.endpoint().c_str(), proxy.membership().shard_count(),
              proxy.membership().up_count());
  std::fflush(stdout);
  int sig = 0;
  sigwait(set, &sig);
  std::printf("vppb proxy: caught %s, draining...\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  proxy.stop();
  std::printf("vppb proxy: drained, bye\n");
  return 0;
}

cluster::ProxyOptions proxy_options_from_flags(Flags& flags) {
  cluster::ProxyOptions opt;
  opt.unix_path = flags.str("socket");
  opt.tcp_port = static_cast<std::uint16_t>(flags.i64("port"));
  if (opt.unix_path.empty() && opt.tcp_port == 0)
    opt.unix_path = "vppb-proxy.sock";
  opt.hedge_ms = flags.i64("hedge-ms");
  opt.forward_timeout_ms = static_cast<int>(flags.i64("forward-timeout-ms"));
  opt.membership.vnodes = static_cast<int>(flags.i64("vnodes"));
  opt.quota.rps = flags.dbl("quota-rps");
  opt.quota.burst = flags.dbl("quota-burst");
  opt.replicas = static_cast<int>(flags.i64("replicas"));
  opt.brownout_min_live_pct =
      static_cast<int>(flags.i64("brownout-live-pct"));
  opt.brownout_max_inflight =
      static_cast<int>(flags.i64("brownout-inflight"));
  opt.stale_ms = flags.i64("stale-ms");
  opt.slo_p99_ms = flags.dbl("slo-p99-ms");
  opt.slo_availability = flags.dbl("slo-availability");
  opt.auth_key = server::load_auth_key(flags.str("auth-key-file"));
  opt.idle_timeout_ms = flags.i64("idle-timeout-ms");
  opt.frame_deadline_ms = flags.i64("frame-deadline-ms");
  opt.max_request_frame_bytes =
      static_cast<std::size_t>(flags.i64("max-request-frame-mb")) << 20;
  if (flags.i64("connect-timeout-ms") > 0)
    opt.membership.dial_timeout_ms =
        static_cast<int>(flags.i64("connect-timeout-ms"));
  return opt;
}

int cmd_proxy(Flags& flags) {
  cluster::ProxyOptions opt = proxy_options_from_flags(flags);
  std::uint64_t next_id = 1;
  for (const auto spec : split(flags.str("shards"), ',')) {
    if (spec.empty()) continue;
    opt.shards.push_back(
        cluster::ShardEndpoint::parse(next_id++, std::string(spec)));
  }
  if (opt.shards.empty())
    throw Error("proxy needs --shards EP[,EP...] (unix socket paths "
                "or loopback ports)");

  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  cluster::Proxy proxy(std::move(opt));
  proxy.start();
  return run_proxy_until_signal(proxy, &set);
}

int cmd_cluster(Flags& flags) {
  cluster::ClusterOptions copt;
  // /proc/self/exe: the running binary re-execs itself as the shards,
  // so a cluster is always version-homogeneous.
  copt.exe = "/proc/self/exe";
  copt.dir = flags.str("dir");
  std::int64_t nshards = 0;
  if (!parse_i64(flags.str("shards"), nshards) || nshards < 1)
    throw Error("cluster: --shards must be a shard count >= 1");
  copt.shards = static_cast<int>(nshards);
  copt.jobs = static_cast<int>(flags.i64("jobs"));
  copt.cache_entries = static_cast<std::size_t>(flags.i64("cache-entries"));
  copt.serve_args = {"--cache-mb", std::to_string(flags.i64("cache-mb")),
                     "--per-client", std::to_string(flags.i64("per-client"))};
  // Shards inherit the cluster's SLO objectives, so per-shard burn
  // rates in `vppb top` are judged against the same targets the proxy
  // judges the whole cluster by.
  if (flags.dbl("slo-p99-ms") > 0.0) {
    copt.serve_args.push_back("--slo-p99-ms");
    copt.serve_args.push_back(strprintf("%g", flags.dbl("slo-p99-ms")));
  }
  if (flags.dbl("slo-availability") > 0.0) {
    copt.serve_args.push_back("--slo-availability");
    copt.serve_args.push_back(strprintf("%g", flags.dbl("slo-availability")));
  }

  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  cluster::LocalCluster shards(copt);
  shards.start();
  cluster::ProxyOptions popt = proxy_options_from_flags(flags);
  popt.shards = shards.shards();
  cluster::Proxy proxy(std::move(popt));
  proxy.start();
  const int rc = run_proxy_until_signal(proxy, &set);
  shards.stop();
  std::printf("vppb cluster: %d shard(s) drained\n", copt.shards);
  return rc;
}

server::Client connect_client(Flags& flags) {
  const int ct = static_cast<int>(flags.i64("connect-timeout-ms"));
  const std::string sock = flags.str("socket");
  if (!sock.empty()) return server::Client::connect_unix(sock, ct);
  const auto port = flags.i64("port");
  if (port != 0) {
    // --auth-key-file wins; otherwise $VPPB_AUTH_KEY (load_auth_key's
    // ambient fallback) so scripted clients need no flag.
    return server::Client::connect_tcp(
        flags.str("host"), static_cast<std::uint16_t>(port),
        server::load_auth_key(flags.str("auth-key-file")), ct);
  }
  return server::Client::connect_unix("vppb.sock", ct);
}

/// A fresh distributed trace id: clock + pid, SplitMix64-finished so
/// two requests minted in the same tick still diverge.  Uniqueness over
/// the life of one trace-collect window is all that is needed.
std::uint64_t mint_trace_id() {
  std::uint64_t z = static_cast<std::uint64_t>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch()
                            .count()) ^
                    (static_cast<std::uint64_t>(::getpid()) << 32);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

/// The `--timeline` waterfall: one bar per stage, indented by nesting
/// depth, scaled to the slowest stage end.  Depth-0 durations sum to
/// (at most) the measured request latency — nested stages re-describe
/// time their parent already covers and are excluded from the sum.
void print_timeline(const std::vector<server::StageSpan>& timeline,
                    double measured_ms) {
  std::vector<server::StageSpan> stages = timeline;
  std::stable_sort(stages.begin(), stages.end(),
                   [](const server::StageSpan& a,
                      const server::StageSpan& b) {
                     return a.start_us < b.start_us;
                   });
  std::int64_t end_us = 1;
  std::int64_t sum_us = 0;
  for (const server::StageSpan& s : stages) {
    end_us = std::max(end_us,
                      s.start_us + (s.dur_us > 0 ? s.dur_us : 0));
    if (s.depth == 0 && s.dur_us >= 0) sum_us += s.dur_us;
  }
  std::printf("\nrequest timeline (measured %.2f ms, stage sum %.2f ms):\n",
              measured_ms, sum_us / 1000.0);
  constexpr int kBar = 48;
  for (const server::StageSpan& s : stages) {
    std::string label(static_cast<std::size_t>(s.depth) * 2, ' ');
    label += s.name;
    if (s.dur_us < 0) {
      // Marker (hedge / failover / stale-serve): an instant, not a
      // duration.
      const int at = static_cast<int>(s.start_us * kBar / end_us);
      std::printf("  %-28s      ---  |%*s*%*s|\n", label.c_str(), at, "",
                  kBar - at - 1, "");
      continue;
    }
    const int from = static_cast<int>(s.start_us * kBar / end_us);
    const int width = std::max(
        1, static_cast<int>(s.dur_us * kBar / end_us));
    const int to = std::min(kBar, from + width);
    std::string bar(static_cast<std::size_t>(kBar), ' ');
    for (int i = from; i < to; ++i) bar[static_cast<std::size_t>(i)] = '#';
    std::printf("  %-28s %8.2fms |%s|\n", label.c_str(), s.dur_us / 1000.0,
                bar.c_str());
  }
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
}

/// `vppb trace-collect`: drain the endpoint's span rings (via the
/// proxy, every shard's plus the proxy's own) and write one merged
/// Chrome trace JSON.  All processes timestamp spans in absolute unix
/// ns, so alignment is a single subtraction of the earliest start; the
/// pid lane is the shard id (0 = proxy).
int cmd_trace_collect(Flags& flags) {
  server::Request req;
  req.type = server::ReqType::kTraceDump;
  server::Client client = connect_client(flags);
  server::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(flags.i64("retries")) + 1;
  policy.request_timeout_ms = static_cast<int>(flags.i64("timeout-ms"));
  const server::Response r = client.call_retry(req, policy);
  if (r.status != server::Status::kOk) {
    std::fprintf(stderr, "vppb: trace-collect failed: %s\n",
                 r.error.c_str());
    return 1;
  }
  if (r.stats.trace_dropped > 0) {
    std::fprintf(stderr,
                 "vppb: warning: %llu span(s) were overwritten in full "
                 "rings before this collection — the merged trace is "
                 "truncated\n",
                 static_cast<unsigned long long>(r.stats.trace_dropped));
  }

  std::int64_t min_ns = std::numeric_limits<std::int64_t>::max();
  for (const server::WireSpan& w : r.spans)
    min_ns = std::min(min_ns, w.start_unix_ns);
  if (r.spans.empty()) min_ns = 0;

  std::string json = "{\"traceEvents\":[";
  bool first = true;
  for (const server::WireSpan& w : r.spans) {
    if (!first) json += ',';
    first = false;
    json += "\n{\"name\":\"";
    json_escape_into(json, w.name);
    json += "\",\"cat\":\"";
    json_escape_into(json, w.cat);
    const double ts = static_cast<double>(w.start_unix_ns - min_ns) / 1000.0;
    json += strprintf("\",\"pid\":%llu,\"tid\":%u,\"ts\":%.3f",
                      static_cast<unsigned long long>(w.pid), w.tid, ts);
    if (w.dur_ns >= 0) {
      json += strprintf(",\"ph\":\"X\",\"dur\":%.3f",
                        static_cast<double>(w.dur_ns) / 1000.0);
    } else {
      json += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    const bool have_arg = !w.arg_name.empty();
    if (w.trace_id != 0 || have_arg) {
      json += ",\"args\":{";
      if (w.trace_id != 0)
        json += strprintf("\"trace_id\":\"%016llx\"",
                          static_cast<unsigned long long>(w.trace_id));
      if (have_arg) {
        if (w.trace_id != 0) json += ',';
        json += '"';
        json_escape_into(json, w.arg_name);
        json += strprintf("\":%lld",
                          static_cast<long long>(w.arg_value));
      }
      json += '}';
    }
    json += '}';
  }
  json += "\n]}\n";
  const std::string out = flags.str("trace-out");
  util::atomic_write_file(out, json);
  // One lane per process in the merged view.
  std::vector<std::uint64_t> pids;
  for (const server::WireSpan& w : r.spans)
    if (std::find(pids.begin(), pids.end(), w.pid) == pids.end())
      pids.push_back(w.pid);
  std::printf("wrote %zu span(s) from %zu process(es) to %s\n",
              r.spans.size(), pids.size(), out.c_str());
  return 0;
}

/// `vppb top`: the live per-shard dashboard.  Re-issues the stats
/// request on an interval and renders one row per shard — rps from the
/// request-count delta, latency p99, the 5m burn rates — plus a cluster
/// footer with the brownout/stale counters and the SLO verdict.
int cmd_top(Flags& flags) {
  server::Request req;
  req.type = server::ReqType::kStats;
  const std::int64_t interval_ms =
      std::max<std::int64_t>(1, flags.i64("interval-ms"));
  std::int64_t count = flags.i64("count");
  if (count <= 0) count = std::numeric_limits<std::int64_t>::max();

  std::optional<server::Client> client;
  std::unordered_map<std::uint64_t, std::uint64_t> prev_requests;
  bool have_prev = false;
  for (std::int64_t taken = 0; taken < count;) {
    server::Response r;
    try {
      if (!client) client.emplace(connect_client(flags));
      r = client->call(req);
    } catch (const Error& e) {
      client.reset();
      std::printf("\033[H\033[2Jreconnecting: %s\n", e.what());
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    if (r.status != server::Status::kOk) {
      std::fprintf(stderr, "vppb: top failed: %s\n", r.error.c_str());
      return 1;
    }
    std::printf("\033[H\033[2J");
    TextTable table;
    table.header({"shard", "state", "rps", "p99 ms", "lat burn 5m",
                  "avail burn 5m", "requests", "errors"});
    const auto row = [&](std::uint64_t id, const char* state,
                         const server::StatsBody& s) {
      double rps = 0.0;
      if (have_prev) {
        const auto it = prev_requests.find(id);
        const std::uint64_t before =
            it != prev_requests.end() ? it->second : 0;
        if (s.requests >= before)
          rps = static_cast<double>(s.requests - before) * 1000.0 /
                static_cast<double>(interval_ms);
      }
      prev_requests[id] = s.requests;
      table.row({strprintf("%llu", static_cast<unsigned long long>(id)),
                 state, strprintf("%.1f", rps),
                 strprintf("%.2f", s.p99_us / 1000.0),
                 strprintf("%.2f", s.lat_burn_5m),
                 strprintf("%.2f", s.avail_burn_5m),
                 strprintf("%llu",
                           static_cast<unsigned long long>(s.requests)),
                 strprintf("%llu",
                           static_cast<unsigned long long>(s.errors))});
    };
    if (r.shards.empty()) {
      row(r.shard_id, "up", r.stats);
    } else {
      for (const server::ShardInfo& sh : r.shards)
        row(sh.shard_id, sh.healthy ? "up" : "down", sh.stats);
    }
    std::printf("%s", table.render().c_str());
    if (!r.shards.empty()) {
      std::printf("cluster: %llu/%llu shards live, %llu brownout sheds, "
                  "%llu stale serves\n",
                  static_cast<unsigned long long>(r.live_shards),
                  static_cast<unsigned long long>(r.total_shards),
                  static_cast<unsigned long long>(r.stats.brownout_sheds),
                  static_cast<unsigned long long>(r.stats.stale_serves));
    }
    std::printf("%s", server::render_slo_text(r.stats).c_str());
    if (r.slo_burning) std::printf("SLO BURNING\n");
    std::fflush(stdout);
    have_prev = true;
    if (++taken < count)
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int cmd_request(Flags& flags) {
  if (flags.positional().size() < 2) return usage();
  const std::string& what = flags.positional()[1];
  server::Request req;
  if (what == "predict") {
    req.type = server::ReqType::kPredict;
  } else if (what == "simulate") {
    req.type = server::ReqType::kSimulate;
  } else if (what == "analyze") {
    req.type = server::ReqType::kAnalyze;
  } else if (what == "stats") {
    req.type = server::ReqType::kStats;
  } else if (what == "health") {
    req.type = server::ReqType::kHealth;
  } else if (what == "metricsdump") {
    req.type = server::ReqType::kMetricsDump;
  } else if (what == "tracedump") {
    req.type = server::ReqType::kTraceDump;
  } else {
    throw Error("unknown request type '" + what +
                "' (predict simulate analyze stats health metricsdump "
                "tracedump)");
  }
  if (req.type == server::ReqType::kPredict ||
      req.type == server::ReqType::kSimulate ||
      req.type == server::ReqType::kAnalyze) {
    if (flags.positional().size() < 3) return usage();
    // The daemon resolves paths in its own working directory; send an
    // absolute path so the client's idea of the trace wins.
    req.trace_path =
        std::filesystem::absolute(flags.positional()[2]).string();
  }
  req.cpus = static_cast<int>(flags.i64("cpus"));
  req.lwps = static_cast<int>(flags.i64("lwps"));
  req.max_cpus = static_cast<int>(flags.i64("max-cpus"));
  req.comm_delay_us = flags.i64("comm-delay-us");
  req.want_svg = !flags.str("svg").empty();
  req.deadline_ms = flags.i64("deadline-ms");
  req.client_id = static_cast<std::uint64_t>(flags.i64("client-id"));
  req.want_timeline = flags.boolean("timeline");
  if (flags.i64("trace-id") != 0 || req.want_timeline) {
    const std::uint64_t given =
        static_cast<std::uint64_t>(flags.i64("trace-id"));
    req.trace_id = given != 0 ? given : mint_trace_id();
    req.sampled = true;
  }

  server::Client client = connect_client(flags);
  server::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(flags.i64("retries")) + 1;
  policy.request_timeout_ms = static_cast<int>(flags.i64("timeout-ms"));
  const auto rt0 = std::chrono::steady_clock::now();
  const server::Response r = client.call_retry(req, policy);
  const double measured_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - rt0)
          .count();
  if (r.status == server::Status::kOverloaded) {
    std::fprintf(stderr, "vppb: %s\n", r.error.c_str());
    return 3;
  }
  if (r.status == server::Status::kDeadlineExceeded) {
    std::fprintf(stderr, "vppb: %s\n", r.error.c_str());
    return 4;
  }
  if (r.status == server::Status::kBudgetExceeded) {
    std::fprintf(stderr, "vppb: %s\n", r.error.c_str());
    return 5;
  }
  if (r.status == server::Status::kPoisoned) {
    std::fprintf(stderr, "vppb: %s\n", r.error.c_str());
    return 6;
  }
  if (r.status == server::Status::kQuotaExceeded) {
    std::fprintf(stderr, "vppb: %s\n", r.error.c_str());
    return 7;
  }
  if (r.status == server::Status::kAuthFailed) {
    std::fprintf(stderr, "vppb: %s\n", r.error.c_str());
    return 9;
  }
  if (r.status == server::Status::kError) {
    std::fprintf(stderr, "vppb: server error: %s\n", r.error.c_str());
    return 1;
  }
  switch (r.type) {
    case server::ReqType::kPredict: {
      TextTable table;
      table.header({"CPUs", "speed-up", "efficiency"});
      for (const auto& p : r.points) {
        table.row({strprintf("%d", p.cpus), strprintf("%.2f", p.speedup),
                   strprintf("%.0f%%", 100.0 * p.efficiency)});
      }
      std::printf("%s", table.render().c_str());
      std::printf("\nAmdahl fit: serial fraction %.1f%%; efficiency stays "
                  ">= 50%% up to %d CPUs\n",
                  100.0 * r.serial_fraction, r.knee);
      std::printf("sweep digest: %016llx\n",
                  static_cast<unsigned long long>(r.digest));
      break;
    }
    case server::ReqType::kSimulate: {
      std::printf("predicted %s on %d CPUs (speed-up %.2f, %llu events, "
                  "digest %016llx)\n",
                  SimTime::nanos(r.total_ns).to_string().c_str(), r.cpus,
                  r.speedup, static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.digest));
      if (!flags.str("svg").empty()) {
        util::atomic_write_file(flags.str("svg"), r.svg);
        std::printf("wrote %s\n", flags.str("svg").c_str());
      }
      break;
    }
    case server::ReqType::kAnalyze:
      std::printf("simulated on %d CPUs: speed-up %.2f (digest %016llx)"
                  "\n\n%s",
                  r.cpus, r.speedup,
                  static_cast<unsigned long long>(r.digest),
                  r.report.c_str());
      break;
    case server::ReqType::kStats:
      // Cluster-aware: a proxy response carries a per-shard breakdown
      // after the merged table; a plain vppbd renders as before.
      std::printf("%s", server::render_cluster_stats_text(r).c_str());
      break;
    case server::ReqType::kHealth:
      std::printf("%s", server::render_health_text(r).c_str());
      break;
    case server::ReqType::kMetricsDump:
      // Prometheus text exposition, verbatim — pipe it at a scrape
      // endpoint or a file.
      std::printf("%s", r.report.c_str());
      break;
    case server::ReqType::kTraceDump:
      std::printf("%zu span(s) held in the endpoint's rings "
                  "(%llu overwritten); use `vppb trace-collect` for the "
                  "merged Chrome trace\n",
                  r.spans.size(),
                  static_cast<unsigned long long>(r.stats.trace_dropped));
      break;
  }
  if (!r.timeline.empty()) print_timeline(r.timeline, measured_ms);
  // Health is the probe an orchestrator keys restarts and paging on:
  // an SLO in breach must be visible in the exit code, not just the
  // text.
  if (req.type == server::ReqType::kHealth && r.slo_burning) return 8;
  return 0;
}

/// `vppb stats [--watch]`: the stats request in a loop, rendered with
/// the same code path as `vppb request stats`.  Against a proxy the
/// render gains a per-shard table; against a plain vppbd it is
/// unchanged.  In --watch mode a transient connection failure (daemon
/// restarting, proxy failing over) renders a "reconnecting" row and
/// retries with decorrelated-jitter backoff instead of exiting — a
/// dashboard must outlive the thing it watches.
int cmd_stats(Flags& flags) {
  server::Request req;
  req.type = server::ReqType::kStats;
  const bool watch = flags.boolean("watch");
  const std::int64_t interval_ms = std::max<std::int64_t>(
      1, flags.i64("interval-ms"));
  std::int64_t count = flags.i64("count");
  if (count <= 0) count = watch ? std::numeric_limits<std::int64_t>::max() : 1;

  std::optional<server::Client> client;
  std::optional<server::Response> last_good;
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  std::int64_t backoff_ms = 0;
  const auto next_backoff = [&rng, &backoff_ms]() {
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    const std::int64_t lo = 100, cap = 5000;
    const std::int64_t hi =
        std::max(lo, std::min(cap, backoff_ms > 0 ? backoff_ms * 3 : lo));
    backoff_ms = lo + static_cast<std::int64_t>(
                          (rng * 2685821657736338717ULL) %
                          static_cast<std::uint64_t>(hi - lo + 1));
    return backoff_ms;
  };

  for (std::int64_t taken = 0; taken < count;) {
    server::Response r;
    try {
      if (!client) client.emplace(connect_client(flags));
      r = client->call(req);
    } catch (const Error& e) {
      client.reset();  // the connection state is unknown; redial
      if (!watch) {
        std::fprintf(stderr, "vppb: stats failed: %s\n", e.what());
        return 1;
      }
      const std::int64_t wait = next_backoff();
      if (watch) std::printf("\033[H\033[2J");
      std::printf("reconnecting: %s (retry in %lld ms)\n", e.what(),
                  static_cast<long long>(wait));
      if (last_good) {
        // Keep the last-good SLO state on screen, grayed out, so the
        // operator watching a burn does not lose the picture while the
        // endpoint bounces.
        const std::string slo = server::render_slo_text(last_good->stats);
        if (!slo.empty())
          std::printf("\033[90mlast known (stale):\n%s\033[0m", slo.c_str());
      }
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
      continue;
    }
    backoff_ms = 0;  // a clean exchange resets the backoff schedule
    last_good = r;
    if (r.status != server::Status::kOk) {
      std::fprintf(stderr, "vppb: stats failed: %s\n", r.error.c_str());
      return 1;
    }
    if (watch) std::printf("\033[H\033[2J");  // home + clear
    std::printf("%s", server::render_cluster_stats_text(r).c_str());
    if (watch) std::fflush(stdout);
    if (++taken < count)
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int cmd_convert(Flags& flags) {
  if (flags.positional().size() < 3) return usage();
  const trace::Trace t = load_trace(flags, flags.positional()[1]);
  const std::string& out = flags.positional()[2];
  if (ends_with(out, ".bin")) {
    trace::save_binary_file(t, out);
  } else {
    trace::save_file(t, out);
  }
  std::printf("wrote %s (%zu records)\n", out.c_str(), t.records.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_i64("threads", 8, "worker threads for gen/validate");
  flags.define_double("scale", 0.2, "problem scale");
  flags.define_string("out", "vppb.trace", "gen: output file");
  flags.define_bool("binary", false, "gen: write the binary format");
  flags.define_i64("max-cpus", 16, "predict: largest CPU count");
  flags.define_i64("cpus", 8, "simulate/analyze: CPU count");
  flags.define_i64("lwps", 0, "LWP pool (0 = one per thread)");
  flags.define_i64("comm-delay-us", 0, "inter-CPU delay");
  flags.define_string("svg", "", "simulate: SVG output");
  flags.define_i64("columns", 110, "ASCII width");
  flags.define_string("cpus-list", "2,4,8", "validate: CPU counts");
  flags.define_i64("reps", 5, "validate: machine repetitions");
  flags.define_i64("jobs", 0,
                   "predict: parallel sweep workers (0 = all hardware "
                   "threads, 1 = serial)");
  flags.define_string("socket", "", "serve/request: unix socket path");
  flags.define_i64("port", 0, "serve/request: loopback TCP port");
  flags.define_bool("salvage", false,
                    "load the longest valid prefix of a damaged trace");
  flags.define_bool("crash-safe", false,
                    "gen: stream a chunked crash-safe log instead of "
                    "writing at exit");
  flags.define_i64("chunk-records", 1024,
                   "gen --crash-safe: records per sealed chunk");
  flags.define_i64("deadline-ms", 0,
                   "request: server-side deadline (0 = none)");
  flags.define_i64("timeout-ms", 0,
                   "request: client receive timeout (0 = wait forever)");
  flags.define_i64("retries", 0,
                   "request: retries on overload/transport failure");
  flags.define_i64("admission", 64,
                   "serve: max in-flight requests before overload");
  flags.define_i64("max-steps", 0,
                   "run budget: engine steps per run (0 = unlimited)");
  flags.define_i64("max-sim-ms", 0,
                   "run budget: simulated milliseconds (0 = unlimited)");
  flags.define_i64("max-result-mb", 0,
                   "run budget: result storage in MiB (0 = unlimited)");
  flags.define_i64("max-wall-ms", 0,
                   "run budget: wall-clock milliseconds (0 = unlimited)");
  flags.define_i64("watchdog-ms", 50,
                   "serve: watchdog scan interval (0 = no watchdog)");
  flags.define_i64("escalate-ms", 1000,
                   "serve: grace after a watchdog cancel before the "
                   "worker is abandoned and replaced");
  flags.define_i64("poison-strikes", 3,
                   "serve: crash/budget strikes before a trace is "
                   "quarantined (0 = never)");
  flags.define_i64("quarantine-ms", 30000,
                   "serve: quarantine window for poisoned traces");
  flags.define_i64("per-client", 0,
                   "serve: per-client in-flight limit (0 = off)");
  flags.define_i64("client-id", 0,
                   "request: identity for per-client fair admission "
                   "(0 = anonymous)");
  flags.define_i64("cache-entries", 16, "serve: compiled-trace cache slots");
  flags.define_i64("cache-mb", 512, "serve: compiled-trace cache budget");
  flags.define_i64("shard-id", 0,
                   "serve: shard identity reported in health/stats "
                   "(0 = standalone)");
  flags.define_string("shards", "2",
                      "proxy: comma-separated shard endpoints; "
                      "cluster: shard count");
  flags.define_string("dir", "vppb-cluster",
                      "cluster: directory for shard sockets");
  flags.define_i64("hedge-ms", 0,
                   "proxy/cluster: hedge window for routed requests "
                   "(0 = no hedging)");
  flags.define_i64("vnodes", 64, "proxy/cluster: ring points per shard");
  flags.define_i64("forward-timeout-ms", 30000,
                   "proxy/cluster: per-forward receive timeout "
                   "(0 = wait forever)");
  flags.define_double("quota-rps", 0.0,
                      "proxy/cluster: cluster-wide per-client rate quota "
                      "in requests/s (0 = off)");
  flags.define_double("quota-burst", 8.0,
                      "proxy/cluster: per-client quota burst allowance");
  flags.define_i64("replicas", 2,
                   "proxy/cluster: owner-walk length for compute "
                   "failover/hedging");
  flags.define_i64("brownout-live-pct", 0,
                   "proxy/cluster: shed cold computes when live shards "
                   "drop below this percent of configured (0 = off)");
  flags.define_i64("brownout-inflight", 0,
                   "proxy/cluster: shed cold computes at this many "
                   "proxy-level in-flight computes (0 = off)");
  flags.define_i64("stale-ms", 30000,
                   "proxy/cluster: oldest proxy-cached response servable "
                   "during brownout/outage (0 = never stale-serve)");
  flags.define_string("log-level", "",
                      "trace|debug|info|warn|error|off (overrides $VPPB_LOG)");
  flags.define_bool("log-json", false, "emit log lines as JSON objects");
  flags.define_string("profile", "",
                      "write a Chrome trace-event profile of this run "
                      "(also $VPPB_PROFILE)");
  flags.define_bool("watch", false, "stats: refresh until interrupted");
  flags.define_i64("interval-ms", 1000, "stats --watch: refresh period");
  flags.define_i64("count", 0, "stats: snapshots to take (0 = default)");
  flags.define_bool("timeline", false,
                    "request: print the per-stage waterfall of this "
                    "request");
  flags.define_i64("trace-id", 0,
                   "request: distributed trace id to propagate "
                   "(0 = mint one when --timeline is set)");
  flags.define_string("trace-out", "vppb-trace.json",
                      "trace-collect: merged Chrome trace output file");
  flags.define_double("slo-p99-ms", 0.0,
                      "serve/proxy/cluster: latency SLO — p99 of compute "
                      "requests under this many ms (0 = off)");
  flags.define_double("slo-availability", 0.0,
                      "serve/proxy/cluster: availability SLO as a success "
                      "fraction, e.g. 0.999 (0 = off)");
  flags.define_string("auth-key-file", "",
                      "shared key file for the v8 TCP handshake "
                      "(also $VPPB_AUTH_KEY; unix sockets never "
                      "authenticate)");
  flags.define_i64("connect-timeout-ms", 0,
                   "request/proxy: bound on connect; a black-holed "
                   "address fails in this long (0 = wait forever)");
  flags.define_i64("idle-timeout-ms", 0,
                   "serve/proxy: reap client connections idle this long "
                   "(0 = never)");
  flags.define_i64("frame-deadline-ms", 0,
                   "serve/proxy: total read deadline per request frame; "
                   "defeats byte-trickle senders (0 = unbounded)");
  flags.define_i64("max-request-frame-mb", 0,
                   "serve/proxy: hard cap on a request frame "
                   "(0 = protocol max, 64 MiB)");
  flags.define_string("host", "",
                      "request: TCP host to dial (numeric IPv4; "
                      "default loopback)");

  try {
    flags.parse(argc, argv);
    if (flags.positional().empty()) return usage();

    if (!flags.str("log-level").empty()) {
      obs::LogLevel level;
      if (!obs::parse_log_level(flags.str("log-level"), &level))
        throw vppb::Error("bad --log-level '" + flags.str("log-level") +
                          "' (trace debug info warn error off)");
      obs::Logger::global().set_level(level);
    }
    if (flags.boolean("log-json")) obs::Logger::global().set_json(true);

    // Self-profiling: --profile (or $VPPB_PROFILE) arms the tracer for
    // the whole command and writes the Chrome trace on the way out —
    // including the error paths, so a slow-then-failing run still
    // yields its timeline.
    const std::string profile = !flags.str("profile").empty()
                                    ? flags.str("profile")
                                    : vppb::util::env_or("VPPB_PROFILE", "");
    if (!profile.empty()) obs::Tracer::global().enable();
    const auto write_profile = [&profile]() {
      if (profile.empty()) return;
      obs::Tracer::global().write_chrome_json(profile);
      std::fprintf(stderr, "vppb: wrote %zu trace events to %s\n",
                   obs::Tracer::global().event_count(), profile.c_str());
    };

    int rc = 2;
    try {
      const std::string& cmd = flags.positional()[0];
      if (cmd == "gen") rc = cmd_gen(flags);
      else if (cmd == "info") rc = cmd_info(flags);
      else if (cmd == "check") rc = cmd_check(flags);
      else if (cmd == "predict") rc = cmd_predict(flags);
      else if (cmd == "simulate") rc = cmd_simulate(flags);
      else if (cmd == "analyze") rc = cmd_analyze(flags);
      else if (cmd == "validate") rc = cmd_validate(flags);
      else if (cmd == "convert") rc = cmd_convert(flags);
      else if (cmd == "serve") rc = cmd_serve(flags);
      else if (cmd == "proxy") rc = cmd_proxy(flags);
      else if (cmd == "cluster") rc = cmd_cluster(flags);
      else if (cmd == "request") rc = cmd_request(flags);
      else if (cmd == "stats") rc = cmd_stats(flags);
      else if (cmd == "top") rc = cmd_top(flags);
      else if (cmd == "trace-collect") rc = cmd_trace_collect(flags);
      else rc = usage();
    } catch (...) {
      write_profile();
      throw;
    }
    write_profile();
    return rc;
  } catch (const core::BudgetExceeded& e) {
    // Same meaning as a daemon kBudgetExceeded response, same exit code.
    std::fprintf(stderr, "vppb: %s\n", e.what());
    return 5;
  } catch (const server::AuthError& e) {
    // A definitive key rejection, distinct from transport failure (1):
    // retrying cannot help, rotating the key can.
    std::fprintf(stderr, "vppb: %s\n", e.what());
    return 9;
  } catch (const vppb::Error& e) {
    std::fprintf(stderr, "vppb: %s\n", e.what());
    return 1;
  }
}
