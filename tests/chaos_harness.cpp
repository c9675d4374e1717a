// Deterministic chaos harness for the cluster tier: a real LocalCluster
// (forked vppbd shards) behind a real Proxy, driven through a scripted,
// seeded fault schedule while a client keeps issuing compute requests.
//
// Fault vocabulary, by --schedule:
//
//   killer   SIGKILL a shard (crash), later restart it — the crash-loop
//            path, including the launcher's restart backoff.
//   gray     SIGSTOP a shard (gray failure: sockets stay open, nothing
//            answers — only timeouts can tell it from healthy), later
//            SIGCONT it; plus VPPB_FAULT frame corruption and service
//            delays inside every shard.
//   mixed    both at once (at most one crashed and one paused shard at
//            any moment, so the 4-shard default always has quorum).
//   partition  network faults instead of process faults: two shards sit
//            behind netem relays — one gets a 2 s full partition
//            mid-run (existing connections cut, new ones black-holed),
//            the other a lossy, slow link (5% seeded connection drop +
//            50 ms per-chunk delay) for the whole run.  The shard
//            processes stay healthy throughout; every fault is in the
//            wire.
//
// The schedule — which step kills, pauses, restarts, resumes which
// shard — is a pure function of --seed: the same seed replays the same
// fault sequence.  Wall-clock timing still varies with the OS, so the
// invariants below are timing-independent:
//
//   1. digest parity: every client-visible kOk response (including
//      brownout stale serves) is digest-identical to the offline
//      answer for that trace;
//   2. bounded unavailability: the end-to-end error rate (after client
//      retries) stays at or below --max-error-rate;
//   3. reconvergence: once the schedule ends and every fault is lifted,
//      the cluster returns to all-shards-live with fresh epochs for
//      every crashed shard and zero quarantined entries, within
//      --converge-ms.
//
// Exit 0 iff all invariants hold; a JSON availability report (consumed
// by tools/bench_gate --max-error-rate) is written to --out.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/launcher.hpp"
#include "cluster/proxy.hpp"
#include "recorder/recorder.hpp"
#include "server/client.hpp"
#include "server/handlers.hpp"
#include "server/protocol.hpp"
#include "server/trace_cache.hpp"
#include "solaris/program.hpp"
#include "support/netem.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "workloads/synthetic.hpp"

#ifndef VPPB_EXE
#define VPPB_EXE ""
#endif

namespace vppb {
namespace {

std::uint64_t g_rng = 1;

std::uint64_t next_rand() {
  std::uint64_t x = g_rng;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  g_rng = x;
  return x * 0x2545f4914f6cdd1dULL;
}

struct Options {
  std::uint64_t seed = 1;
  std::string schedule = "mixed";  // killer | gray | mixed
  int steps = 120;
  int shards = 4;
  double max_error_rate = 0.10;
  std::int64_t converge_ms = 20000;
  std::string out;  // JSON report path
};

struct TraceCase {
  std::string path;
  std::uint64_t digest = 0;
};

server::Request predict_request(const std::string& path) {
  server::Request req;
  req.type = server::ReqType::kPredict;
  req.trace_path = path;
  req.max_cpus = 4;
  return req;
}

/// Records distinct fork-join traces and computes the offline digest
/// each cluster answer must match bit-for-bit.
std::vector<TraceCase> make_traces(const std::string& dir, int n) {
  std::vector<TraceCase> cases;
  server::TraceCache cache(static_cast<std::size_t>(n), 256u << 20);
  for (int i = 0; i < n; ++i) {
    TraceCase c;
    c.path = dir + "/chaos" + std::to_string(i) + ".trace";
    sol::Program program;
    const trace::Trace t = rec::record_program(program, [&]() {
      workloads::fork_join(2 + i % 3, SimTime::micros(150 + 31 * i));
    });
    trace::save_file(t, c.path);
    const server::Response offline =
        server::handle_predict(predict_request(c.path), cache);
    if (offline.status != server::Status::kOk)
      throw Error("offline predict failed: " + offline.error);
    c.digest = offline.digest;
    cases.push_back(std::move(c));
  }
  return cases;
}

struct Report {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t ok_stale = 0;
  std::uint64_t errors = 0;  // typed failures + transport, post-retry
  std::uint64_t digest_mismatches = 0;
  std::uint64_t kills = 0, restarts = 0, pauses = 0, resumes = 0;
  std::uint64_t netem_cut = 0, netem_blackholed_bytes = 0;
  bool reconverged = false;
  bool quarantine_drained = false;
  bool epochs_fresh = false;

  double error_rate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(errors) / static_cast<double>(requests);
  }
};

void write_report(const Options& opt, const Report& r, bool pass) {
  if (opt.out.empty()) return;
  std::ofstream out(opt.out, std::ios::trunc);
  out << "{\n"
      << "  \"seed\": " << opt.seed << ",\n"
      << "  \"schedule\": \"" << opt.schedule << "\",\n"
      << "  \"steps\": " << opt.steps << ",\n"
      << "  \"shards\": " << opt.shards << ",\n"
      << "  \"requests\": " << r.requests << ",\n"
      << "  \"ok\": " << r.ok << ",\n"
      << "  \"ok_stale\": " << r.ok_stale << ",\n"
      << "  \"errors\": " << r.errors << ",\n"
      << "  \"error_rate\": " << r.error_rate() << ",\n"
      << "  \"digest_mismatches\": " << r.digest_mismatches << ",\n"
      << "  \"kills\": " << r.kills << ",\n"
      << "  \"restarts\": " << r.restarts << ",\n"
      << "  \"pauses\": " << r.pauses << ",\n"
      << "  \"resumes\": " << r.resumes << ",\n"
      << "  \"netem_cut\": " << r.netem_cut << ",\n"
      << "  \"netem_blackholed_bytes\": " << r.netem_blackholed_bytes
      << ",\n"
      << "  \"reconverged\": " << (r.reconverged ? "true" : "false") << ",\n"
      << "  \"epochs_fresh\": " << (r.epochs_fresh ? "true" : "false")
      << ",\n"
      << "  \"quarantine_drained\": "
      << (r.quarantine_drained ? "true" : "false") << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n"
      << "}\n";
}

/// One client request through the proxy, with retries; classifies the
/// outcome into the report and checks digest parity on success.
void issue_request(const std::string& proxy_sock,
                   const std::vector<TraceCase>& traces, Report& rep) {
  const TraceCase& c = traces[next_rand() % traces.size()];
  ++rep.requests;
  server::Response r;
  try {
    server::Client client = server::Client::connect_unix(proxy_sock);
    server::RetryPolicy policy;
    policy.max_attempts = 4;
    policy.request_timeout_ms = 8000;
    r = client.call_retry(predict_request(c.path), policy);
  } catch (const Error&) {
    ++rep.errors;  // transport failure survived the retry budget
    return;
  }
  if (r.status != server::Status::kOk) {
    ++rep.errors;
    return;
  }
  ++rep.ok;
  if (r.served_stale) ++rep.ok_stale;
  if (r.digest != c.digest) {
    ++rep.digest_mismatches;
    std::fprintf(stderr,
                 "CHAOS: digest mismatch for %s (stale=%d shard=%llu): "
                 "got %016llx want %016llx\n",
                 c.path.c_str(), r.served_stale ? 1 : 0,
                 static_cast<unsigned long long>(r.shard_id),
                 static_cast<unsigned long long>(r.digest),
                 static_cast<unsigned long long>(c.digest));
  }
}

int run(const Options& opt) {
  if (std::strlen(VPPB_EXE) == 0) {
    std::fprintf(stderr, "CHAOS: VPPB_EXE not compiled in\n");
    return 2;
  }
  g_rng = opt.seed ? opt.seed : 1;

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("vppb_chaos_" + std::to_string(::getpid()) + "_" +
        std::to_string(opt.seed)))
          .string();
  std::filesystem::create_directories(dir);
  struct DirGuard {
    std::string d;
    ~DirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  } guard{dir};

  const std::vector<TraceCase> traces = make_traces(dir, 6);

  cluster::ClusterOptions copt;
  copt.exe = VPPB_EXE;
  copt.dir = dir;
  copt.shards = opt.shards;
  copt.jobs = 1;
  // The schedule restarts shards far faster than an operator would:
  // keep the crash-loop backoff small (it still runs) and the refusal
  // threshold out of the way.
  copt.max_crash_restarts = 1 << 20;
  copt.restart_backoff_base_ms = 5;
  copt.restart_backoff_cap_ms = 40;
  copt.backoff_seed = opt.seed;
  if (opt.schedule == "gray" || opt.schedule == "mixed") {
    // In-shard faults for the gray schedules: every 23rd service
    // delayed 400 ms (trips hedges), every 41st reply frame corrupted
    // (trips decode errors -> ejection + failover).  The partition
    // schedule keeps shards pristine: its faults live in the wire.
    copt.env.emplace_back("VPPB_FAULT", "delay-ms:23:0:400,corrupt-frame:41");
  }
  cluster::LocalCluster shards(copt);
  shards.start();

  // The partition schedule interposes netem relays between the proxy
  // and two shards: the proxy dials the relay's socket believing it is
  // the shard, and the relay applies its fault schedule to the wire.
  const bool partitioned = opt.schedule == "partition";
  std::vector<std::unique_ptr<util::NetemRelay>> relays;
  std::vector<cluster::ShardEndpoint> endpoints = shards.shards();
  if (partitioned) {
    if (opt.shards < 3)
      throw Error("partition schedule needs at least 3 shards for quorum");
    const char* const schedules[2] = {
        // Shard 0: a 2 s total partition opening 1 s in — connections
        // alive at the window start are cut, connections opened inside
        // it are black-holed (accepted, nothing forwarded), then cut.
        "partition:1000:2000",
        // Shard 1: a bad link for the whole run — 5% of connections
        // seeded to drop after a random prefix, 50 ms added per chunk.
        "drop:5,delay-ms:50",
    };
    for (int i = 0; i < 2; ++i) {
      util::NetemOptions nopt;
      nopt.listen_unix = dir + "/netem" + std::to_string(i) + ".sock";
      nopt.target_unix = endpoints[static_cast<std::size_t>(i)].unix_path;
      nopt.schedule = schedules[i];
      nopt.seed = opt.seed + static_cast<std::uint64_t>(i);
      relays.push_back(std::make_unique<util::NetemRelay>(std::move(nopt)));
      relays.back()->start();
      endpoints[static_cast<std::size_t>(i)].unix_path =
          dir + "/netem" + std::to_string(i) + ".sock";
    }
  }

  const std::string proxy_sock = dir + "/chaos_proxy.sock";
  cluster::ProxyOptions popt;
  popt.unix_path = proxy_sock;
  popt.shards = endpoints;
  popt.replicas = 2;
  popt.hedge_ms = 100;
  popt.forward_timeout_ms = 1500;
  popt.brownout_min_live_pct = 50;
  popt.stale_ms = 60000;
  popt.membership.probe_base_ms = 10;
  popt.membership.probe_cap_ms = 100;
  popt.membership.seed = opt.seed;
  cluster::Proxy proxy(std::move(popt));
  proxy.start();

  std::vector<std::uint64_t> initial_epochs(
      static_cast<std::size_t>(opt.shards), 0);
  for (const auto& v : proxy.membership().snapshot()) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(opt.shards); ++i)
      if (shards.shards()[i].id == v.endpoint.id)
        initial_epochs[i] = v.epoch;
  }

  Report rep;
  int down = -1;    // shard currently crashed (awaiting restart)
  int paused = -1;  // shard currently SIGSTOPped
  const bool kills = opt.schedule == "killer" || opt.schedule == "mixed";
  const bool grays = opt.schedule == "gray" || opt.schedule == "mixed";
  std::vector<bool> ever_killed(static_cast<std::size_t>(opt.shards), false);

  for (int step = 0; step < opt.steps; ++step) {
    // Fault event roughly every 8th step; the exact sequence is a pure
    // function of the seed.
    if (next_rand() % 8 == 0) {
      const bool act_kill = kills && (!grays || next_rand() % 2 == 0);
      if (act_kill) {
        if (down >= 0) {
          shards.restart_shard(static_cast<std::size_t>(down));
          ++rep.restarts;
          down = -1;
        } else {
          int victim = static_cast<int>(
              next_rand() % static_cast<std::uint64_t>(opt.shards));
          if (victim == paused) victim = (victim + 1) % opt.shards;
          shards.kill_shard(static_cast<std::size_t>(victim));
          ever_killed[static_cast<std::size_t>(victim)] = true;
          ++rep.kills;
          down = victim;
        }
      } else if (grays) {
        if (paused >= 0) {
          shards.resume_shard(static_cast<std::size_t>(paused));
          ++rep.resumes;
          paused = -1;
        } else {
          int victim = static_cast<int>(
              next_rand() % static_cast<std::uint64_t>(opt.shards));
          if (victim == down) victim = (victim + 1) % opt.shards;
          shards.pause_shard(static_cast<std::size_t>(victim));
          ++rep.pauses;
          paused = victim;
        }
      }
    }
    issue_request(proxy_sock, traces, rep);
    // Pace the partition run so the request stream spans the relay's
    // fault windows (the window clock is wall time, not steps).
    if (partitioned) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // Aggregate requests ride along: health/stats must answer through
    // any fault (they are never shed and tolerate down shards).
    if (step % 10 == 5) {
      try {
        server::Client client = server::Client::connect_unix(proxy_sock);
        server::Request health;
        health.type = server::ReqType::kHealth;
        server::RetryPolicy once;
        once.max_attempts = 1;
        once.request_timeout_ms = 8000;
        const server::Response h = client.call_retry(health, once);
        if (h.status != server::Status::kOk) {
          ++rep.errors;
          std::fprintf(stderr, "CHAOS: health answered %s during fault\n",
                       server::to_string(h.status));
        }
      } catch (const Error& e) {
        ++rep.errors;
        std::fprintf(stderr, "CHAOS: health transport error: %s\n",
                     e.what());
      }
    }
  }

  // Lift every fault and require reconvergence within the deadline.
  if (paused >= 0) {
    shards.resume_shard(static_cast<std::size_t>(paused));
    ++rep.resumes;
  }
  if (down >= 0) {
    shards.restart_shard(static_cast<std::size_t>(down));
    ++rep.restarts;
  }
  // Reconvergence is a *reachability* invariant: within the deadline
  // the cluster must pass through a stats fanout where every shard is
  // healthy, every crashed shard presents a fresh epoch, and no shard
  // still quarantines content keys.  A single early fanout can lag
  // (the proxy may first have to burn a stale pooled connection to a
  // corpse and let the prober re-admit it), so this polls.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opt.converge_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    bool healthy_all = true, fresh = true, drained = true;
    try {
      server::Client client = server::Client::connect_unix(proxy_sock);
      server::Request stats;
      stats.type = server::ReqType::kStats;
      server::RetryPolicy once;
      once.max_attempts = 1;
      once.request_timeout_ms = 8000;
      const server::Response s = client.call_retry(stats, once);
      if (s.status != server::Status::kOk ||
          s.shards.size() != static_cast<std::size_t>(opt.shards)) {
        healthy_all = false;
      } else {
        for (const server::ShardInfo& sh : s.shards) {
          if (!sh.healthy) healthy_all = false;
          if (sh.stats.quarantined != 0) drained = false;
          for (std::size_t i = 0; i < static_cast<std::size_t>(opt.shards);
               ++i) {
            if (shards.shards()[i].id != sh.shard_id) continue;
            if (ever_killed[i] && sh.epoch == initial_epochs[i])
              fresh = false;
          }
        }
      }
    } catch (const Error&) {
      healthy_all = false;
    }
    if (healthy_all && fresh && drained) {
      rep.reconverged = true;
      rep.epochs_fresh = true;
      rep.quarantine_drained = true;
      break;
    }
    rep.reconverged = healthy_all;  // last sample, for the report
    rep.epochs_fresh = fresh;
    rep.quarantine_drained = drained;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (!(rep.reconverged && rep.epochs_fresh && rep.quarantine_drained)) {
    std::fprintf(stderr,
                 "CHAOS: no converged fanout within %lld ms "
                 "(healthy=%d epochs_fresh=%d quarantine_drained=%d)\n",
                 static_cast<long long>(opt.converge_ms),
                 rep.reconverged ? 1 : 0, rep.epochs_fresh ? 1 : 0,
                 rep.quarantine_drained ? 1 : 0);
  }

  proxy.stop();
  for (auto& relay : relays) {
    rep.netem_cut += relay->cut_connections();
    rep.netem_blackholed_bytes += relay->blackholed_bytes();
    relay->stop();
  }
  shards.stop();

  // A partition run that never cut or black-holed anything proves
  // nothing: require evidence the wire faults actually fired.
  const bool faults_fired =
      !partitioned || rep.netem_cut + rep.netem_blackholed_bytes > 0;
  const bool pass = rep.digest_mismatches == 0 &&
                    rep.error_rate() <= opt.max_error_rate &&
                    rep.reconverged && rep.epochs_fresh &&
                    rep.quarantine_drained && faults_fired;
  write_report(opt, rep, pass);
  std::printf(
      "chaos_harness: schedule=%s seed=%llu steps=%d shards=%d | "
      "%llu requests, %llu ok (%llu stale), %llu errors (rate %.4f <= "
      "%.4f), %llu mismatches | kills %llu restarts %llu pauses %llu "
      "resumes %llu netem_cut %llu netem_blackholed %llu | "
      "reconverged=%d epochs_fresh=%d quarantine_drained=%d -> %s\n",
      opt.schedule.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.steps, opt.shards,
      static_cast<unsigned long long>(rep.requests),
      static_cast<unsigned long long>(rep.ok),
      static_cast<unsigned long long>(rep.ok_stale),
      static_cast<unsigned long long>(rep.errors), rep.error_rate(),
      opt.max_error_rate,
      static_cast<unsigned long long>(rep.digest_mismatches),
      static_cast<unsigned long long>(rep.kills),
      static_cast<unsigned long long>(rep.restarts),
      static_cast<unsigned long long>(rep.pauses),
      static_cast<unsigned long long>(rep.resumes),
      static_cast<unsigned long long>(rep.netem_cut),
      static_cast<unsigned long long>(rep.netem_blackholed_bytes),
      rep.reconverged ? 1 : 0, rep.epochs_fresh ? 1 : 0,
      rep.quarantine_drained ? 1 : 0, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace vppb

int main(int argc, char** argv) {
  vppb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--seed") opt.seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--schedule") opt.schedule = value();
    else if (arg == "--steps") opt.steps = std::atoi(value());
    else if (arg == "--shards") opt.shards = std::atoi(value());
    else if (arg == "--max-error-rate") opt.max_error_rate = std::atof(value());
    else if (arg == "--converge-ms") opt.converge_ms = std::atoll(value());
    else if (arg == "--out") opt.out = value();
    else {
      std::fprintf(stderr,
                   "usage: chaos_harness [--seed N] "
                   "[--schedule killer|gray|mixed|partition] "
                   "[--steps N] [--shards N] "
                   "[--max-error-rate R] [--converge-ms N] [--out FILE]\n");
      return 2;
    }
  }
  if (opt.schedule != "killer" && opt.schedule != "gray" &&
      opt.schedule != "mixed" && opt.schedule != "partition") {
    std::fprintf(stderr, "chaos_harness: unknown schedule '%s'\n",
                 opt.schedule.c_str());
    return 2;
  }
  try {
    return vppb::run(opt);
  } catch (const vppb::Error& e) {
    std::fprintf(stderr, "chaos_harness: fatal: %s\n", e.what());
    return 1;
  }
}
