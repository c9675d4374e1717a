// The pipeline benchmark's harness around the VPPB libraries.  run.py builds
// it, runs it once per benchmark run, and turns its raw output into the
// reported metrics.  Every call goes through a module's public API, in
// pipeline order: recorder -> trace (write, load, lint) -> core
// (compile, SweepRunner) -> machine -> viz -> server (an in-process
// vppbd driven by server::Client over a unix socket).
//
//   perfbench_harness gen  --workload W --seed N
//       writes the workload's generated inputs into the current
//       directory and prints their file names.
//   perfbench_harness refs --workload W --seed N
//       writes the inputs and prints the offline reference digests of
//       each as one JSON object (what pinned_digests.json holds).
//   perfbench_harness run  --workload W --seed N --seconds S --trace 0|1
//                          --out FILE
//       sets up (several times, each timed), measures for S seconds and
//       writes one JSON document to FILE: per-op latencies and digests,
//       the reference digests of every input, exact engine counters and,
//       with --trace 1, the spans recorded around every call into a
//       layer.
//
// Inputs and the request order come only from --seed; the program under
// test sees nothing but the generated trace files and requests.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "core/result.hpp"
#include "core/sweep.hpp"
#include "machine/validate.hpp"
#include "recorder/recorder.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/trace_cache.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "trace/lint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "viz/visualizer.hpp"
#include "workloads/prodcons.hpp"
#include "workloads/splash.hpp"

namespace {

using namespace vppb;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// --- spans ----------------------------------------------------------------

/// One span recorded around a call into a layer.  Ids are unique across
/// threads; parent 0 marks an op's root.
struct SpanRec {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t op = 0;
  int tid = 0;
  std::uint64_t steps = 0;  ///< engine steps of a sweep-point span
};

std::atomic<std::int64_t> g_next_span_id{1};

/// The spans of one benchmark thread, kept in memory until the run ends.
/// Only ops begun with traced=true record anything.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  void begin_op(std::int64_t op, bool traced) {
    op_ = op;
    on_ = traced;
    open_.clear();
  }
  bool on() const { return on_; }

  /// Opens a span as a child of the innermost open one.
  std::int64_t open(std::string name) {
    if (!on_) return 0;
    SpanRec s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.id = g_next_span_id.fetch_add(1);
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.op = op_;
    s.tid = tid_;
    open_.push_back(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Closes the innermost open span; `steps` annotates an engine run.
  void close(std::uint64_t steps = 0) {
    if (!on_) return;
    spans_[open_.back()].end_ns = now_ns();
    spans_[open_.back()].steps = steps;
    open_.pop_back();
  }
  /// Adds an already-finished span (the server's stage timeline).
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent,
                   std::uint64_t steps = 0) {
    if (!on_) return 0;
    SpanRec s{std::move(name), start_ns, end_ns, g_next_span_id.fetch_add(1),
              parent, op_, tid_, steps};
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  int tid_ = 0;
  bool on_ = false;
  std::int64_t op_ = 0;
  std::vector<std::size_t> open_;
  std::vector<SpanRec> spans_;
};

// --- raw output -----------------------------------------------------------

/// One measured operation: a prediction, a what-if session or a served
/// request.  Latency is from start (closed loop) or from the due time
/// (open loop) to completion.
struct OpRec {
  std::int64_t id = 0;
  std::string cls;
  std::string input;
  std::string phase = "main";
  double lat_ms = 0.0;
  double late_ms = 0.0;  ///< open loop: send time minus due time
  double gen_late_ms = 0.0;  ///< open loop: generator wake-up lateness
  std::uint64_t steps = 0;
  bool traced = false;
  bool ok = false;
  std::string digest;
  std::string error;
};

/// Exact engine counters of one sweep point, summed over the workload's
/// distinct inputs.
struct PointCounters {
  std::uint64_t steps = 0;
  std::uint64_t sched_passes = 0;
  std::uint64_t max_runq_depth = 0;
  std::uint64_t dispatches = 0;
  void add(const core::EngineCounters& c) {
    steps += c.steps;
    sched_passes += c.sched_passes;
    max_runq_depth = std::max(max_runq_depth, c.max_runq_depth);
    dispatches += c.dispatches;
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double record_ms = 0.0;
  double write_text_ms = 0.0;
  double write_binary_ms = 0.0;
};

struct Report {
  std::vector<SetupTimes> setups;
  std::vector<OpRec> ops;
  std::vector<std::vector<SpanRec>> span_logs;
  std::map<std::string, std::string> references;  ///< input -> digest
  std::map<int, PointCounters> counters;          ///< cpus -> counters
  std::map<std::string, double> values;           ///< named extras
  double measured_s = 0.0;
};

void write_report(const Report& rep, const std::string& path) {
  std::ostringstream o;
  o << "{\n\"setups\": [";
  for (std::size_t i = 0; i < rep.setups.size(); ++i) {
    const SetupTimes& s = rep.setups[i];
    o << (i ? "," : "") << "{\"total_s\":" << num(s.total_s)
      << ",\"recorder.record_ms\":" << num(s.record_ms)
      << ",\"trace.write_text_ms\":" << num(s.write_text_ms)
      << ",\"trace.write_binary_ms\":" << num(s.write_binary_ms) << "}";
  }
  o << "],\n\"measured_s\": " << num(rep.measured_s) << ",\n\"ops\": [";
  for (std::size_t i = 0; i < rep.ops.size(); ++i) {
    const OpRec& r = rep.ops[i];
    o << (i ? ",\n" : "\n") << "{\"id\":" << r.id
      << ",\"cls\":" << json_str(r.cls) << ",\"input\":" << json_str(r.input)
      << ",\"phase\":" << json_str(r.phase) << ",\"lat_ms\":" << num(r.lat_ms)
      << ",\"late_ms\":" << num(r.late_ms)
      << ",\"gen_late_ms\":" << num(r.gen_late_ms) << ",\"steps\":" << r.steps
      << ",\"traced\":" << (r.traced ? "true" : "false")
      << ",\"ok\":" << (r.ok ? "true" : "false")
      << ",\"digest\":" << json_str(r.digest)
      << ",\"error\":" << json_str(r.error) << "}";
  }
  o << "],\n\"spans\": [";
  bool first = true;
  for (const auto& log : rep.span_logs) {
    for (const SpanRec& s : log) {
      o << (first ? "\n" : ",\n") << "{\"name\":" << json_str(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"tid\":" << s.tid
        << ",\"steps\":" << s.steps << "}";
      first = false;
    }
  }
  o << "],\n\"references\": {";
  first = true;
  for (const auto& [name, d] : rep.references) {
    o << (first ? "" : ",") << json_str(name) << ":" << json_str(d);
    first = false;
  }
  o << "},\n\"counters\": {";
  first = true;
  for (const auto& [cpus, c] : rep.counters) {
    o << (first ? "" : ",") << "\"" << cpus << "\":{\"steps\":" << c.steps
      << ",\"sched_passes\":" << c.sched_passes
      << ",\"max_runq_depth\":" << c.max_runq_depth
      << ",\"dispatches\":" << c.dispatches << "}";
    first = false;
  }
  o << "},\n\"values\": {";
  first = true;
  for (const auto& [name, v] : rep.values) {
    o << (first ? "" : ",") << json_str(name) << ":" << num(v);
    first = false;
  }
  o << "}\n}\n";
  std::ofstream f(path);
  f << o.str();
  if (!f) throw Error("cannot write " + path);
}

// --- inputs ---------------------------------------------------------------

/// One generated input file.
struct Input {
  std::string name;  ///< file name in the work directory
  std::string cls;   ///< workload-specific role
};

trace::Trace record(const std::function<void()>& body, SetupTimes& st) {
  const std::int64_t t0 = now_ns();
  sol::Program program;
  trace::Trace t = rec::record_program(program, body);
  st.record_ms += ms_between(t0, now_ns());
  return t;
}

void write_text(const trace::Trace& t, const std::string& path,
                SetupTimes& st) {
  const std::int64_t t0 = now_ns();
  trace::save_file(t, path);
  st.write_text_ms += ms_between(t0, now_ns());
}

void write_binary(const trace::Trace& t, const std::string& path,
                  SetupTimes& st) {
  const std::int64_t t0 = now_ns();
  trace::save_binary_file(t, path);
  st.write_binary_ms += ms_between(t0, now_ns());
}

/// Per-workload seed streams, so the workloads draw independently.
Rng seeded(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + salt);
}

/// Fisher-Yates shuffle on a seeded stream.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

/// Scales every item cost of a producer-consumer run by one factor
/// drawn from the grid 0.80, 0.81, .., 1.16.  Costs drawn independently
/// or continuously, or a drawn buffer count, flip the 4..16 CPU points
/// of the 556-thread run between two run-queue regimes (the 4-CPU point
/// takes 9 or 85 ms), so the op time would spread ~30% over seeds.
/// Every grid point gives one regime: identical sched_passes and
/// max_runq_depth at 4, 8 and 16 CPUs (and the same SVG run at 150
/// threads); 1.17 and 1.19 do not, hence the grid's end.
void scale_costs(workloads::ProdConsParams& p, Rng& rng) {
  const double f = 0.80 + 0.01 * static_cast<double>(rng.below(37));
  p.produce_cost_us *= f;
  p.insert_cost_us *= f;
  p.fetch_cost_us *= f;
  p.consume_cost_us *= f;
  p.pick_cost_us *= f;
}

/// 556 threads: 370 producers and 185 consumers (the ratio `vppb gen
/// prodcons-tuned --threads 96` uses) plus main, 10 items per producer
/// over 100 buffers; the costs scaled by scale_costs().
std::vector<Input> make_deep_queue(std::uint64_t seed, SetupTimes& st) {
  Rng rng = seeded(seed, 1);
  workloads::ProdConsParams p;
  p.producers = 370;
  p.consumers = 185;
  scale_costs(p, rng);
  const trace::Trace t = record([&p] { workloads::prodcons_tuned(p); }, st);
  write_text(t, "deep_queue.vpp", st);
  return {{"deep_queue.vpp", "predict"}};
}

/// Scale drawn within +-10% of `base`.
double draw_scale(Rng& rng, double base) {
  return base * rng.uniform(0.9, 1.1);
}

/// The five Table 1 applications with 8 workers at paper scale, plus
/// fft with 16, 32, 48 and 64 workers at scale 0.2 (the engine
/// headline's shape); every scale drawn within +-10%.  Thread counts
/// stay fixed: they set each log's replay cost, and drawing them moved
/// the median session time by ~30% from seed to seed.  Sessions run in
/// whole rounds over the nine logs, so the median is the middle log's.
std::vector<Input> make_splash(std::uint64_t seed, SetupTimes& st) {
  Rng rng = seeded(seed, 2);
  std::vector<Input> inputs;
  const auto suite = workloads::splash_suite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const workloads::SplashParams p{8, draw_scale(rng, 1.0)};
    const auto& app = suite[i];
    const trace::Trace t = record([&app, p] { app.run(p); }, st);
    const std::string name = "splash" + std::to_string(i) + ".vppb";
    write_binary(t, name, st);
    inputs.push_back({name, "table1"});
  }
  for (const int threads : {16, 32, 48, 64}) {
    const workloads::SplashParams p{threads, draw_scale(rng, 0.2)};
    const trace::Trace t = record([p] { workloads::fft(p); }, st);
    const std::string name = "fft" + std::to_string(threads) + ".vppb";
    write_binary(t, name, st);
    inputs.push_back({name, "fft"});
  }
  return inputs;
}

constexpr int kServeHot = 4;
constexpr int kServeRing = 16;
constexpr std::size_t kServeCacheEntries = 8;

/// Hot set: fft with 32, 40, 48 and 56 workers at scale 0.2.  Ring:
/// sixteen logs cycling through the Table 1 apps with 4..10 workers,
/// more than the cache holds.  SVG: a 151-thread tuned producer-consumer
/// log (100 producers, 50 consumers, 5 items each), costs scaled by
/// scale_costs().  Every scale is drawn, so every file is distinct.
std::vector<Input> make_serve(std::uint64_t seed, SetupTimes& st) {
  Rng rng = seeded(seed, 3);
  std::vector<Input> inputs;
  for (int i = 0; i < kServeHot; ++i) {
    const workloads::SplashParams p{32 + 8 * i, draw_scale(rng, 0.2)};
    const trace::Trace t = record([p] { workloads::fft(p); }, st);
    const std::string name = "hot" + std::to_string(i) + ".vppb";
    write_binary(t, name, st);
    inputs.push_back({name, "hit"});
  }
  const auto suite = workloads::splash_suite();
  for (int i = 0; i < kServeRing; ++i) {
    const workloads::SplashParams p{4 + 2 * (i / 5), draw_scale(rng, 1.0)};
    const auto& app = suite[static_cast<std::size_t>(i) % suite.size()];
    const trace::Trace t = record([&app, p] { app.run(p); }, st);
    const std::string name = "ring" + std::to_string(i) + ".vppb";
    write_binary(t, name, st);
    inputs.push_back({name, "miss"});
  }
  workloads::ProdConsParams p;
  p.producers = 100;
  p.consumers = 50;
  p.items_per_producer = 5;
  scale_costs(p, rng);
  const trace::Trace t = record([&p] { workloads::prodcons_tuned(p); }, st);
  write_binary(t, "svg.vppb", st);
  inputs.push_back({"svg.vppb", "svg"});
  return inputs;
}

std::vector<Input> make_inputs(const std::string& workload,
                               std::uint64_t seed, SetupTimes& st) {
  if (workload == "deep_queue") return make_deep_queue(seed, st);
  if (workload == "splash_whatif") return make_splash(seed, st);
  if (workload == "serve_mix") return make_serve(seed, st);
  throw Error("unknown workload '" + workload + "'");
}

// --- shared pieces --------------------------------------------------------

const std::vector<int> kSweepCpus = {1, 2, 4, 8, 16};
constexpr std::int64_t kCommDelayUs = 50;  ///< the what-if grid's D

core::SimConfig sweep_config(int cpus, std::int64_t delay_us = 0) {
  core::SimConfig cfg;
  cfg.hw.cpus = cpus;
  cfg.hw.comm_delay = SimTime::micros(delay_us);
  cfg.build_timeline = false;
  return cfg;
}

bool in_sweep(int cpus) {
  return std::find(kSweepCpus.begin(), kSweepCpus.end(), cpus) !=
         kSweepCpus.end();
}

/// Runs one sweep point under its own span, `core.engine.cpusN` (with a
/// `.dD` suffix for a non-zero comm delay).
core::SimResult run_point(core::SweepRunner& runner,
                          const core::CompiledTrace& compiled, int cpus,
                          std::int64_t delay_us, SpanLog& spans) {
  std::string name = "core.engine.cpus" + std::to_string(cpus);
  if (delay_us != 0) name += ".d" + std::to_string(delay_us);
  spans.open(std::move(name));
  core::SimResult r = runner.run(compiled, sweep_config(cpus, delay_us));
  spans.close(r.engine.steps);
  return r;
}

/// The sweep parallelism question: the op's serial points again, as
/// SweepRunner sweeps with jobs = nproc (one per comm delay), digest-
/// checked against the op's serial results.
void parallel_sweep(core::SweepRunner& runner, const OpRec& op,
                    const core::CompiledTrace& compiled,
                    const std::vector<int>& cpus,
                    const std::vector<std::int64_t>& delays, SpanLog& spans,
                    Report& rep) {
  std::vector<core::SimResult> all;
  spans.begin_op(op.id, true);
  spans.open("core.sweep.parallel");
  for (const std::int64_t delay : delays) {
    std::vector<core::SimResult> results;
    core::SweepOptions opt;
    opt.jobs = util::ThreadPool::resolve_jobs(0);
    opt.results = &results;
    runner.sweep(compiled, cpus, sweep_config(1, delay), opt);
    for (auto& r : results) all.push_back(std::move(r));
  }
  spans.close();
  if (hex(core::digest(all)) != op.digest)
    rep.values["parallel_sweep_mismatches"] += 1;
}

/// Host-speed calibration: a fixed loop that shares no code with the
/// program (LCG-indexed read-modify-write over a 4 MiB table).  On a
/// shared 4-vCPU Xeon VM the speed drifted by 20-30% between runs
/// minutes apart while the ratio of a simulation's time to this loop's
/// stayed within ~3%, so run.py scales every reported host time by the
/// run's median sample.
class Calibrator {
 public:
  /// The sample time that defines the nominal host speed (a quiet 2.1
  /// GHz Xeon VM); run.py scales host times by nominal / measured.
  static constexpr double kNominalMs = 10.0;

  /// One sample, kNominalMs on the nominal host.
  void sample() {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = samples_ms_.size() + 1;
    std::uint64_t sink = 0;
    for (int i = 0; i < 4'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::uint32_t& cell = table_[(x >> 33) & (kTableSize - 1)];
      cell += static_cast<std::uint32_t>(x);
      sink += cell;
    }
    sink_ += sink;
    last_ns_ = now_ns();
    samples_ms_.push_back(ms_between(t0, last_ns_));
  }
  /// A sample when the last one is at least 100 ms old.
  void maybe_sample() {
    if (now_ns() - last_ns_ >= 100'000'000) sample();
  }
  void burst(int n) {
    for (int i = 0; i < n; ++i) sample();
  }
  double median_ms() const {
    std::vector<double> v = samples_ms_;
    std::sort(v.begin(), v.end());
    return v.empty() ? kNominalMs : v[v.size() / 2];
  }
  /// Host speed relative to nominal (2.0 = twice as fast).
  double speed() const { return kNominalMs / median_ms(); }
  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::size_t kTableSize = 1u << 20;
  std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(kTableSize);
  std::vector<double> samples_ms_;
  std::int64_t last_ns_ = 0;
  std::uint64_t sink_ = 0;
};

/// Runs ops back to back for `seconds`, then to the end of the current
/// round of `round` ops.  `op` fills the record and returns the compiled
/// trace it predicted from; for traced ops `after` then runs outside the
/// op's timing (the parallel sweep).
template <typename Op, typename After>
void closed_loop(double seconds, std::int64_t round, bool traced,
                 Calibrator& cal, Report& rep, Op&& op, After&& after) {
  SpanLog spans(1);
  const std::int64_t t0 = now_ns();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t id = 0;
  while (id % round != 0 || now_ns() < stop) {
    ++id;
    // The traced run alternates traced and untraced ops, so the tracing
    // overhead is measured within one run.
    spans.begin_op(id, traced && id % 2 == 1);
    OpRec r;
    r.id = id;
    r.traced = spans.on();
    std::optional<core::CompiledTrace> compiled;
    const std::int64_t s = now_ns();
    spans.open("op");
    try {
      compiled = op(r, spans);
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = e.what();
    }
    spans.close();
    r.lat_ms = ms_between(s, now_ns());
    if (r.traced && compiled) after(r, *compiled);
    rep.ops.push_back(std::move(r));
    cal.maybe_sample();
  }
  rep.measured_s = ms_between(t0, now_ns()) / 1e3;
  rep.span_logs.push_back(spans.spans());
}

// --- deep_queue -----------------------------------------------------------

/// Offline reference on its own runner: the digest every op must
/// reproduce, and the exact counters of each sweep point.
void deep_queue_refs(const std::vector<Input>& inputs, Report& rep) {
  const std::string& path = inputs.front().name;
  core::SweepRunner ref_runner;
  const core::CompiledTrace c = core::compile(trace::load_file(path));
  std::vector<core::SimResult> results;
  for (const int cpus : kSweepCpus) {
    results.push_back(ref_runner.run(c, sweep_config(cpus)));
    rep.counters[cpus].add(results.back().engine);
  }
  rep.references[path] = hex(core::digest(results));
}

void run_deep_queue(const std::vector<Input>& inputs, double seconds,
                    bool traced, Calibrator& cal, Report& rep) {
  deep_queue_refs(inputs, rep);
  const std::string& path = inputs.front().name;
  core::SweepRunner runner;
  SpanLog parallel_spans(2);
  auto op = [&](OpRec& r, SpanLog& spans) {
    r.cls = "predict";
    r.input = path;
    spans.open("trace.load_text");
    const trace::Trace t = trace::load_file(path);
    spans.close();
    spans.open("trace.lint");
    const trace::LintReport lint = trace::lint(t);
    spans.close();
    if (lint.errors != 0) throw Error("lint: " + lint.to_string());
    spans.open("core.compile");
    core::CompiledTrace c = core::compile(t);
    spans.close();
    std::vector<core::SimResult> results;
    spans.open("core.sweep.serial");
    for (const int cpus : kSweepCpus)
      results.push_back(run_point(runner, c, cpus, 0, spans));
    spans.close();
    for (const auto& res : results) r.steps += res.engine.steps;
    r.digest = hex(core::digest(results));
    r.ok = r.digest == rep.references[path];
    return c;
  };
  // One untimed op lets the pooled engines size their workspaces.
  {
    SpanLog warm(0);
    OpRec r;
    op(r, warm);
  }
  closed_loop(seconds, 1, traced, cal, rep, op,
              [&](const OpRec& r, const core::CompiledTrace& c) {
                parallel_sweep(runner, r, c, kSweepCpus, {0}, parallel_spans,
                               rep);
              });
  rep.span_logs.push_back(parallel_spans.spans());
}

// --- splash_whatif --------------------------------------------------------

const std::vector<int> kGridCpus = {1, 2,  3,  4,  5,  6,  7,  8,
                                    9, 10, 11, 12, 13, 14, 15, 16};
const std::vector<std::int64_t> kGridDelays = {0, kCommDelayUs};

/// The what-if grid: every CPU count 1..16 at comm delay 0 and D.
std::vector<core::SimResult> whatif_grid(core::SweepRunner& runner,
                                         const core::CompiledTrace& c,
                                         SpanLog& spans) {
  std::vector<core::SimResult> results;
  for (const std::int64_t delay : kGridDelays)
    for (const int cpus : kGridCpus)
      results.push_back(run_point(runner, c, cpus, delay, spans));
  return results;
}

void splash_refs(const std::vector<Input>& inputs, Report& rep) {
  core::SweepRunner ref_runner;
  SpanLog none(0);
  for (const Input& in : inputs) {
    const core::CompiledTrace c =
        core::compile(trace::load_binary_file(in.name));
    const auto results = whatif_grid(ref_runner, c, none);
    rep.references[in.name] = hex(core::digest(results));
    for (std::size_t i = 0; i < kGridCpus.size(); ++i)
      if (in_sweep(results[i].cpus))
        rep.counters[results[i].cpus].add(results[i].engine);
  }
}

void run_splash(const std::vector<Input>& inputs, std::uint64_t seed,
                double seconds, bool traced, Calibrator& cal, Report& rep) {
  splash_refs(inputs, rep);
  core::SweepRunner runner;
  SpanLog parallel_spans(2);
  auto session = [&](const Input& in, OpRec& r, SpanLog& spans) {
    r.cls = in.cls;
    r.input = in.name;
    spans.open("trace.load_binary");
    const trace::Trace t = trace::load_binary_file(in.name);
    spans.close();
    spans.open("core.compile");
    core::CompiledTrace c = core::compile(t);
    spans.close();
    spans.open("core.sweep.serial");
    const auto results = whatif_grid(runner, c, spans);
    spans.close();
    for (const auto& res : results) r.steps += res.engine.steps;
    r.digest = hex(core::digest(results));
    r.ok = r.digest == rep.references[in.name];
    return c;
  };
  {
    SpanLog warm(0);
    for (const Input& in : inputs) {
      OpRec r;
      session(in, r, warm);
    }
  }
  // Every log equally often: rounds over a seeded shuffle of them.
  Rng rng = seeded(seed, 4);
  std::vector<std::size_t> order;
  std::size_t next = 0;
  closed_loop(
      seconds, static_cast<std::int64_t>(inputs.size()), traced, cal, rep,
      [&](OpRec& r, SpanLog& spans) {
        if (next == order.size()) {
          order.clear();
          for (std::size_t i = 0; i < inputs.size(); ++i) order.push_back(i);
          shuffle(order, rng);
          next = 0;
        }
        return session(inputs[order[next++]], r, spans);
      },
      [&](const OpRec& r, const core::CompiledTrace& c) {
        parallel_sweep(runner, r, c, kGridCpus, kGridDelays, parallel_spans,
                       rep);
      });
  rep.span_logs.push_back(parallel_spans.spans());
}

// --- serve_mix ------------------------------------------------------------

constexpr double kServeRate = 150.0;  ///< offered requests/s, main phase,
                                      ///< at nominal host speed
constexpr int kServeSvgCpus = 8;

struct ServeRef {
  std::string digest;
  std::uint64_t steps = 0;
  std::uint64_t svg_key = 0;  ///< fnv1a of the offline SVG (svg input)
  std::map<int, std::uint64_t> point_steps;  ///< cpus -> engine steps
};

server::Request serve_request(const Input& in) {
  server::Request q;
  q.trace_path = in.name;
  if (in.cls == "svg") {
    q.type = server::ReqType::kSimulate;
    q.cpus = kServeSvgCpus;
    q.want_svg = true;
  } else {
    q.type = server::ReqType::kPredict;
    q.max_cpus = 16;
  }
  return q;
}

/// One planned request of the open loop.
struct Planned {
  std::int64_t due_ns = 0;
  std::size_t input = 0;
};

/// Request order: in every block of ten requests, eight warm predicts
/// over the hot set, one cold predict walking the ring and one simulate
/// + SVG, in a seeded order.  Drawing each request independently
/// clustered the SVG renders, and where the clusters fell set the p99
/// (35..95 ms over five seeds).
std::vector<std::size_t> draw_mix(Rng& rng, std::size_t n,
                                  std::size_t& ring_cursor) {
  std::vector<std::size_t> picks;
  while (picks.size() < n) {
    std::vector<std::size_t> block;
    for (int i = 0; i < 8; ++i) block.push_back(rng.below(kServeHot));
    block.push_back(kServeHot + ring_cursor);
    ring_cursor = (ring_cursor + 1) % kServeRing;
    block.push_back(kServeHot + kServeRing);
    shuffle(block, rng);
    picks.insert(picks.end(), block.begin(), block.end());
  }
  picks.resize(n);
  return picks;
}

/// Converts a response's stage timeline into spans under `call`: depth-0
/// stages are children of the call, deeper ones of the enclosing stage.
void timeline_spans(const server::Response& resp, const ServeRef& ref,
                    std::int64_t send_ns, std::int64_t call_id,
                    SpanLog& spans) {
  struct Open {
    std::int64_t start, end, id;
  };
  std::vector<server::StageSpan> stages;
  for (const auto& s : resp.timeline)
    if (s.dur_us >= 0) stages.push_back(s);
  // Parents first: by depth, then start.
  std::stable_sort(stages.begin(), stages.end(),
                   [](const auto& a, const auto& b) {
                     return a.depth < b.depth;
                   });
  std::vector<std::pair<server::StageSpan, Open>> placed;
  for (const auto& s : stages) {
    const std::int64_t start = send_ns + s.start_us * 1000;
    const std::int64_t end = start + s.dur_us * 1000;
    std::int64_t parent = call_id;
    if (s.depth > 0) {
      for (const auto& [ps, po] : placed)
        if (ps.depth + 1 == s.depth && po.start <= start && end <= po.end)
          parent = po.id;
    }
    std::string name = s.name;
    std::uint64_t steps = 0;
    if (name.rfind("cpus=", 0) == 0) {
      name = "core.engine.cpus" + name.substr(5);
      const auto it = ref.point_steps.find(std::stoi(s.name.substr(5)));
      if (it != ref.point_steps.end()) steps = it->second;
    } else if (name == "render-svg") {
      name = "viz.render_svg";
    } else if (name == "compile") {
      name = "server.load_compile";
    } else {
      for (char& ch : name)
        if (ch == '-') ch = '_';
      name = "server." + name;
    }
    const std::int64_t id = spans.add(name, start, end, parent, steps);
    placed.push_back({s, Open{start, end, id}});
  }
}

/// Offline references: the digest (and, for the SVG log, the SVG bytes
/// fingerprint) the daemon must reproduce for each input, via
/// SweepRunner on the same file.
std::map<std::string, ServeRef> serve_refs(const std::vector<Input>& inputs,
                                           Report& rep) {
  std::map<std::string, ServeRef> refs;
  core::SweepRunner ref_runner;
  for (const Input& in : inputs) {
    const trace::Trace t = trace::load_binary_file(in.name);
    const core::CompiledTrace c = core::compile(t);
    ServeRef ref;
    if (in.cls == "svg") {
      core::SimConfig cfg;
      cfg.hw.cpus = kServeSvgCpus;
      const core::SimResult r = ref_runner.run(c, cfg);
      ref.digest = hex(core::digest(r));
      ref.steps = r.engine.steps;
      viz::Visualizer v(r, t);
      v.compress_threads();
      const std::string svg = viz::render_svg(v, viz::RenderOptions{});
      ref.svg_key = server::content_key(
          reinterpret_cast<const std::uint8_t*>(svg.data()), svg.size());
      rep.references[in.name + ".svg"] = hex(ref.svg_key);
      rep.values["viz.svg_bytes"] = static_cast<double>(svg.size());
    } else {
      std::vector<core::SimResult> results;
      for (const int cpus : kSweepCpus) {
        results.push_back(ref_runner.run(c, sweep_config(cpus)));
        ref.steps += results.back().engine.steps;
        ref.point_steps[cpus] = results.back().engine.steps;
        rep.counters[cpus].add(results.back().engine);
      }
      ref.digest = hex(core::digest(results));
    }
    rep.references[in.name] = ref.digest;
    refs[in.name] = ref;
  }
  return refs;
}

void run_serve(const std::vector<Input>& inputs, std::uint64_t seed,
               double seconds, bool traced, Calibrator& cal, Report& rep) {
  const std::map<std::string, ServeRef> refs = serve_refs(inputs, rep);

  const int conns = std::min(4, util::ThreadPool::resolve_jobs(0));
  server::ServerOptions so;
  so.unix_path = "vppbd.sock";
  so.jobs = conns;
  so.cache_entries = kServeCacheEntries;
  server::Server srv(so);
  srv.start();

  std::vector<server::Client> clients;
  for (int i = 0; i < conns; ++i)
    clients.push_back(server::Client::connect_unix(so.unix_path, 5000));

  // Warm the cache with the hot set and the SVG log, untimed.
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (inputs[i].cls != "miss") clients[0].call(serve_request(inputs[i]));

  Rng rng = seeded(seed, 5);
  std::size_t ring_cursor = 0;
  std::vector<SpanLog> logs;
  for (int i = 0; i < conns; ++i) logs.emplace_back(10 + i);
  std::mutex ops_mu;
  std::int64_t next_id = 0;

  // One request on connection k, due at `due_ns` (its latency runs
  // from then); `free_ns` is when the connection came free.
  auto serve_one = [&](int k, std::size_t input, const std::string& phase,
                       std::int64_t due_ns, std::int64_t free_ns) {
    server::Client& client = clients[static_cast<std::size_t>(k)];
    SpanLog& spans = logs[static_cast<std::size_t>(k)];
    const Input& in = inputs[input];
    std::this_thread::sleep_until(kEpoch + std::chrono::nanoseconds(due_ns));
    const std::int64_t send = now_ns();
    OpRec r;
    {
      std::lock_guard<std::mutex> lock(ops_mu);
      r.id = ++next_id;
    }
    r.cls = in.cls;
    r.input = in.name;
    r.phase = phase;
    r.traced = traced && r.id % 2 == 1;
    spans.begin_op(r.id, r.traced);
    server::Request q = serve_request(in);
    q.want_timeline = r.traced;
    server::Response resp;
    try {
      resp = client.call(q);
    } catch (const std::exception& e) {
      resp.status = server::Status::kError;
      resp.error = e.what();
    }
    const std::int64_t done = now_ns();
    const ServeRef& ref = refs.at(in.name);
    r.digest = hex(resp.digest);
    r.ok = resp.status == server::Status::kOk && r.digest == ref.digest;
    if (r.ok && in.cls == "svg")
      r.ok = server::content_key(
                 reinterpret_cast<const std::uint8_t*>(resp.svg.data()),
                 resp.svg.size()) == ref.svg_key;
    if (resp.status != server::Status::kOk) r.error = resp.error;
    r.steps = r.ok ? ref.steps : 0;
    r.lat_ms = ms_between(due_ns, done);
    r.late_ms = ms_between(due_ns, send);
    r.gen_late_ms = ms_between(std::max(due_ns, free_ns), send);
    if (spans.on()) {
      const std::int64_t root = spans.add("op", due_ns, done, 0);
      spans.add("client.wait", due_ns, send, root);
      const std::int64_t call = spans.add("client.call", send, done, root);
      timeline_spans(resp, ref, send, call, spans);
    }
    std::lock_guard<std::mutex> lock(ops_mu);
    rep.ops.push_back(std::move(r));
    return done;
  };
  auto on_all_connections = [&](const std::function<void(int)>& fn) {
    std::vector<std::thread> threads;
    for (int k = 0; k < conns; ++k) threads.emplace_back(fn, k);
    for (auto& t : threads) t.join();
  };
  // Open loop: requests due every 1/rate s, taken in order by whichever
  // connection is free.
  auto open_loop = [&](const std::string& phase, double rate, double dur_s) {
    const auto n = static_cast<std::size_t>(rate * dur_s);
    const auto picks = draw_mix(rng, n, ring_cursor);
    const std::int64_t t0 = now_ns() + 20'000'000;
    std::atomic<std::size_t> next{0};
    on_all_connections([&](int k) {
      std::int64_t free_ns = now_ns();
      std::size_t i = next.fetch_add(1);
      for (; i < n; i = next.fetch_add(1)) {
        const auto due = t0 + static_cast<std::int64_t>(
                                  static_cast<double>(i) * 1e9 / rate);
        free_ns = serve_one(k, picks[i], phase, due, free_ns);
      }
    });
  };
  // Closed loop on every connection at once: each sends its next request
  // as soon as the last is answered, so the daemon never idles.
  auto saturate = [&](double dur_s) {
    const std::int64_t stop = now_ns() + static_cast<std::int64_t>(dur_s * 1e9);
    std::mutex mix_mu;
    std::vector<std::size_t> picks;
    on_all_connections([&](int k) {
      while (now_ns() < stop) {
        std::size_t pick = 0;
        {
          std::lock_guard<std::mutex> lock(mix_mu);
          if (picks.empty()) picks = draw_mix(rng, 10, ring_cursor);
          pick = picks.back();
          picks.pop_back();
        }
        const std::int64_t now = now_ns();
        serve_one(k, pick, "saturate", now, now);
      }
    });
  };

  // The main phase offers a fixed rate at nominal host speed, scaled by
  // the measured speed, so a slower host is offered proportionally less
  // and queueing does not depend on the host.
  cal.burst(10);
  const double speed = cal.speed();
  // An untimed second at the main rate lets the server's allocations
  // and the SVG path settle (its first renders run ~3x slower).
  open_loop("warm", kServeRate * speed, 1.0);
  const std::int64_t t0 = now_ns();
  const double main_s = seconds * 0.7;
  open_loop("main", kServeRate * speed, main_s);
  cal.burst(5);
  // Capacity: the rate the daemon sustains with every connection busy,
  // the highest offered rate at which its backlog cannot grow.
  const double saturate_s = seconds * 0.3;
  saturate(saturate_s);
  rep.measured_s = ms_between(t0, now_ns()) / 1e3;
  rep.values["serve.speed"] = speed;
  rep.values["serve.rate"] = kServeRate * speed;
  rep.values["serve.main_s"] = main_s;
  rep.values["serve.saturate_s"] = saturate_s;
  rep.values["serve.conns"] = conns;

  server::Request sq;
  sq.type = server::ReqType::kStats;
  const server::Response stats = clients[0].call(sq);
  rep.values["server.cache_hits"] = static_cast<double>(stats.stats.cache_hits);
  rep.values["server.cache_misses"] =
      static_cast<double>(stats.stats.cache_misses);
  rep.values["server.cache_evictions"] =
      static_cast<double>(stats.stats.cache_evictions);
  rep.values["server.cache_waits"] =
      static_cast<double>(stats.stats.cache_waits);
  rep.values["server.overloads"] = static_cast<double>(stats.stats.overloads);
  clients.clear();
  srv.stop();
  for (const SpanLog& l : logs) rep.span_logs.push_back(l.spans());
}

// --- main -----------------------------------------------------------------

/// Table 1 against the reference machine, exactly as
/// bench_table1_speedup runs it by default: max |(real - pred) / real|.
double table1_max_error() {
  const int cpu_counts[] = {2, 4, 8};
  machine::MachineConfig mc;
  mc.repetitions = 5;
  mc.cpu_jitter = 0.015;
  mc.seed = 0x5eed;
  double worst = 0.0;
  for (const auto& app : workloads::splash_suite()) {
    const auto report = machine::validate_workload(
        app.name,
        [&app](int threads) { app.run(workloads::SplashParams{threads, 1.0}); },
        std::span<const int>(cpu_counts), mc);
    worst = std::max(worst, report.max_abs_error());
  }
  return worst;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out = "raw.json";
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw Error("usage: perfbench_harness gen|refs|run --workload W ...");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      throw Error("unknown flag " + k);
    }
  }
  return a;
}

constexpr int kSetups = 15;

/// Computes the offline references of the workload's inputs.
void references(const std::string& workload,
                const std::vector<Input>& inputs, Report& rep) {
  if (workload == "deep_queue") {
    deep_queue_refs(inputs, rep);
  } else if (workload == "splash_whatif") {
    splash_refs(inputs, rep);
  } else {
    serve_refs(inputs, rep);
  }
}

int run(const Args& a) {
  Report rep;
  Calibrator cal;
  cal.burst(15);
  std::vector<Input> inputs;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes st;
    const std::int64_t t0 = now_ns();
    inputs = make_inputs(a.workload, a.seed, st);
    st.total_s = ms_between(t0, now_ns()) / 1e3;
    rep.setups.push_back(st);
  }
  if (a.workload == "deep_queue") {
    run_deep_queue(inputs, a.seconds, a.trace, cal, rep);
  } else if (a.workload == "splash_whatif") {
    run_splash(inputs, a.seed, a.seconds, a.trace, cal, rep);
  } else {
    run_serve(inputs, a.seed, a.seconds, a.trace, cal, rep);
  }
  cal.burst(15);
  rep.values["calibration_ms"] = cal.median_ms();
  rep.values["calibration_nominal_ms"] = Calibrator::kNominalMs;
  // Publishing the loop's result keeps the compiler from dropping it.
  rep.values["calibration_sink"] = static_cast<double>(cal.sink() & 1);
  rep.values["table1_max_error"] = table1_max_error();
  rep.values["peak_rss_mb"] = peak_rss_mb();
  rep.values["nproc"] = util::ThreadPool::resolve_jobs(0);
  write_report(rep, a.out);
  return 0;
}

/// Prints the offline references of the workload's inputs as JSON.
int refs(const Args& a) {
  SetupTimes st;
  Report rep;
  references(a.workload, make_inputs(a.workload, a.seed, st), rep);
  std::printf("{");
  bool first = true;
  for (const auto& [name, d] : rep.references) {
    std::printf("%s%s:%s", first ? "" : ",", json_str(name).c_str(),
                json_str(d).c_str());
    first = false;
  }
  std::printf("}\n");
  return 0;
}

int gen(const Args& a) {
  SetupTimes st;
  for (const Input& in : make_inputs(a.workload, a.seed, st))
    std::printf("%s\n", in.name.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "gen") return gen(a);
    if (a.mode == "run") return run(a);
    if (a.mode == "refs") return refs(a);
    throw Error("unknown mode '" + a.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
