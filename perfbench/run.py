#!/usr/bin/env python3
"""The VPPB pipeline benchmark: one command, three workloads.

    python3 perfbench/run.py --workload deep_queue|splash_whatif|serve_mix
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the harness and the
`vppb` CLI from source into .bench_build/ (the first run compiles),
generates the workload's inputs from --seed into .bench_work/, measures
for --seconds, checks every output, prints a report and, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the run's spans as a Chrome trace next to the inputs).
The exit code is 0 only when every check passed.  See README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
PINNED = os.path.join(HERE, "pinned_digests.json")
WORKLOADS = ("deep_queue", "splash_whatif", "serve_mix")
SWEEP_CPUS = (1, 2, 4, 8, 16)
# Tail percentile per workload: p90 of a closed-loop op, p95 of a
# served request (see README.md for why not p99).
TAIL = {"deep_queue": 90.0, "splash_whatif": 90.0, "serve_mix": 95.0}
# Spans the benchmark itself owns; everything else is a program layer.
HARNESS_SPANS = ("op", "core.sweep.serial", "client.wait")
DEADLINE_S = 175.0

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "sim_steps_per_s": "1/s",
    "capacity_rps": "1/s",
    "pred_err_pct": "%",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    """Configures once, then brings the harness and the CLI up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no VPPB sources next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_harness", "vppb"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD, "perfbench_harness"),
            os.path.join(BUILD, "vppb_tools", "vppb"))


def run_harness(harness, workload, seed, seconds, trace, work, deadline):
    out = os.path.join(work, "raw.json")
    cmd = [harness, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail("harness failed with exit code %d" % proc.returncode)
    with open(out) as f:
        return json.load(f)


def cli_sweep_digest(vppb, log_path, deadline):
    """The sweep digest `vppb predict` prints for the same log."""
    proc = subprocess.run(
        [vppb, "predict", log_path, "--max-cpus", str(SWEEP_CPUS[-1])],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    m = re.search(r"sweep digest: ([0-9a-f]{16})", proc.stdout)
    return m.group(1) if proc.returncode == 0 and m else None


def check_references(raw, workload, seed, vppb, work, deadline):
    """Inputs whose offline reference disagrees with a pinned digest or,
    for deep_queue, with `vppb predict`; ops on them count as failed."""
    bad = set()
    with open(PINNED) as f:
        pinned = json.load(f).get(workload, {}).get(str(seed))
    if pinned is not None:
        for name, digest in raw["references"].items():
            if pinned.get(name) != digest:
                log("digest of %s: %s, pinned %s"
                    % (name, digest, pinned.get(name)))
                bad.add(name)
    if workload == "deep_queue":
        name = "deep_queue.vpp"
        cli = cli_sweep_digest(vppb, os.path.join(work, name), deadline)
        if cli != raw["references"][name]:
            log("vppb predict digest %s, benchmark %s"
                % (cli, raw["references"][name]))
            bad.add(name)
    return bad


def end_to_end(raw, workload):
    """End-to-end metrics.  Host times are scaled to the nominal host
    speed the harness's calibration loop defines (see README.md); the raw
    values are printed beside them."""
    values = raw["values"]
    ops = raw["ops"]
    speed = values["calibration_nominal_ms"] / values["calibration_ms"]
    raw_m = {}
    if workload == "serve_mix":
        main = [o for o in ops if o["phase"] == "main"]
        secs = values["serve.main_s"]
    else:
        main = ops
        secs = raw["measured_s"]
    # A failed or refused request counts as over any latency limit.
    lat = [o["lat_ms"] if o["ok"] else 1e12 for o in main]
    raw_m["op_p50_ms"] = stats.median(lat)
    raw_m["op_tail_ms"] = stats.percentile(lat, TAIL[workload])
    raw_m["sim_steps_per_s"] = sum(o["steps"] for o in main) / secs
    if workload == "serve_mix":
        sat = [o for o in ops if o["phase"] == "saturate" and o["ok"]]
        raw_m["capacity_rps"] = len(sat) / values["serve.saturate_s"]
    else:
        raw_m["capacity_rps"] = len(main) / secs
    raw_m["setup_s"] = stats.median([s["total_s"] for s in raw["setups"]])
    m = {
        "op_p50_ms": raw_m["op_p50_ms"] * speed,
        "op_tail_ms": raw_m["op_tail_ms"] * speed,
        "sim_steps_per_s": raw_m["sim_steps_per_s"] / speed,
        "capacity_rps": raw_m["capacity_rps"] / speed,
        "pred_err_pct": 100.0 * values["table1_max_error"],
        "setup_s": raw_m["setup_s"] * speed,
        "peak_rss_mb": values["peak_rss_mb"],
    }
    n = len(lat)
    notes = {k: "raw %.6g" % v for k, v in raw_m.items()}
    notes["op_p50_ms"] += ", n=%d" % n
    notes["op_tail_ms"] += ", p%g, n=%d, %d beyond; highest supported: p%s" % (
        TAIL[workload], n, stats.samples_beyond(n, TAIL[workload]),
        stats.highest_supported_percentile(n))
    notes["setup_s"] += ", median of %d set-ups" % len(raw["setups"])
    notes["pred_err_pct"] = "Table 1 vs src/machine"
    return m, notes


def per_layer(raw, workload):
    """Per-layer metrics from the traced run's spans and exact counters,
    over the ops of the main phase.  A layer the workload does not
    exercise reads 0."""
    ops = [o for o in raw["ops"] if o["phase"] == "main"]
    main_ids = {o["id"] for o in ops}
    spans = [s for s in raw["spans"] if s["op"] in main_ids]
    by_op = stats.layer_self_ms(spans)
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops if not o["traced"]]
    durations = {}
    for s in spans:
        durations.setdefault((s["op"], s["name"]), 0.0)
        durations[(s["op"], s["name"])] += (s["end_ns"] - s["start_ns"]) / 1e6

    def self_med(name):
        vals = [per[name] for per in by_op.values() if name in per]
        return stats.median(vals) if vals else 0.0

    def dur_med(name):
        vals = [v for (_, n), v in durations.items() if n == name]
        return stats.median(vals) if vals else 0.0

    m = {}
    for key in ("recorder.record_ms", "trace.write_text_ms",
                "trace.write_binary_ms"):
        m[key] = stats.median([s[key] for s in raw["setups"]])
    m["trace.load_text_ms"] = self_med("trace.load_text")
    m["trace.lint_ms"] = self_med("trace.lint")
    m["trace.load_binary_ms"] = self_med("trace.load_binary")
    # In the daemon the stage timeline does not split load from compile.
    m["core.compile_ms"] = self_med(
        "server.load_compile" if workload == "serve_mix" else "core.compile")
    for cpus in SWEEP_CPUS:
        name = "core.engine.cpus%d" % cpus
        m["core.engine.run_ms.cpus%d" % cpus] = self_med(name)
        pts = [s for s in spans if s["name"] == name and s["steps"]]
        busy = sum(s["end_ns"] - s["start_ns"] for s in pts) / 1e9
        m["core.engine.steps_per_s.cpus%d" % cpus] = (
            sum(s["steps"] for s in pts) / busy if busy > 0 else 0.0)
        c = raw["counters"].get(str(cpus))
        for key in ("steps", "sched_passes", "max_runq_depth", "dispatches"):
            m["core.engine.%s.cpus%d" % (key, cpus)] = c[key] if c else 0
        m["core.engine.sched_passes_per_step.cpus%d" % cpus] = (
            c["sched_passes"] / c["steps"] if c and c["steps"] else 0.0)
    m["core.sweep.serial_ms"] = dur_med("core.sweep.serial")
    m["core.sweep.parallel_ms"] = dur_med("core.sweep.parallel")
    gains = []
    for (op, name), v in durations.items():
        if name == "core.sweep.parallel" and v > 0:
            s = durations.get((op, "core.sweep.serial"))
            if s:
                gains.append(s / v)
    m["core.sweep.parallel_gain"] = stats.median(gains) if gains else 0.0
    m["viz.svg_ms"] = self_med("viz.render_svg")
    m["viz.svg_bytes"] = raw["values"].get("viz.svg_bytes", 0)

    def service(cls):
        vals = [o["lat_ms"] - o["late_ms"] for o in ops if o["cls"] == cls]
        return stats.median(vals) if vals else 0.0

    serve = workload == "serve_mix"
    m["server.hit_ms"] = service("hit") if serve else 0.0
    m["server.miss_ms"] = service("miss") if serve else 0.0
    m["server.svg_ms"] = service("svg") if serve else 0.0
    m["server.queue_wait_ms"] = self_med("server.queue")
    v = raw["values"]
    hits = v.get("server.cache_hits", 0)
    lookups = hits + v.get("server.cache_misses", 0)
    m["server.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["server.cache_lookups"] = lookups
    for key in ("server.cache_evictions", "server.cache_waits",
                "server.overloads"):
        m[key] = v.get(key, 0)
    m["serve.gen_late_ms"] = (
        stats.percentile([o["gen_late_ms"] for o in ops], 99.0)
        if serve else 0.0)

    # Tracing overhead: traced against untraced ops of the same run (for
    # serve_mix, warm predicts with and without the stage timeline).
    def op_ms(group):
        if serve:
            group = [o for o in group if o["cls"] == "hit"]
            return stats.median([o["lat_ms"] - o["late_ms"] for o in group])
        return stats.median([o["lat_ms"] for o in group])

    m["trace.overhead_pct"] = 0.0
    if traced and untraced:
        base = op_ms(untraced)
        m["trace.overhead_pct"] = 100.0 * (op_ms(traced) - base) / base
    # Share of each op's wall time that program layers' self time
    # covers (the rest is the benchmark's own loop).
    shares = []
    for o in traced:
        per = by_op.get(o["id"], {})
        root = durations.get((o["id"], "op"), 0.0)
        if root > 0:
            own = sum(per.get(n, 0.0) for n in HARNESS_SPANS)
            shares.append(100.0 * (root - own) / root)
    m["trace.self_coverage_pct"] = stats.median(shares) if shares else 0.0
    m["host.calibration_ms"] = v["calibration_ms"]
    return m


UNITS = {
    "recorder.record_ms": "ms", "trace.write_text_ms": "ms",
    "trace.write_binary_ms": "ms", "trace.load_text_ms": "ms",
    "trace.lint_ms": "ms", "trace.load_binary_ms": "ms",
    "core.compile_ms": "ms", "core.sweep.serial_ms": "ms",
    "core.sweep.parallel_ms": "ms", "core.sweep.parallel_gain": "x",
    "viz.svg_ms": "ms", "viz.svg_bytes": "bytes", "server.hit_ms": "ms",
    "server.miss_ms": "ms", "server.svg_ms": "ms",
    "server.queue_wait_ms": "ms", "server.cache_hit_ratio": "ratio",
    "server.cache_lookups": "count", "server.cache_evictions": "count",
    "server.cache_waits": "count", "server.overloads": "count",
    "serve.gen_late_ms": "ms", "trace.overhead_pct": "%",
    "trace.self_coverage_pct": "%", "host.calibration_ms": "ms",
}


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in UNITS:
        return UNITS[name]
    if ".run_ms." in name:
        return "ms"
    if ".steps_per_s." in name:
        return "1/s"
    if ".sched_passes_per_step." in name:
        return "ratio"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S

    harness, vppb = build()
    # The build may take long on the first run; the measurement budget
    # starts after it.
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw = run_harness(harness, args.workload, args.seed, args.seconds,
                      args.trace, work, deadline)
    bad_inputs = check_references(raw, args.workload, args.seed, vppb, work,
                                  deadline)
    ops = raw["ops"]
    failed = [o for o in ops if not o["ok"] or o["input"] in bad_inputs]
    for o in failed[:5]:
        log("failed op %d (%s %s): digest %s %s"
            % (o["id"], o["cls"], o["input"], o["digest"], o["error"]))
    mismatched_parallel = raw["values"].get("parallel_sweep_mismatches", 0)
    if mismatched_parallel:
        log("parallel sweep digests differ from serial: %d"
            % mismatched_parallel)
    correct = bool(ops) and not failed and not bad_inputs \
        and not mismatched_parallel

    if args.trace:
        metrics = per_layer(raw, args.workload)
        notes = {}
        path = os.path.join(work, "spans.json")
        with open(path, "w") as f:
            json.dump(stats.chrome_trace(raw["spans"]), f)
        log("spans: " + path)
    else:
        metrics, notes = end_to_end(raw, args.workload)

    print("workload %s, seed %d, %d ops over %.1f s, %d failed; "
          "calibration sample %.3f ms"
          % (args.workload, args.seed, len(ops), raw["measured_s"],
             len(failed), raw["values"]["calibration_ms"]))
    for name, value in metrics.items():
        print("  %-40s %14.6g %-6s %s" % (name, value, unit_of(name),
                                           notes.get(name, "")))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
