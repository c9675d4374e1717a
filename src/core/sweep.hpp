// Processor-count sweeps and speed-up-curve analysis.
//
// The paper's workflow ends with a developer reading speed-up numbers
// off the Simulator; this module packages the common questions: what
// does the whole curve look like, where does adding processors stop
// paying (the knee), and what serial fraction explains the curve
// (Amdahl fit — e.g. the paper's FFT row 1.55/2.14/2.62 is an almost
// perfect f ~= 0.29 curve).
#pragma once

#include <mutex>
#include <span>
#include <vector>

#include "core/compiler.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/guard.hpp"
#include "core/result.hpp"
#include "util/time.hpp"

namespace vppb::util {
class ThreadPool;
}

namespace vppb::core {

struct SweepPoint {
  int cpus = 1;
  double speedup = 1.0;
  double efficiency = 1.0;  ///< speedup / cpus
  SimTime total;
};

class SpeedupCurve {
 public:
  explicit SpeedupCurve(std::vector<SweepPoint> points);

  const std::vector<SweepPoint>& points() const { return points_; }

  /// Least-squares Amdahl fit: 1/S = f + (1-f)/p.  Returns the serial
  /// fraction f clamped to [0, 1].
  double amdahl_serial_fraction() const;

  /// Predicted speed-up of the fitted Amdahl curve at `cpus`.
  double amdahl_speedup(int cpus) const;

  /// The largest CPU count of the *leading prefix* of the curve whose
  /// efficiency stays at or above the threshold (the "knee" a capacity
  /// planner cares about).  A count only qualifies if every smaller
  /// swept count also meets the threshold: once efficiency dips below
  /// it, later recoveries (non-monotone curves) do not move the knee
  /// outward.  Returns the smallest swept count when even that one
  /// fails the threshold.
  int knee(double efficiency_threshold = 0.5) const;

  /// Largest speed-up over the sweep.
  const SweepPoint& best() const;

 private:
  std::vector<SweepPoint> points_;
};

/// Controls how sweep_cpus runs the per-configuration simulations.
struct SweepOptions {
  /// Simulations in flight: 1 = strictly serial (the default), 0 = one
  /// per hardware thread, N = exactly N.  Each sweep point simulates an
  /// immutable CompiledTrace with its own SimConfig, so the points are
  /// independent; results are always assembled in deterministic
  /// `cpu_counts` order regardless of completion order.
  int jobs = 1;
  /// Reuse an already-running util::ThreadPool instead of spinning one
  /// up per call (jobs is ignored when set).
  util::ThreadPool* pool = nullptr;
  /// When non-null, receives the full SimResult of every point, in
  /// `cpu_counts` order (the vector is resized to match), built without
  /// timelines like every sweep point.
  std::vector<SimResult>* results = nullptr;
  /// Optional governance: checked before each sweep point and polled
  /// inside every simulation.  One guard covers the whole sweep, so a
  /// single cancel() (or a tripping wall budget) stops every in-flight
  /// point; step/sim-time/result budgets apply per point.  The sweep
  /// rethrows the first BudgetExceeded after all dispatched points have
  /// drained — no tasks are left running in the pool.
  const RunGuard* guard = nullptr;
};

/// The batched sweep driver: a pool of reusable SimEngines behind a
/// mutex, so every simulation it runs — a whole sweep or a single
/// what-if point — lands on an engine whose workspace is already
/// allocated and merely reset.  The compiled trace is shared immutably
/// by every point; only the SimConfig varies.  Results are bit-identical
/// to the one-shot simulate() path (the determinism suite pins this),
/// so callers switch freely between the two.
///
/// Thread-safe: concurrent calls check out distinct engines, and the
/// pool grows to the high-water concurrency.  An engine whose run
/// throws (cancelled guard, tripped budget) is discarded rather than
/// returned, so the pool only ever holds engines that completed
/// cleanly.
class SweepRunner {
 public:
  /// One simulation on a pooled engine; guard semantics as simulate().
  SimResult run(const CompiledTrace& compiled, const SimConfig& config,
                const RunGuard* guard = nullptr);

  /// Batched sweep: sweep_cpus semantics, every point on a pooled
  /// engine.  With options.jobs > 1 the points still run concurrently —
  /// each worker checks out its own engine.
  SpeedupCurve sweep(const CompiledTrace& compiled,
                     std::span<const int> cpu_counts, const SimConfig& base,
                     const SweepOptions& options = SweepOptions{});

  /// The process-wide runner: the CLI, the vppbd handlers and the sweep
  /// entry points below all share it, so any repeated prediction work
  /// in the process reuses the same warmed engines.
  static SweepRunner& shared();

 private:
  SimEngine acquire();
  void release(SimEngine engine);

  std::mutex mu_;
  std::vector<SimEngine> idle_;
};

/// Simulates the compiled trace at each CPU count (other parameters from
/// `base`; its cpu count is ignored).  Every point runs with
/// `build_timeline` off whatever `base` asks: a sweep wants the speed-up
/// numbers, and building (then discarding) full timelines would
/// dominate the cost.
SpeedupCurve sweep_cpus(const CompiledTrace& compiled,
                        std::span<const int> cpu_counts,
                        const SimConfig& base);

/// As above, with explicit execution options (parallelism, per-point
/// result capture, governance).
SpeedupCurve sweep_cpus(const CompiledTrace& compiled,
                        std::span<const int> cpu_counts,
                        const SimConfig& base, const SweepOptions& options);

}  // namespace vppb::core
