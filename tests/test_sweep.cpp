// Tests for the processor-sweep and Amdahl-fit analysis.
#include <gtest/gtest.h>

#include "core/sweep.hpp"
#include "recorder/recorder.hpp"
#include "solaris/program.hpp"
#include "solaris/solaris.hpp"
#include "util/error.hpp"
#include "workloads/splash.hpp"
#include "workloads/synthetic.hpp"

namespace vppb::core {
namespace {

CompiledTrace record_compiled(const std::function<void()>& fn) {
  sol::Program program;
  return compile(rec::record_program(program, fn));
}

const int kCpus[] = {1, 2, 4, 8};

TEST(SweepTest, PointsSortedAndComplete) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(8, SimTime::millis(5));
  });
  const int shuffled[] = {8, 1, 4, 2};
  const SpeedupCurve curve = sweep_cpus(c, shuffled, SimConfig{});
  ASSERT_EQ(curve.points().size(), 4u);
  for (std::size_t i = 1; i < curve.points().size(); ++i)
    EXPECT_GT(curve.points()[i].cpus, curve.points()[i - 1].cpus);
  EXPECT_EQ(curve.best().cpus, 8);
}

TEST(SweepTest, FullyParallelHasNearZeroSerialFraction) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(8, SimTime::millis(20));
  });
  const SpeedupCurve curve = sweep_cpus(c, kCpus, SimConfig{});
  EXPECT_LT(curve.amdahl_serial_fraction(), 0.02);
  EXPECT_EQ(curve.knee(0.9), 8);
}

TEST(SweepTest, ExplicitSerialFractionIsRecovered) {
  // 30% of the work in main, 70% split over 8 workers: the fitted f
  // should land near 0.3.
  const CompiledTrace c = record_compiled([]() {
    sol::compute(SimTime::millis(30));
    workloads::fork_join(8, SimTime::millis(70) / 8);
  });
  const SpeedupCurve curve = sweep_cpus(c, kCpus, SimConfig{});
  EXPECT_NEAR(curve.amdahl_serial_fraction(), 0.30, 0.05);
  // And the fitted curve reproduces the simulated points.
  for (const SweepPoint& p : curve.points()) {
    EXPECT_NEAR(curve.amdahl_speedup(p.cpus), p.speedup, 0.25) << p.cpus;
  }
}

TEST(SweepTest, FftMatchesThePapersAmdahlFraction) {
  // The paper's FFT row (1.55 / 2.14 / 2.62) fits f ~= 0.29; our FFT
  // kernel was built to reproduce it.
  const CompiledTrace c = record_compiled([]() {
    workloads::fft(workloads::SplashParams{8, 0.2});
  });
  const SpeedupCurve curve = sweep_cpus(c, kCpus, SimConfig{});
  EXPECT_NEAR(curve.amdahl_serial_fraction(), 0.29, 0.07);
}

TEST(SweepTest, KneeThresholds) {
  const CompiledTrace c = record_compiled([]() {
    sol::compute(SimTime::millis(30));
    workloads::fork_join(8, SimTime::millis(70) / 8);
  });
  const SpeedupCurve curve = sweep_cpus(c, kCpus, SimConfig{});
  // f = 0.3: efficiency at 2 CPUs ~ 0.77, at 4 ~ 0.53, at 8 ~ 0.32.
  EXPECT_EQ(curve.knee(0.75), 2);
  EXPECT_EQ(curve.knee(0.5), 4);
  EXPECT_EQ(curve.knee(0.99), 1) << "falls back to the smallest count";
}

TEST(SweepTest, RejectsEmptyInput) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(2, SimTime::millis(1));
  });
  EXPECT_THROW(sweep_cpus(c, {}, SimConfig{}), Error);
  EXPECT_THROW(SpeedupCurve({}), Error);
}

TEST(SweepTest, SinglePointDegenerateFit) {
  const CompiledTrace c = record_compiled([]() {
    sol::compute(SimTime::millis(50));
    workloads::fork_join(4, SimTime::millis(50) / 4);
  });
  const int one[] = {4};
  const SpeedupCurve curve = sweep_cpus(c, one, SimConfig{});
  // S(4) = 1/(0.5 + 0.5/4) = 1.6 -> f = (4/1.6 - 1)/3 = 0.5.
  EXPECT_NEAR(curve.amdahl_serial_fraction(), 0.5, 0.05);
}

TEST(SweepTest, KneeStopsAtFirstDip) {
  // A curve whose efficiency dips below the threshold at 2 CPUs and
  // recovers at 4 must report the knee at the smallest count, not at
  // the recovered one.
  std::vector<SweepPoint> pts(3);
  pts[0] = {1, 1.0, 1.0, SimTime::millis(100)};
  pts[1] = {2, 0.8, 0.4, SimTime::millis(125)};
  pts[2] = {4, 3.2, 0.8, SimTime::millis(31)};
  const SpeedupCurve curve(std::move(pts));
  EXPECT_EQ(curve.knee(0.5), 1);
  EXPECT_EQ(curve.knee(0.3), 4);
}

TEST(SweepTest, ParallelSweepMatchesSerialPointForPoint) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fft(workloads::SplashParams{8, 0.2});
  });
  const int counts[] = {1, 2, 3, 4, 6, 8};
  const SpeedupCurve serial = sweep_cpus(c, counts, SimConfig{});
  SweepOptions opt;
  opt.jobs = 4;
  const SpeedupCurve parallel = sweep_cpus(c, counts, SimConfig{}, opt);
  ASSERT_EQ(serial.points().size(), parallel.points().size());
  for (std::size_t i = 0; i < serial.points().size(); ++i) {
    const SweepPoint& s = serial.points()[i];
    const SweepPoint& p = parallel.points()[i];
    EXPECT_EQ(s.cpus, p.cpus);
    EXPECT_EQ(s.speedup, p.speedup) << "cpus=" << s.cpus;
    EXPECT_EQ(s.efficiency, p.efficiency) << "cpus=" << s.cpus;
    EXPECT_EQ(s.total, p.total) << "cpus=" << s.cpus;
  }
}

TEST(SweepTest, SweepOptionsCapturesResultsAndTimelines) {
  const CompiledTrace c = record_compiled([]() {
    workloads::fork_join(4, SimTime::millis(5));
  });
  const int counts[] = {1, 4};
  SimConfig base;
  base.build_timeline = true;
  std::vector<SimResult> results;
  SweepOptions opt;
  opt.jobs = 2;
  opt.results = &results;
  const SpeedupCurve curve = sweep_cpus(c, counts, base, opt);
  ASSERT_EQ(results.size(), 2u);
  // Sweeps discard timelines even when the base asks for one.
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].total, curve.points()[i].total);
    EXPECT_TRUE(results[i].segments.empty());
  }
}

}  // namespace
}  // namespace vppb::core
