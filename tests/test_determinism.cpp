// Golden-digest determinism tests for the Simulator.
//
// Every case records a workload, simulates it under a specific
// configuration and compares core::digest(SimResult) — an
// order-sensitive fingerprint of every field, segment and event —
// against a value pinned in golden_cases.hpp (shared with the guard
// parity suite).  The goldens were captured from the straightforward
// sort-per-step scheduler the engine started with, so they lock the
// dispatch-queue scheduler (and any later rewrite) to bit-identical
// results: same speed-up, same totals, same segments in the same
// order, same per-thread statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "golden_cases.hpp"
#include "solaris/solaris.hpp"
#include "trace/binary.hpp"
#include "workloads/prodcons.hpp"

namespace vppb::core {
namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

TEST(DeterminismTest, GoldenDigests) {
  for (const GoldenCase& gc : kGoldenCases) {
    const CompiledTrace compiled = record_compiled(gc.workload);
    SimConfig cfg;
    gc.configure(cfg);
    const std::uint64_t actual = digest(simulate(compiled, cfg));
    EXPECT_EQ(actual, gc.golden)
        << gc.name << ": actual digest " << hex(actual) << " (golden "
        << hex(gc.golden) << ")";
  }
}

// The deep-run-queue regime: the 556-thread shape of `vppb gen
// prodcons-tuned --threads 96` (370 producers, 185 consumers, 10 items
// each) keeps hundreds of LWPs waiting for a CPU, far more than any
// golden case above (at most 8 threads).  These digests pin the
// kernel-level dispatch decisions at that depth, including CPU-bound
// waiters and mixed user priorities.
TEST(DeterminismTest, DeepRunQueueDigests) {
  const CompiledTrace compiled = record_compiled([] {
    workloads::ProdConsParams p;
    p.producers = 370;
    p.consumers = 185;
    p.items_per_producer = 10;
    workloads::prodcons_tuned(p);
  });
  struct DeepCase {
    const char* name;
    std::function<void(SimConfig&)> configure;
    std::uint64_t golden;
  };
  const DeepCase cases[] = {
      {"deep_queue_cpus1", [](SimConfig& c) { c.hw.cpus = 1; },
       0x27bba7f899028ffa},
      {"deep_queue_cpus2", [](SimConfig& c) { c.hw.cpus = 2; },
       0x8688e8ba54b86615},
      {"deep_queue_cpus16", [](SimConfig& c) { c.hw.cpus = 16; },
       0xb67b6ca7642d58ef},
      {"deep_queue_cpus4_bound_prio",
       [](SimConfig& c) {
         c.hw.cpus = 4;
         // Consumers are T2..T186, producers T187..T556.  Eight
         // producers spread over the CPUs, two of them also raised.
         for (int k = 0; k < 8; ++k) {
           ThreadPolicy bound;
           bound.override_binding = true;
           bound.binding = Binding::kBoundCpu;
           bound.cpu = k % 4;
           if (k % 4 == 1) {
             bound.override_priority = true;
             bound.priority = 3;
           }
           c.sched.thread_policy[200 + 45 * k] = bound;
         }
         for (ThreadId tid = 300; tid < 340; tid += 4) {
           ThreadPolicy raised;
           raised.override_priority = true;
           raised.priority = tid % 8 == 0 ? 5 : 2;
           c.sched.thread_policy[tid] = raised;
         }
       },
       0xb5b5856b8723336f},
  };
  for (const DeepCase& dc : cases) {
    SimConfig cfg;
    dc.configure(cfg);
    ASSERT_TRUE(cfg.build_timeline);
    const SimResult r = simulate(compiled, cfg);
    EXPECT_GT(r.engine.max_runq_depth, 64u) << dc.name;
    const std::uint64_t actual = digest(r);
    EXPECT_EQ(actual, dc.golden)
        << dc.name << ": actual digest " << hex(actual) << " (golden "
        << hex(dc.golden) << ")";
  }
}

TEST(DeterminismTest, RepeatedSimulationIsBitIdentical) {
  const CompiledTrace compiled = record_compiled([] {
    workloads::fft(workloads::SplashParams{8, 0.2});
  });
  SimConfig cfg;
  cfg.hw.cpus = 4;
  const std::uint64_t first = digest(simulate(compiled, cfg));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(digest(simulate(compiled, cfg)), first) << "run " << i;
  }
}

TEST(DeterminismTest, RepeatedRecordingIsBitIdentical) {
  auto workload = [] { workloads::ocean(workloads::SplashParams{4, 0.1}); };
  SimConfig cfg;
  cfg.hw.cpus = 4;
  const std::uint64_t first =
      digest(simulate(record_compiled(workload), cfg));
  EXPECT_EQ(digest(simulate(record_compiled(workload), cfg)), first);
}

TEST(DeterminismTest, SalvagedPrefixSimulatesDeterministically) {
  // Salvage is part of the prediction pipeline: the same damaged log
  // must always recover the same prefix and simulate to the same
  // digest, or a crash investigation would chase a moving target.
  sol::Program program;
  const trace::Trace t = rec::record_program(program, [] {
    workloads::fork_join(4, SimTime::millis(2));
  });
  std::vector<std::uint8_t> bytes = trace::to_binary(t);
  bytes.resize(bytes.size() - 9);  // torn tail, as a crash would leave

  trace::LoadOptions opt;
  opt.salvage = true;
  SimConfig cfg;
  cfg.hw.cpus = 4;
  trace::LoadReport first_report;
  const trace::Trace first_trace =
      trace::from_binary(bytes.data(), bytes.size(), opt, &first_report);
  ASSERT_GT(first_report.records_recovered, 0u);
  const std::uint64_t first = digest(simulate(compile(first_trace), cfg));
  for (int i = 0; i < 3; ++i) {
    trace::LoadReport report;
    const trace::Trace again =
        trace::from_binary(bytes.data(), bytes.size(), opt, &report);
    EXPECT_EQ(report.records_recovered, first_report.records_recovered);
    EXPECT_EQ(report.records_dropped, first_report.records_dropped);
    EXPECT_EQ(digest(simulate(compile(again), cfg)), first) << "run " << i;
  }
}

}  // namespace
}  // namespace vppb::core
