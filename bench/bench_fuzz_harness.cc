// Throughput of the differential fuzz harness: how many random
// schema-change operators per second the full lockstep pipeline
// (generate → TSE apply → oracle mirror → equivalence + intersection
// replica checks) sustains. This bounds how much state space a given
// CI budget can explore, and separates generation cost from checking
// cost so future harness optimisations can be measured.

#include <benchmark/benchmark.h>

#include "fuzz/differential_executor.h"
#include "fuzz/fuzz_case.h"

namespace {

using namespace tse::fuzz;

FuzzCaseOptions Sized(int classes, int objects, int ops) {
  FuzzCaseOptions gen;
  gen.schema.num_classes = classes;
  gen.schema.num_objects = objects;
  gen.script.num_changes = ops;
  return gen;
}

void BM_GenerateCase(benchmark::State& state) {
  FuzzCaseOptions gen = Sized(8, 24, 10);
  uint64_t seed = 1;
  for (auto _ : state) {
    FuzzCase c = GenerateCase(seed++, gen);
    benchmark::DoNotOptimize(c.script.size());
  }
}
BENCHMARK(BM_GenerateCase);

void BM_DifferentialReplay(benchmark::State& state) {
  FuzzCaseOptions gen =
      Sized(static_cast<int>(state.range(0)), 3 * state.range(0), 10);
  DifferentialExecutor executor;
  uint64_t seed = 1;
  size_t ops = 0;
  for (auto _ : state) {
    FuzzCase c = GenerateCase(seed++, gen);
    RunReport report = executor.Run(c);
    if (report.Diverged()) state.SkipWithError("unexpected divergence");
    ops += report.attempted;
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_DifferentialReplay)->Arg(4)->Arg(8)->Arg(16);

void BM_DifferentialReplayEquivalenceOnly(benchmark::State& state) {
  // Same pipeline with the per-step value and intersection-replica
  // checks off: isolates the cost of the extra cross-architecture
  // validation the full harness performs.
  FuzzCaseOptions gen = Sized(8, 24, 10);
  ExecutorOptions options;
  options.check_values = false;
  options.check_intersection_replica = false;
  DifferentialExecutor executor(options);
  uint64_t seed = 1;
  size_t ops = 0;
  for (auto _ : state) {
    FuzzCase c = GenerateCase(seed++, gen);
    RunReport report = executor.Run(c);
    if (report.Diverged()) state.SkipWithError("unexpected divergence");
    ops += report.attempted;
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_DifferentialReplayEquivalenceOnly);

}  // namespace

BENCHMARK_MAIN();
