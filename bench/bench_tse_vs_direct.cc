// Extension experiment X-direct (DESIGN.md): the latency of one
// add_attribute schema change as a function of the database population.
// Direct in-place modification must restructure every member instance;
// TSE's virtual change creates a handful of virtual classes and touches
// no object at all (lazy slice attachment) — the subschema-evolution /
// no-service-interruption argument of Sections 1 and 8.
//
// Expected shape: direct cost grows linearly with N; TSE cost is flat.

#include <benchmark/benchmark.h>

#include <memory>

#include "baseline/direct_engine.h"
#include "evolution/tse_manager.h"
#include "update/update_engine.h"

namespace {

using namespace tse;
using namespace tse::evolution;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

struct TseStack {
  schema::SchemaGraph graph;
  objmodel::SlicingStore store;
  view::ViewManager views{&graph};
  TseManager tse{&graph, &store, &views};
  update::UpdateEngine db{&graph, &store, update::ValueClosurePolicy::kAllow};
};

void BM_TseAddAttribute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto stack = std::make_unique<TseStack>();
    ClassId student =
        stack->graph
            .AddBaseClass("Student", {},
                          {PropertySpec::Attribute("name",
                                                   ValueType::kString)})
            .value();
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(stack->db.Create(student, {}));
    }
    ViewId vs = stack->tse.CreateView("VS", {{student, ""}}).value();
    AddAttribute change;
    change.class_name = "Student";
    change.spec = PropertySpec::Attribute("register", ValueType::kBool);
    state.ResumeTiming();

    benchmark::DoNotOptimize(stack->tse.ApplyChange(vs, change));

    state.PauseTiming();
    stack.reset();  // teardown outside the timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["objects"] = static_cast<double>(n);
}
BENCHMARK(BM_TseAddAttribute)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);

void BM_DirectAddAttribute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto direct = std::make_unique<baseline::DirectEngine>();
    direct
        ->AddClass("Student", {},
                   {PropertySpec::Attribute("name", ValueType::kString)})
        .ok();
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(direct->CreateObject("Student"));
    }
    state.ResumeTiming();

    benchmark::DoNotOptimize(direct->AddAttribute(
        "Student", PropertySpec::Attribute("register", ValueType::kBool)));

    state.PauseTiming();
    direct.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["objects"] = static_cast<double>(n);
}
BENCHMARK(BM_DirectAddAttribute)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
