// Ablation / scaling study (DESIGN.md design-choice call-outs): the
// classifier positions each new virtual class by searching the
// classified DAG for the classes that subsume it and the classes it
// subsumes, each test walking derivation chains. The SchemaGraph
// memoizes subsumption results across class additions; this bench
// quantifies (a) how classification cost scales with global-schema size
// and (b) what one full schema-change (TSEM pipeline) costs as views
// accumulate — the practical limit of "keep every version forever".

#include <benchmark/benchmark.h>

#include <memory>

#include "evolution/tse_manager.h"
#include "update/update_engine.h"

namespace {

using namespace tse;
using namespace tse::evolution;
using objmodel::ValueType;
using schema::PropertySpec;

struct GrownStack {
  schema::SchemaGraph graph;
  objmodel::SlicingStore store;
  view::ViewManager views{&graph};
  TseManager tse{&graph, &store, &views};
  ViewId vs;

  /// Builds a base chain of `width` classes and then applies
  /// `evolutions` add_attribute changes, each growing the global schema
  /// with primed virtual classes.
  GrownStack(int width, int evolutions) {
    std::vector<view::ViewClassSpec> specs;
    ClassId prev;
    for (int i = 0; i < width; ++i) {
      std::vector<ClassId> supers;
      if (i > 0) supers.push_back(prev);
      prev = graph
                 .AddBaseClass("C" + std::to_string(i), supers,
                               {PropertySpec::Attribute(
                                   "a" + std::to_string(i), ValueType::kInt)})
                 .value();
      specs.push_back({prev, ""});
    }
    vs = tse.CreateView("VS", specs).value();
    for (int e = 0; e < evolutions; ++e) {
      AddAttribute change;
      change.class_name = "C0";  // the root: propagates to all subclasses
      change.spec = PropertySpec::Attribute("x" + std::to_string(e),
                                            ValueType::kInt);
      vs = tse.ApplyChange(vs, change).value();
    }
  }
};

void BM_ChangeLatencyVsAccumulatedVersions(benchmark::State& state) {
  const int evolutions = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto stack = std::make_unique<GrownStack>(6, evolutions);
    AddAttribute change;
    change.class_name = "C0";
    change.spec = PropertySpec::Attribute("probe", ValueType::kInt);
    state.ResumeTiming();
    benchmark::DoNotOptimize(stack->tse.ApplyChange(stack->vs, change));
    state.PauseTiming();
    state.counters["global_classes"] =
        static_cast<double>(stack->graph.class_count());
    stack.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChangeLatencyVsAccumulatedVersions)
    ->Arg(0)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);

void BM_ChangeLatencyVsViewWidth(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto stack = std::make_unique<GrownStack>(width, 0);
    AddAttribute change;
    change.class_name = "C0";
    change.spec = PropertySpec::Attribute("probe", ValueType::kInt);
    state.ResumeTiming();
    benchmark::DoNotOptimize(stack->tse.ApplyChange(stack->vs, change));
    state.PauseTiming();
    stack.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["view_classes"] = static_cast<double>(width);
}
BENCHMARK(BM_ChangeLatencyVsViewWidth)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);

void BM_SubsumptionQueryCacheEffect(benchmark::State& state) {
  // Warm subsumption queries over a grown schema: the cost of a memo
  // hit, against which a cold query pays the full recursive walk.
  auto stack = std::make_unique<GrownStack>(6, 16);
  std::vector<ClassId> classes = stack->graph.AllClasses();
  size_t i = 0, j = classes.size() / 2;
  for (auto _ : state) {
    ClassId a = classes[i++ % classes.size()];
    ClassId b = classes[j++ % classes.size()];
    benchmark::DoNotOptimize(stack->graph.ExtentSubsumedBy(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["global_classes"] =
      static_cast<double>(stack->graph.class_count());
}
BENCHMARK(BM_SubsumptionQueryCacheEffect);

void BM_SubschemaEvolution(benchmark::State& state) {
  // Table 2's "subschema evolution" row: the translation only creates
  // primed classes for the changed class's subtree *within the view*.
  // Fix a 24-class global chain; evolve through views of growing width.
  const int view_width = static_cast<int>(state.range(0));
  constexpr int kGlobalWidth = 24;
  for (auto _ : state) {
    state.PauseTiming();
    auto stack = std::make_unique<GrownStack>(kGlobalWidth, 0);
    // A narrower view over the chain's prefix.
    std::vector<view::ViewClassSpec> specs;
    for (int i = 0; i < view_width; ++i) {
      specs.push_back(
          {stack->graph.FindClass("C" + std::to_string(i)).value(), ""});
    }
    ViewId narrow = stack->tse.CreateView("Narrow", specs).value();
    size_t classes_before = stack->graph.class_count();
    AddAttribute change;
    change.class_name = "C0";
    change.spec = PropertySpec::Attribute("probe", ValueType::kInt);
    state.ResumeTiming();
    benchmark::DoNotOptimize(stack->tse.ApplyChange(narrow, change));
    state.PauseTiming();
    // Virtual classes created = primed classes for the view subtree only.
    state.counters["classes_created"] =
        static_cast<double>(stack->graph.class_count() - classes_before);
    stack.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["view_width"] = static_cast<double>(view_width);
  state.counters["global_width"] = kGlobalWidth;
}
BENCHMARK(BM_SubschemaEvolution)
    ->Arg(2)
    ->Arg(6)
    ->Arg(12)
    ->Arg(24)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
