// Experiment X-chain (DESIGN.md; the paper's Section 9 future-work
// concern): updates on a virtual class propagate through the chain of
// dependent classes to the origin base classes, and reads resolve
// through the derivation chain. We sweep the chain depth — each level
// one more refine class stacked by repeated add_attribute changes —
// and measure create / set / extent-evaluation costs.
//
// Expected shape: cost grows with derivation depth (linearly here),
// which is exactly why the paper calls for update-propagation
// optimization as future work.

#include <benchmark/benchmark.h>

#include <memory>

#include "evolution/tse_manager.h"
#include "update/update_engine.h"

namespace {

using namespace tse;
using namespace tse::evolution;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

struct DeepStack {
  schema::SchemaGraph graph;
  objmodel::SlicingStore store;
  view::ViewManager views;
  TseManager tse;
  update::UpdateEngine db;
  ClassId leaf;  ///< The deepest refine class (view's "Item").

  explicit DeepStack(int depth)
      : views(&graph),
        tse(&graph, &store, &views),
        db(&graph, &store, update::ValueClosurePolicy::kAllow) {
    ClassId item =
        graph
            .AddBaseClass("Item", {},
                          {PropertySpec::Attribute("id", ValueType::kInt)})
            .value();
    for (int i = 0; i < 200; ++i) {
      db.Create(item, {{"id", Value::Int(i)}}).value();
    }
    ViewId vs = tse.CreateView("VS", {{item, ""}}).value();
    for (int d = 0; d < depth; ++d) {
      AddAttribute change;
      change.class_name = "Item";
      change.spec =
          PropertySpec::Attribute("f" + std::to_string(d), ValueType::kInt);
      vs = tse.ApplyChange(vs, change).value();
    }
    leaf = views.GetView(vs).value()->Resolve("Item").value();
  }
};

void BM_CreateThroughChain(benchmark::State& state) {
  DeepStack stack(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.db.Create(stack.leaf, {}));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CreateThroughChain)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_SetThroughChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  DeepStack stack(depth);
  Oid target = stack.db.Create(stack.leaf, {}).value();
  const std::string attr = "f" + std::to_string(depth - 1);
  int64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stack.db.Set(target, stack.leaf, attr, Value::Int(++v)));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SetThroughChain)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_ExtentThroughChain(benchmark::State& state) {
  DeepStack stack(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.db.extents().Extent(stack.leaf));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ExtentThroughChain)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_ReadThroughChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  DeepStack stack(depth);
  Oid target = stack.db.Create(stack.leaf, {}).value();
  for (auto _ : state) {
    // Resolving `id` at the leaf walks the whole derivation chain.
    benchmark::DoNotOptimize(
        stack.db.accessor().Read(target, stack.leaf, "id"));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ReadThroughChain)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
