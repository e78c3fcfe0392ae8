// Table 1, row "dynamic classification": reclassifying an object under
// object slicing attaches/discards one implementation object; under the
// intersection-class architecture it finds-or-creates an intersection
// class, allocates a record, copies every attribute value and swaps
// identities.
//
// Expected shape (paper): slicing reclassification is O(1) and cheap;
// intersection reclassification costs a full-record copy plus
// occasional class creation, growing with the attribute count.

#include <benchmark/benchmark.h>

#include "objmodel/intersection_store.h"
#include "objmodel/slicing_store.h"

namespace {

using tse::ClassId;
using tse::Oid;
using tse::PropertyDefId;
using tse::objmodel::IntersectionStore;
using tse::objmodel::SlicingStore;
using tse::objmodel::Value;

void BM_SlicingReclassify(benchmark::State& state) {
  const int attrs = static_cast<int>(state.range(0));
  SlicingStore store;
  Oid o = store.CreateObject();
  // The object's base state: `attrs` values in its class-1 slice.
  for (int a = 0; a < attrs; ++a) {
    store.SetValue(o, ClassId(1), PropertyDefId(static_cast<uint64_t>(a)),
                   Value::Int(a))
        .ok();
  }
  const ClassId extra(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.AddSlice(o, extra));
    benchmark::DoNotOptimize(store.RemoveSlice(o, extra));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SlicingReclassify)->Arg(2)->Arg(8)->Arg(32);

void BM_IntersectionReclassify(benchmark::State& state) {
  const int attrs = static_cast<int>(state.range(0));
  IntersectionStore store;
  std::vector<std::string> attr_names;
  for (int a = 0; a < attrs; ++a) {
    attr_names.push_back("a" + std::to_string(a));
  }
  ClassId base = store.DefineClass("Base", {}, attr_names).value();
  ClassId extra = store.DefineClass("Extra", {}, {"e"}).value();
  Oid o = store.CreateObject(base).value();
  for (int a = 0; a < attrs; ++a) {
    store.SetValue(o, attr_names[static_cast<size_t>(a)], Value::Int(a)).ok();
  }
  for (auto _ : state) {
    // Each round trip copies the record twice and swaps identities.
    benchmark::DoNotOptimize(store.AddType(o, extra));
    benchmark::DoNotOptimize(store.RemoveType(o, extra));
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["copies"] =
      static_cast<double>(store.Stats().reclassification_copies);
}
BENCHMARK(BM_IntersectionReclassify)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
