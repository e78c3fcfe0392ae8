// Table 1, row "performance for queries": object slicing clusters the
// slices of one class together, so a select over that class's own
// attribute scans a dense arena; but reading an *inherited* attribute
// chases pointers from the conceptual object to the ancestor slice.
// The intersection-class layout stores all values contiguously per
// object: inherited reads are direct, while scans stride over fatter
// records spread across every (sub)class.
//
// Expected shape (paper): slicing wins the attribute-predicate scan;
// intersection wins inherited-attribute access.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "objmodel/intersection_store.h"
#include "objmodel/slicing_store.h"

namespace {

using tse::ClassId;
using tse::Oid;
using tse::PropertyDefId;
using tse::Rng;
using tse::objmodel::IntersectionStore;
using tse::objmodel::SlicingStore;
using tse::objmodel::Value;

// Schema: Base(b0..b7) <- Derived(d0). Objects are Derived; queries
// either scan Derived's own attribute or read an inherited one.
const ClassId kBase(1);
const ClassId kDerived(2);
const PropertyDefId kInherited(10);  // defined at Base
const PropertyDefId kOwn(20);        // defined at Derived

void FillSlicing(SlicingStore* store, int n, std::vector<Oid>* oids) {
  Rng rng(7);
  for (int i = 0; i < n; ++i) {
    Oid o = store->CreateObject();
    store->SetValue(o, kBase, kInherited,
                    Value::Int(static_cast<int64_t>(rng.Uniform(1000))))
        .ok();
    store->SetValue(o, kDerived, kOwn,
                    Value::Int(static_cast<int64_t>(rng.Uniform(1000))))
        .ok();
    oids->push_back(o);
  }
}

void FillIntersection(IntersectionStore* store, int n,
                      std::vector<Oid>* oids, ClassId* derived) {
  Rng rng(7);
  ClassId base = store->DefineClass("Base", {}, {"inh"}).value();
  *derived = store->DefineClass("Derived", {base}, {"own"}).value();
  for (int i = 0; i < n; ++i) {
    Oid o = store->CreateObject(*derived).value();
    store->SetValue(o, "inh",
                    Value::Int(static_cast<int64_t>(rng.Uniform(1000))))
        .ok();
    store->SetValue(o, "own",
                    Value::Int(static_cast<int64_t>(rng.Uniform(1000))))
        .ok();
    oids->push_back(o);
  }
}

void BM_SlicingSelectScan(benchmark::State& state) {
  SlicingStore store;
  std::vector<Oid> oids;
  FillSlicing(&store, static_cast<int>(state.range(0)), &oids);
  for (auto _ : state) {
    int hits = 0;
    // Clustered scan over the Derived arena.
    store.ForEachSlice(kDerived, [&](Oid, const auto& values) {
      auto it = values.find(kOwn.value());
      if (it != values.end() && it->second.AsInt().value() < 500) ++hits;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlicingSelectScan)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_IntersectionSelectScan(benchmark::State& state) {
  IntersectionStore store;
  std::vector<Oid> oids;
  ClassId derived;
  FillIntersection(&store, static_cast<int>(state.range(0)), &oids, &derived);
  for (auto _ : state) {
    int hits = 0;
    store.ForEachMember(derived, [&](Oid, const std::vector<Value>& values) {
      // Layout: [inh, own].
      if (values[1].AsInt().value() < 500) ++hits;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntersectionSelectScan)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_SlicingInheritedRead(benchmark::State& state) {
  SlicingStore store;
  std::vector<Oid> oids;
  FillSlicing(&store, static_cast<int>(state.range(0)), &oids);
  size_t i = 0;
  for (auto _ : state) {
    // Pointer chase: conceptual object -> Base slice.
    Oid o = oids[i++ % oids.size()];
    benchmark::DoNotOptimize(store.GetValue(o, kBase, kInherited));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlicingInheritedRead)->Arg(10000)->Arg(50000);

void BM_IntersectionInheritedRead(benchmark::State& state) {
  IntersectionStore store;
  std::vector<Oid> oids;
  ClassId derived;
  FillIntersection(&store, static_cast<int>(state.range(0)), &oids, &derived);
  size_t i = 0;
  for (auto _ : state) {
    Oid o = oids[i++ % oids.size()];
    benchmark::DoNotOptimize(store.GetValue(o, "inh"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntersectionInheritedRead)->Arg(10000)->Arg(50000);

}  // namespace

BENCHMARK_MAIN();
