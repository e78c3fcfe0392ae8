// Table 1, rows "#oids for one object" and "storage for managerial
// purpose": the object-slicing architecture pays (1 + N_impl) object
// identifiers plus 2*N_impl link pointers per object, the
// intersection-class architecture pays exactly one oid. We sweep the
// number of classifications per object (k) and report measured bytes.
//
// Expected shape (paper): slicing grows linearly with k, intersection
// stays flat; slicing is never cheaper on this axis.

#include <benchmark/benchmark.h>

#include "objmodel/intersection_store.h"
#include "objmodel/slicing_store.h"

namespace {

using tse::ClassId;
using tse::Oid;
using tse::objmodel::IntersectionStore;
using tse::objmodel::SlicingStore;

constexpr int kObjects = 1000;

void BM_SlicingStorage(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SlicingStore store;
    for (int i = 0; i < kObjects; ++i) {
      Oid o = store.CreateObject();
      for (int c = 0; c < k; ++c) {
        benchmark::DoNotOptimize(store.AddSlice(o, ClassId(1 + c)));
      }
    }
    auto stats = store.Stats();
    state.counters["oids_per_object"] =
        static_cast<double>(stats.total_oids) / kObjects;
    state.counters["mgmt_bytes_per_object"] =
        static_cast<double>(stats.managerial_bytes) / kObjects;
  }
}
BENCHMARK(BM_SlicingStorage)->DenseRange(1, 8)->Unit(benchmark::kMillisecond);

void BM_IntersectionStorage(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    IntersectionStore store;
    ClassId root = store.DefineClass("Root", {}, {"r"}).value();
    std::vector<ClassId> mixins;
    for (int c = 0; c < 8; ++c) {
      mixins.push_back(store
                           .DefineClass("M" + std::to_string(c), {root},
                                        {"a" + std::to_string(c)})
                           .value());
    }
    for (int i = 0; i < kObjects; ++i) {
      Oid o = store.CreateObject(mixins[0]).value();
      for (int c = 1; c < k; ++c) {
        benchmark::DoNotOptimize(store.AddType(o, mixins[c]));
      }
    }
    auto stats = store.Stats();
    state.counters["oids_per_object"] =
        static_cast<double>(stats.total_oids) / stats.objects;
    state.counters["mgmt_bytes_per_object"] =
        static_cast<double>(stats.managerial_bytes) / stats.objects;
    state.counters["hidden_classes"] =
        static_cast<double>(stats.intersection_classes);
  }
}
BENCHMARK(BM_IntersectionStorage)
    ->DenseRange(1, 8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
