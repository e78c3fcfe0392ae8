// Table 1, row "#classes": under the intersection-class architecture
// every distinct type combination an object takes materializes a hidden
// class — the population can grow toward 2^N_user_classes. Object
// slicing adds no classes, ever. We sweep the number of mixin classes
// with objects taking random type subsets.
//
// Expected shape (paper): intersection class count explodes
// combinatorially with the mixin count; slicing stays at the user-
// defined class count.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "objmodel/intersection_store.h"
#include "objmodel/slicing_store.h"

namespace {

using tse::ClassId;
using tse::Oid;
using tse::Rng;
using tse::objmodel::IntersectionStore;
using tse::objmodel::SlicingStore;

constexpr int kObjects = 2000;

void BM_IntersectionClassGrowth(benchmark::State& state) {
  const int mixins = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(42);
    IntersectionStore store;
    ClassId root = store.DefineClass("Root", {}, {"r"}).value();
    std::vector<ClassId> classes;
    for (int c = 0; c < mixins; ++c) {
      classes.push_back(store
                            .DefineClass("M" + std::to_string(c), {root},
                                         {"a" + std::to_string(c)})
                            .value());
    }
    for (int i = 0; i < kObjects; ++i) {
      // Each object takes a random nonempty subset of the mixins.
      uint64_t mask = 1 + rng.Uniform((1ULL << mixins) - 1);
      int first = __builtin_ctzll(mask);
      Oid o = store.CreateObject(classes[static_cast<size_t>(first)]).value();
      for (int c = first + 1; c < mixins; ++c) {
        if (mask & (1ULL << c)) {
          benchmark::DoNotOptimize(
              store.AddType(o, classes[static_cast<size_t>(c)]));
        }
      }
    }
    auto stats = store.Stats();
    state.counters["user_classes"] = static_cast<double>(stats.user_classes);
    state.counters["hidden_classes"] =
        static_cast<double>(stats.intersection_classes);
    state.counters["copies"] =
        static_cast<double>(stats.reclassification_copies);
  }
}
BENCHMARK(BM_IntersectionClassGrowth)
    ->DenseRange(2, 10)
    ->Unit(benchmark::kMillisecond);

void BM_SlicingClassGrowth(benchmark::State& state) {
  const int mixins = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(42);
    SlicingStore store;
    for (int i = 0; i < kObjects; ++i) {
      uint64_t mask = 1 + rng.Uniform((1ULL << mixins) - 1);
      Oid o = store.CreateObject();
      for (int c = 0; c < mixins; ++c) {
        if (mask & (1ULL << c)) {
          benchmark::DoNotOptimize(
              store.AddSlice(o, ClassId(static_cast<uint64_t>(1 + c))));
        }
      }
    }
    // All classes are user classes; nothing hidden is ever created.
    state.counters["user_classes"] = static_cast<double>(mixins) + 1;
    state.counters["hidden_classes"] = 0;
    state.counters["copies"] = 0;
  }
}
BENCHMARK(BM_SlicingClassGrowth)
    ->DenseRange(2, 10)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
