// Experiment X-storage (DESIGN.md): sanity throughput of the storage
// substrate standing in for GemStone — record writes, reads, commits
// and recovery of the page/WAL store beneath the TSE object model.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "common/random.h"
#include "storage/record_store.h"

namespace {

using tse::Rng;
using tse::storage::RecordStore;
using tse::storage::RecordStoreOptions;

std::string FreshBase(const char* tag) {
  static int counter = 0;
  auto dir = std::filesystem::temp_directory_path() /
             ("tse_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return (dir / (std::string(tag) + std::to_string(counter++))).string();
}

void Cleanup() {
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              ("tse_bench_" + std::to_string(::getpid())));
}

void BM_RecordPut(benchmark::State& state) {
  auto store = std::move(
      RecordStore::Open(FreshBase("put"), RecordStoreOptions{}).value());
  Rng rng(1);
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Put(key++, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  Cleanup();
}
BENCHMARK(BM_RecordPut)->Arg(64)->Arg(512)->Arg(2048);

void BM_RecordGet(benchmark::State& state) {
  auto store = std::move(
      RecordStore::Open(FreshBase("get"), RecordStoreOptions{}).value());
  const uint64_t n = 10000;
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (uint64_t k = 0; k < n; ++k) store->Put(k, payload).ok();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Get(rng.Uniform(n)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  Cleanup();
}
BENCHMARK(BM_RecordGet)->Arg(64)->Arg(512);

void BM_CommitBatch(benchmark::State& state) {
  auto store = std::move(
      RecordStore::Open(FreshBase("commit"), RecordStoreOptions{}).value());
  const int batch = static_cast<int>(state.range(0));
  std::string payload(128, 'y');
  uint64_t key = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      store->Put(key++, payload).ok();
    }
    benchmark::DoNotOptimize(store->Commit());  // fsync point
  }
  state.SetItemsProcessed(state.iterations() * batch);
  Cleanup();
}
BENCHMARK(BM_CommitBatch)->Arg(1)->Arg(16)->Arg(256);

void BM_RecoveryReplay(benchmark::State& state) {
  // Measure reopening a store whose state lives in the WAL only.
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  std::string base = FreshBase("recover");
  {
    auto store = std::move(
        RecordStore::Open(base, RecordStoreOptions{}).value());
    std::string payload(128, 'z');
    for (uint64_t k = 0; k < n; ++k) store->Put(k, payload).ok();
    store->Commit().ok();
    // No checkpoint: everything must replay from the log.
  }
  for (auto _ : state) {
    auto reopened = RecordStore::Open(base, RecordStoreOptions{});
    benchmark::DoNotOptimize(reopened);
    if (!reopened.ok() || reopened.value()->size() != n) {
      state.SkipWithError("recovery failed");
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  Cleanup();
}
BENCHMARK(BM_RecoveryReplay)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
