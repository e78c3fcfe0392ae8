#include "storage/record_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common/random.h"
#include "storage/pager.h"

namespace tse::storage {
namespace {

class RecordStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tse_rs_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    base_ = (dir_ / "store").string();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<RecordStore> MustOpen() {
    auto r = RecordStore::Open(base_, RecordStoreOptions{});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  std::filesystem::path dir_;
  std::string base_;
};

TEST_F(RecordStoreTest, PutGetDelete) {
  auto store = MustOpen();
  ASSERT_TRUE(store->Put(1, "alpha").ok());
  ASSERT_TRUE(store->Put(2, "beta").ok());
  EXPECT_EQ(store->Get(1).value(), "alpha");
  EXPECT_EQ(store->Get(2).value(), "beta");
  EXPECT_TRUE(store->Get(3).status().IsNotFound());
  ASSERT_TRUE(store->Delete(1).ok());
  EXPECT_TRUE(store->Get(1).status().IsNotFound());
  EXPECT_TRUE(store->Delete(1).IsNotFound());
  EXPECT_EQ(store->size(), 1u);
}

TEST_F(RecordStoreTest, OverwriteReplacesPayload) {
  auto store = MustOpen();
  ASSERT_TRUE(store->Put(7, "small").ok());
  ASSERT_TRUE(store->Put(7, std::string(1000, 'x')).ok());
  EXPECT_EQ(store->Get(7).value(), std::string(1000, 'x'));
  ASSERT_TRUE(store->Put(7, "tiny").ok());
  EXPECT_EQ(store->Get(7).value(), "tiny");
  EXPECT_EQ(store->size(), 1u);
}

TEST_F(RecordStoreTest, RecordLargerThanPageRejected) {
  auto store = MustOpen();
  EXPECT_EQ(store->Put(1, std::string(kPageSize, 'x')).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RecordStoreTest, PersistsAcrossCheckpointReopen) {
  {
    auto store = MustOpen();
    for (uint64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE(store->Put(k, "value-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  auto store = MustOpen();
  EXPECT_EQ(store->size(), 500u);
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(store->Get(k).value(), "value-" + std::to_string(k));
  }
}

TEST_F(RecordStoreTest, CommittedWalRecoversWithoutCheckpoint) {
  {
    auto store = MustOpen();
    ASSERT_TRUE(store->Put(1, "durable").ok());
    ASSERT_TRUE(store->Commit().ok());
    // Simulated crash: no Checkpoint, pages never flushed.
  }
  auto store = MustOpen();
  EXPECT_EQ(store->Get(1).value(), "durable");
}

TEST_F(RecordStoreTest, UncommittedTailIsDropped) {
  {
    auto store = MustOpen();
    ASSERT_TRUE(store->Put(1, "committed").ok());
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->Put(2, "lost").ok());
    // Crash before the second commit.
  }
  auto store = MustOpen();
  EXPECT_EQ(store->Get(1).value(), "committed");
  EXPECT_TRUE(store->Get(2).status().IsNotFound());
}

TEST_F(RecordStoreTest, DeleteSurvivesRecovery) {
  {
    auto store = MustOpen();
    ASSERT_TRUE(store->Put(1, "a").ok());
    ASSERT_TRUE(store->Put(2, "b").ok());
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->Delete(1).ok());
    ASSERT_TRUE(store->Commit().ok());
  }
  auto store = MustOpen();
  EXPECT_TRUE(store->Get(1).status().IsNotFound());
  EXPECT_EQ(store->Get(2).value(), "b");
}

TEST_F(RecordStoreTest, ScanVisitsEverything) {
  auto store = MustOpen();
  for (uint64_t k = 10; k < 20; ++k) {
    ASSERT_TRUE(store->Put(k, std::to_string(k * k)).ok());
  }
  std::map<uint64_t, std::string> seen;
  ASSERT_TRUE(store
                  ->Scan([&](uint64_t k, const std::string& v) {
                    seen[k] = v;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen[12], "144");
}

TEST_F(RecordStoreTest, ManyRecordsSpanPages) {
  auto store = MustOpen();
  const std::string big(900, 'p');
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(store->Put(k, big).ok());
  }
  EXPECT_GT(store->page_count(), 20u);
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(store->Get(k).value(), big);
  }
}

TEST_F(RecordStoreTest, NonDurableModeSkipsWal) {
  RecordStoreOptions opts;
  opts.durable = false;
  auto r = RecordStore::Open(base_, opts);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).value();
  ASSERT_TRUE(store->Put(1, "x").ok());
  ASSERT_TRUE(store->Commit().ok());
  EXPECT_FALSE(std::filesystem::exists(base_ + ".wal"));
}

// Randomized crash-recovery property: any prefix of committed batches
// must be recoverable; the model tracks the last committed state.
TEST_F(RecordStoreTest, RandomizedCrashRecovery) {
  tse::Rng rng(99);
  std::map<uint64_t, std::string> committed_model;
  std::map<uint64_t, std::string> pending_model;
  for (int round = 0; round < 5; ++round) {
    {
      auto store = MustOpen();
      // The store must currently match the committed model.
      ASSERT_EQ(store->size(), committed_model.size());
      for (const auto& [k, v] : committed_model) {
        ASSERT_EQ(store->Get(k).value(), v);
      }
      pending_model = committed_model;
      int batches = 1 + static_cast<int>(rng.Uniform(4));
      for (int b = 0; b < batches; ++b) {
        int ops = 1 + static_cast<int>(rng.Uniform(30));
        for (int i = 0; i < ops; ++i) {
          uint64_t key = rng.Uniform(50);
          if (rng.Percent(70) || !pending_model.count(key)) {
            std::string val = rng.Ident(1 + rng.Uniform(300));
            ASSERT_TRUE(store->Put(key, val).ok());
            pending_model[key] = val;
          } else {
            ASSERT_TRUE(store->Delete(key).ok());
            pending_model.erase(key);
          }
        }
        ASSERT_TRUE(store->Commit().ok());
        committed_model = pending_model;
      }
      // Half the rounds also checkpoint; then crash (drop the store).
      if (rng.Percent(50)) ASSERT_TRUE(store->Checkpoint().ok());
      // A few trailing uncommitted ops that must vanish.
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(store->Put(100 + i, "uncommitted").ok());
      }
    }
  }
  auto store = MustOpen();
  ASSERT_EQ(store->size(), committed_model.size());
  for (const auto& [k, v] : committed_model) {
    ASSERT_EQ(store->Get(k).value(), v);
  }
}


// One record per conceptual object (packed layout) against one record
// per implementation slice (object slicing), both reopened cold behind
// a tiny page cache: point-reading whole objects must cost at least 3x
// fewer disk page reads packed than sliced.
TEST_F(RecordStoreTest, PackedRecordsCutColdPageReadsPerObject) {
  constexpr size_t kSlices = 6;
  constexpr size_t kObjects = 1000;
  constexpr size_t kAccesses = 400;
  const std::string value(48, 'x');  // one attribute's stored payload
  RecordStoreOptions build;
  build.durable = false;  // throwaway stores: no WAL
  {
    // Slice-major (arena order): one object's state spans kSlices
    // far-apart pages, as the slice arenas age on disk.
    auto sliced = RecordStore::Open(base_ + "_sliced", build).value();
    for (size_t d = 0; d < kSlices; ++d) {
      for (size_t i = 0; i < kObjects; ++i) {
        ASSERT_TRUE(sliced->Put(d * kObjects + i, value).ok());
      }
    }
    ASSERT_TRUE(sliced->Checkpoint().ok());
    std::string packed_value;
    for (size_t d = 0; d < kSlices; ++d) packed_value += value;
    auto packed = RecordStore::Open(base_ + "_packed", build).value();
    for (size_t i = 0; i < kObjects; ++i) {
      ASSERT_TRUE(packed->Put(i, packed_value).ok());
    }
    ASSERT_TRUE(packed->Checkpoint().ok());
  }

  RecordStoreOptions cold = build;
  cold.pager.cache_capacity = 16;
  auto reads_per_access = [&](const std::string& path,
                              size_t records_per_object) {
    auto rs = RecordStore::Open(path, cold).value();
    ReadAttributionScope all;
    uint64_t rng = 7;
    for (size_t i = 0; i < kAccesses; ++i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t obj = (rng >> 33) % kObjects;
      for (size_t d = 0; d < records_per_object; ++d) {
        EXPECT_TRUE(rs->Get(d * kObjects + obj).ok());
      }
    }
    return static_cast<double>(all.reads()) / kAccesses;
  };
  const double sliced = reads_per_access(base_ + "_sliced", kSlices);
  const double packed = reads_per_access(base_ + "_packed", 1);
  ASSERT_GT(packed, 0);
  std::cout << "cold page reads per object: sliced " << sliced << ", packed "
            << packed << ", ratio " << sliced / packed << "x\n";
  EXPECT_GE(sliced / packed, 3.0);
}

}  // namespace
}  // namespace tse::storage
