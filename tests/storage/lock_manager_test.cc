#include "storage/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace tse::storage {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(TxnId(1), 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(2), 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(TxnId(1), 100, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(TxnId(2), 100, LockMode::kShared));
  EXPECT_EQ(lm.locked_resource_count(), 1u);
}

TEST(LockManagerTest, ExclusiveBlocksOthersUntilTimeout) {
  LockManager lm(std::chrono::milliseconds(30));
  ASSERT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(2), 7, LockMode::kShared).IsAborted());
  EXPECT_TRUE(lm.Acquire(TxnId(2), 7, LockMode::kExclusive).IsAborted());
}

TEST(LockManagerTest, Reentrant) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kShared).ok());
  // Exclusive subsumes shared.
  EXPECT_TRUE(lm.Holds(TxnId(1), 7, LockMode::kShared));
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Holds(TxnId(1), 7, LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeBlockedByOtherReader) {
  LockManager lm(std::chrono::milliseconds(30));
  ASSERT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(TxnId(2), 7, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kExclusive).IsAborted());
}

TEST(LockManagerTest, SecondUpgraderAbortsAtOnce) {
  LockManager lm(std::chrono::milliseconds(2000));
  ASSERT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(TxnId(2), 7, LockMode::kShared).ok());
  std::atomic<bool> upgraded{false};
  std::thread first([&] {
    upgraded = lm.Acquire(TxnId(1), 7, LockMode::kExclusive).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Txn 2 would wait on txn 1's upgrade and txn 1 on txn 2's shared
  // lock: aborted without waiting out the 2 s deadline.
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(lm.Acquire(TxnId(2), 7, LockMode::kExclusive).IsAborted());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
  lm.ReleaseAll(TxnId(2));
  first.join();
  EXPECT_TRUE(upgraded.load());
  EXPECT_TRUE(lm.Holds(TxnId(1), 7, LockMode::kExclusive));
}

TEST(LockManagerTest, NewReaderWaitsBehindPendingUpgrade) {
  LockManager lm(std::chrono::milliseconds(2000));
  ASSERT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(TxnId(2), 7, LockMode::kShared).ok());
  std::thread upgrader([&] {
    EXPECT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kExclusive).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<bool> read{false};
  std::thread reader([&] {
    read = lm.Acquire(TxnId(3), 7, LockMode::kShared).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(read.load());
  lm.ReleaseAll(TxnId(2));
  upgrader.join();
  EXPECT_TRUE(lm.Holds(TxnId(1), 7, LockMode::kExclusive));
  EXPECT_FALSE(read.load());
  lm.ReleaseAll(TxnId(1));
  reader.join();
  EXPECT_TRUE(read.load());
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager lm(std::chrono::milliseconds(2000));
  ASSERT_TRUE(lm.Acquire(TxnId(1), 7, LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = lm.Acquire(TxnId(2), 7, LockMode::kExclusive);
    acquired = s.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(TxnId(1));
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(lm.Holds(TxnId(2), 7, LockMode::kExclusive));
}

TEST(LockManagerTest, ReleaseAllClearsEverything) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(TxnId(1), 1, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(TxnId(1), 2, LockMode::kExclusive).ok());
  lm.ReleaseAll(TxnId(1));
  EXPECT_EQ(lm.locked_resource_count(), 0u);
  EXPECT_FALSE(lm.Holds(TxnId(1), 1, LockMode::kShared));
}

TEST(LockManagerTest, ReleaseUnheldFails) {
  LockManager lm;
  EXPECT_TRUE(lm.Release(TxnId(1), 99).IsNotFound());
}

TEST(LockManagerTest, DeadlockResolvedByTimeout) {
  LockManager lm(std::chrono::milliseconds(50));
  ASSERT_TRUE(lm.Acquire(TxnId(1), 1, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(TxnId(2), 2, LockMode::kExclusive).ok());
  std::atomic<int> aborted{0};
  std::thread t1([&] {
    if (lm.Acquire(TxnId(1), 2, LockMode::kExclusive).IsAborted()) ++aborted;
  });
  std::thread t2([&] {
    if (lm.Acquire(TxnId(2), 1, LockMode::kExclusive).IsAborted()) ++aborted;
  });
  t1.join();
  t2.join();
  EXPECT_GE(aborted.load(), 1);  // at least one side backs off
}

TEST(LockManagerTest, ConcurrentSharedThroughput) {
  LockManager lm;
  constexpr int kThreads = 4;
  constexpr int kOps = 500;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        TxnId txn(static_cast<uint64_t>(t));
        if (!lm.Acquire(txn, i % 13, LockMode::kShared).ok()) ++failures;
        if (!lm.Release(txn, i % 13).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(lm.locked_resource_count(), 0u);
}

}  // namespace
}  // namespace tse::storage
