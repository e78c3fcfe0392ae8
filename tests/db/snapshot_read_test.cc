// Snapshot-first read API (DESIGN.md §13): MVCC reads behind
// tse::Snapshot must be repeatable, lock-free, and vacuum-safe.
//
//   1. a snapshot pins the commit epoch: later writes are invisible,
//      and re-reading through one snapshot always returns the same
//      answer — even with a writer committing concurrently,
//   2. the snapshot read path takes zero object locks: a 95/5
//      read/write mix next to a dedicated writer drives the
//      storage.lock.waits / storage.lock.timeouts deltas to exactly
//      zero (nobody ever blocks on anybody), and a pure snapshot-read
//      phase leaves storage.lock.acquires itself untouched,
//   3. the vacuum never reclaims a live epoch: chains trim only below
//      the oldest open snapshot, and a released epoch older than the
//      vacuum floor is refused by OpenSnapshotAt.
//   4. a committing writer does not stretch the snapshot-read tail:
//      4-reader p99 beside it stays within 1.5x of the writer-free p99.
//
// Lock-manager counter assertions compile out under TSE_OBS_DISABLE;
// the behavioural ones always run. The tail check is wall-clock, so
// ctest runs this suite serially, and sanitizer builds skip its bound.
//
// Runs under -DTSE_SANITIZE=thread in CI: TSan proves the snapshot
// path is latch-clean against concurrent committers and the vacuum.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <tse/db.h>
#include <tse/session.h>
#include <tse/snapshot.h>
#include "common/random.h"
#include "obs/metrics.h"

namespace tse {
namespace {

using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

struct Fixture {
  std::unique_ptr<Db> db;
  std::vector<Oid> oids;

  explicit Fixture(DbOptions options = {}) {
    options.closure_policy = update::ValueClosurePolicy::kAllow;
    db = Db::Open(options).value();
    ClassId person =
        db->AddBaseClass("Person", {},
                         {PropertySpec::Attribute("name", ValueType::kString),
                          PropertySpec::Attribute("age", ValueType::kInt)})
            .value();
    ClassId student =
        db->AddBaseClass("Student", {person},
                         {PropertySpec::Attribute("gpa", ValueType::kReal)})
            .value();
    db->CreateView("Main", {{person, "Person"}, {student, "Student"}}).value();
    auto seeder = db->OpenSession("Main").value();
    for (int i = 0; i < 32; ++i) {
      oids.push_back(
          seeder
              ->Create(i % 2 ? "Student" : "Person",
                       {{"name", Value::Str("seed" + std::to_string(i))},
                        {"age", Value::Int(20 + i)}})
              .value());
    }
  }
};

uint64_t CounterDelta(const obs::MetricsSnapshot& delta,
                      const std::string& name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

TEST(SnapshotRead, PinsEpochAndStaysRepeatable) {
  Fixture fx;
  auto session = fx.db->OpenSession("Main").value();
  Oid subject = fx.oids[0];

  auto snap = session->GetSnapshot().value();
  uint64_t pinned = snap->epoch();
  EXPECT_EQ(pinned, fx.db->visible_epoch());
  EXPECT_EQ(snap->Get(subject, "Person", "age").value(), Value::Int(20));

  // Commit a pile of writes after the snapshot was pinned.
  ASSERT_TRUE(session->Set(subject, "Person", "age", Value::Int(99)).ok());
  Oid newcomer = session
                     ->Create("Person", {{"name", Value::Str("new")},
                                         {"age", Value::Int(1)}})
                     .value();
  ASSERT_TRUE(session->Delete(fx.oids[2]).ok());

  // The snapshot still answers from its epoch — value, extent
  // membership, and select results all predate the writes.
  EXPECT_EQ(snap->Get(subject, "Person", "age").value(), Value::Int(20));
  auto extent = snap->Extent("Person").value();
  EXPECT_EQ(std::ranges::count(extent, newcomer), 0);
  EXPECT_EQ(std::ranges::count(extent, fx.oids[2]), 1);
  auto young = snap->Select("Person", "age <= 25").value();
  EXPECT_NE(std::find(young.begin(), young.end(), subject), young.end());

  // Re-reads agree with themselves (repeatable), and a fresh snapshot
  // sees the new world.
  EXPECT_EQ(snap->Get(subject, "Person", "age").value(), Value::Int(20));
  auto fresh = session->GetSnapshot().value();
  EXPECT_GT(fresh->epoch(), pinned);
  EXPECT_EQ(fresh->Get(subject, "Person", "age").value(), Value::Int(99));
  EXPECT_EQ(std::ranges::count(fresh->Extent("Person").value(), newcomer), 1);
  EXPECT_EQ(std::ranges::count(fresh->Extent("Person").value(), fx.oids[2]), 0);

  // Uncommitted transaction state is invisible to every snapshot.
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Set(subject, "Person", "age", Value::Int(7)).ok());
  auto during_txn = session->GetSnapshot().value();
  EXPECT_EQ(during_txn->Get(subject, "Person", "age").value(), Value::Int(99));
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_EQ(during_txn->Get(subject, "Person", "age").value(), Value::Int(99));
  EXPECT_EQ(session->GetSnapshot().value()->Get(subject, "Person", "age")
                .value(),
            Value::Int(7));
}

TEST(SnapshotRead, MixedWorkloadNeverBlocksAndReadsTakeNoLocks) {
  Fixture fx;
  obs::MetricsSnapshot before = obs::MetricsRegistry::Instance().Snapshot();

  // A dedicated transactional writer hammers strict-2PL commits while
  // reader threads run a 95/5 snapshot-read / session-write mix. The
  // writes take object locks (storage.lock.acquires grows) — but
  // nobody ever *waits*: snapshot reads take no object locks at all,
  // so the lock manager never sees contention.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hard_failures{0};
  std::thread writer([&] {
    auto session = fx.db->OpenSession("Main").value();
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Oid target = fx.oids[i % fx.oids.size()];
      bool ok = session->Begin().ok() &&
                session->Set(target, "Person", "age", Value::Int(100 + i))
                    .ok() &&
                session->Commit().ok();
      if (!ok) hard_failures.fetch_add(1);
      ++i;
    }
  });

  constexpr int kReaders = 4;
  constexpr int kOpsPerReader = 500;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto session = fx.db->OpenSession("Main").value();
      for (int i = 0; i < kOpsPerReader; ++i) {
        if (i % 20 == 19) {  // the 5%: a session write
          Oid target = fx.oids[(r * kOpsPerReader + i) % fx.oids.size()];
          (void)session->Set(target, "Person", "name",
                             Value::Str("r" + std::to_string(r)));
          continue;
        }
        auto snap = session->GetSnapshot();
        if (!snap.ok()) {
          hard_failures.fetch_add(1);
          continue;
        }
        Oid target = fx.oids[i % fx.oids.size()];
        // Two reads through one snapshot must agree exactly, writer or
        // no writer.
        auto first = snap.value()->Get(target, "Person", "age");
        auto second = snap.value()->Get(target, "Person", "age");
        if (!first.ok() || !second.ok() ||
            !(first.value() == second.value())) {
          hard_failures.fetch_add(1);
        }
        if (!snap.value()->Extent("Student").ok()) hard_failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(hard_failures.load(), 0u);
#ifndef TSE_OBS_DISABLE
  obs::MetricsSnapshot mixed =
      obs::MetricsRegistry::Instance().Snapshot().DeltaSince(before);
  EXPECT_GT(CounterDelta(mixed, "storage.lock.acquires"), 0u);
  EXPECT_EQ(CounterDelta(mixed, "storage.lock.waits"), 0u);
  EXPECT_EQ(CounterDelta(mixed, "storage.lock.timeouts"), 0u);
  EXPECT_GT(CounterDelta(mixed, "db.snapshot.reads"), 0u);
#endif

  // Pure snapshot-read phase: the lock manager is not touched at all.
  auto session = fx.db->OpenSession("Main").value();
  auto snap = session->GetSnapshot().value();
  obs::MetricsSnapshot quiesced = obs::MetricsRegistry::Instance().Snapshot();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(snap->Get(fx.oids[i % fx.oids.size()], "Person", "age").ok());
    ASSERT_TRUE(snap->Extent("Person").ok());
  }
#ifndef TSE_OBS_DISABLE
  obs::MetricsSnapshot read_only =
      obs::MetricsRegistry::Instance().Snapshot().DeltaSince(quiesced);
  EXPECT_EQ(CounterDelta(read_only, "storage.lock.acquires"), 0u);
  EXPECT_EQ(CounterDelta(read_only, "storage.lock.waits"), 0u);
  EXPECT_EQ(CounterDelta(read_only, "storage.lock.timeouts"), 0u);
#endif
}

/// One run of `readers` threads doing epoch-bound snapshot Gets over a
/// fresh 256-object pool, optionally beside a strict-2PL writer
/// committing continuously.
struct ReadTail {
  std::vector<double> latencies_us;
  uint64_t failures = 0;
  uint64_t writer_commits = 0;
  uint64_t lock_acquires = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_timeouts = 0;
};

ReadTail RunSnapshotReaders(int readers, bool with_writer) {
  constexpr int kPoolSize = 256;
  constexpr uint64_t kOpsPerReader = 2000;
  constexpr int kRepinEvery = 256;  // reads per snapshot before re-pinning
  // With a writer, readers keep measuring until it has landed this many
  // commits beside them: on a loaded box a fixed op count can finish
  // before the writer is even scheduled.
  constexpr uint64_t kMinWriterCommits = 8;

  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  auto db = Db::Open(options).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("name", ValueType::kString),
                        PropertySpec::Attribute("score", ValueType::kInt)})
          .value();
  db->CreateView("Main", {{person, ""}}).value();
  std::vector<Oid> pool;
  {
    auto seeder = db->OpenSession("Main").value();
    for (int i = 0; i < kPoolSize; ++i) {
      pool.push_back(
          seeder
              ->Create("Person", {{"name", Value::Str("p" + std::to_string(i))},
                                  {"score", Value::Int(i)}})
              .value());
    }
  }
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < readers; ++i) {
    sessions.push_back(db->OpenSession("Main").value());
  }

  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> writer_commits{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop_writer{false};
  std::vector<std::vector<double>> latencies(readers);
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      auto session = db->OpenSession("Main").value();
      Rng rng(7);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t i = 0;
      while (!stop_writer.load(std::memory_order_relaxed)) {
        Oid target = pool[rng.Uniform(pool.size())];
        bool ok = session->Begin().ok() &&
                  session->Set(target, "Person", "score",
                               Value::Int(static_cast<int64_t>(++i)))
                      .ok() &&
                  session->Commit().ok();
        (ok ? writer_commits : failures).fetch_add(1);
        // A hot but not latch-saturating writer. Busy spin rather than
        // sleep_for: timer slack rounds a 50us sleep up to a scheduler
        // tick, which would starve the writer.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(50);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
    });
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      Session& s = *sessions[t];
      Rng rng(1000 + t);
      auto& lat = latencies[t];
      lat.reserve(kOpsPerReader);
      auto snap = s.GetSnapshot().value();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t max_ops = kOpsPerReader * 64;
      for (uint64_t op = 0;
           op < kOpsPerReader ||
           (with_writer && op < max_ops &&
            writer_commits.load(std::memory_order_relaxed) < kMinWriterCommits);
           ++op) {
        if (op % kRepinEvery == kRepinEvery - 1) {
          auto next = s.GetSnapshot();
          if (next.ok()) {
            snap = std::move(next).value();
          } else {
            failures.fetch_add(1);
          }
        }
        Oid target = pool[rng.Uniform(pool.size())];
        const auto t0 = std::chrono::steady_clock::now();
        bool ok = snap->Get(target, "Person", "score").ok();
        const auto t1 = std::chrono::steady_clock::now();
        if (!ok) failures.fetch_add(1);
        lat.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Instance().Snapshot();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  stop_writer.store(true);
  if (writer.joinable()) writer.join();

  ReadTail r;
  for (auto& lat : latencies) {
    r.latencies_us.insert(r.latencies_us.end(), lat.begin(), lat.end());
  }
  r.failures = failures.load();
  r.writer_commits = writer_commits.load();
  const obs::MetricsSnapshot locks =
      obs::MetricsRegistry::Instance().Snapshot().DeltaSince(before);
  r.lock_acquires = CounterDelta(locks, "storage.lock.acquires");
  r.lock_waits = CounterDelta(locks, "storage.lock.waits");
  r.lock_timeouts = CounterDelta(locks, "storage.lock.timeouts");
  return r;
}

TEST(SnapshotRead, ReadTailBesideAWriterStaysWithinOneAndAHalfX) {
  // Read-only scaling first: 1 to 8 readers never touch the lock
  // manager.
  for (int readers : {1, 2, 4, 8}) {
    const ReadTail r = RunSnapshotReaders(readers, /*with_writer=*/false);
    EXPECT_EQ(r.failures, 0u) << readers << " readers";
#ifndef TSE_OBS_DISABLE
    EXPECT_EQ(r.lock_acquires + r.lock_waits + r.lock_timeouts, 0u)
        << readers << " readers";
#endif
  }
  // Readers hold no locks, so a committing writer must not stretch the
  // snapshot-read tail: 4-reader p99 beside the writer within 1.5x of
  // the writer-free p99, on fresh databases of the same shape. Writer-
  // free and writer runs alternate and pool their samples, so drift in
  // the host's load between two runs does not decide the ratio.
  constexpr int kRounds = 3;
  std::vector<double> alone, beside;
  for (int round = 0; round < kRounds; ++round) {
    for (bool with_writer : {false, true}) {
      ReadTail r = RunSnapshotReaders(4, with_writer);
      EXPECT_EQ(r.failures, 0u) << "round " << round;
      if (with_writer) {
        EXPECT_GT(r.writer_commits, 0u) << "round " << round;
#ifndef TSE_OBS_DISABLE
        EXPECT_EQ(r.lock_waits, 0u) << "round " << round;
#endif
      }
      std::vector<double>& pool = with_writer ? beside : alone;
      pool.insert(pool.end(), r.latencies_us.begin(), r.latencies_us.end());
    }
  }
  auto p99 = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() * 99 / 100];
  };
  const double alone_p99 = p99(alone);
  const double beside_p99 = p99(beside);
  ASSERT_GT(alone_p99, 0);
  const double ratio = beside_p99 / alone_p99;
  std::cout << "snapshot read p99: " << alone_p99 << " us alone, "
            << beside_p99 << " us beside a writer (" << ratio << "x)\n";
  RecordProperty("read_p99_ratio", std::to_string(ratio));
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
  // Sanitizer builds time their own instrumentation, not the engine;
  // there the case still runs readers beside the writer for the race
  // checks.
  EXPECT_LE(ratio, 1.5);
#endif
}

TEST(SnapshotRead, VacuumTrimsBelowLiveEpochOnly) {
  DbOptions options;
  options.vacuum_every = 0;  // drive the vacuum by hand
  Fixture fx(options);
  auto session = fx.db->OpenSession("Main").value();
  Oid subject = fx.oids[0];

  auto pinned = session->GetSnapshot().value();
  uint64_t pinned_epoch = pinned->epoch();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        session->Set(subject, "Person", "age", Value::Int(1000 + i)).ok());
  }
  ASSERT_GT(fx.db->store().version_entry_count(), 0u);

  // Vacuuming with the snapshot open must keep its epoch readable.
  (void)fx.db->VacuumVersions();
  EXPECT_EQ(pinned->Get(subject, "Person", "age").value(), Value::Int(20));
  uint64_t mid_epoch = fx.db->visible_epoch();

  // Releasing the snapshot lets the vacuum reclaim everything up to
  // the live horizon; the dead epoch is then refused outright.
  ViewId view = session->view_id();
  pinned.reset();
  size_t reclaimed = fx.db->VacuumVersions();
  EXPECT_GT(reclaimed, 0u);
  auto reopened = fx.db->OpenSnapshotAt(view, pinned_epoch);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fx.db->OpenSnapshotAt(view, mid_epoch + 1).status().code(),
            StatusCode::kInvalidArgument);  // the future is not readable
  auto current = fx.db->OpenSnapshotAt(view, fx.db->visible_epoch()).value();
  EXPECT_EQ(current->Get(subject, "Person", "age").value(), Value::Int(1049));
}

}  // namespace
}  // namespace tse
