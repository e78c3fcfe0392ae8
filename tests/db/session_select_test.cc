// Session::Select plans an ad-hoc select like a select class: an
// `attr op literal` predicate takes the index or the arena pass, and
// anything else the classic per-object filter. Whatever the arm, the
// result and the status must be exactly those of a classic
// ObjectAccessor::Filter over the same extent.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <tse/db.h>
#include <tse/query.h>
#include <tse/session.h>

#include "algebra/object_accessor.h"
#include "obs/metrics.h"

namespace tse {
namespace {

using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

constexpr int kBig = 100;   // above SelectPlanner::kBatchMinSource
constexpr int kSmall = 10;  // below it

class SessionSelectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions options;
    options.closure_policy = update::ValueClosurePolicy::kAllow;
    db_ = Db::Open(options).value();
    ClassId owner =
        db_->AddBaseClass("Owner", {},
                          {PropertySpec::Attribute("rank", ValueType::kInt)})
            .value();
    ClassId big =
        db_->AddBaseClass("Big", {},
                          {PropertySpec::Attribute("k", ValueType::kInt),
                           PropertySpec::Attribute("v", ValueType::kInt),
                           PropertySpec::Attribute("m", ValueType::kInt),
                           PropertySpec::RefAttribute("owner", owner)})
            .value();
    ClassId small =
        db_->AddBaseClass("Small", {},
                          {PropertySpec::Attribute("v", ValueType::kInt)})
            .value();
    db_->CreateIndex("Big", "k", index::IndexKind::kHash).value();
    db_->CreateView("V", {{owner, ""}, {big, ""}, {small, ""}}).value();
    session_ = db_->OpenSession("V").value();

    std::vector<Oid> owners;
    for (int i = 0; i < 4; ++i) {
      owners.push_back(
          session_->Create("Owner", {{"rank", Value::Int(i)}}).value());
    }
    for (int i = 0; i < kBig; ++i) {
      // m mixes int and string cells from the middle of the extent on.
      const Value m = i < kBig / 2 ? Value::Int(i) : Value::Str("s");
      big_.push_back(session_
                         ->Create("Big", {{"k", Value::Int(i % 20)},
                                          {"v", Value::Int(i)},
                                          {"m", m},
                                          {"owner", Value::Ref(owners[i % 4])}})
                         .value());
    }
    for (int i = 0; i < kSmall; ++i) {
      session_->Create("Small", {{"v", Value::Int(i)}}).value();
    }
  }

  /// Selects through `session` and compares with a classic filter over
  /// the session's extent of `class_name`. Returns the arm that ran
  /// ("index", "batch" or "classic"; "" when metrics are compiled out).
  std::string ExpectClassicResult(Session* session,
                                  const std::string& class_name,
                                  const std::string& predicate) {
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Instance().Snapshot();
    Result<std::vector<Oid>> got = session->Select(class_name, predicate);
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Instance().Snapshot().DeltaSince(before);

    ClassId cls = session->Resolve(class_name).value();
    std::vector<Oid> extent = session->Extent(class_name).value();
    auto pred = objmodel::ParseExpr(predicate).value();
    algebra::ObjectAccessor classic(&db_->schema(), &db_->store());
    std::vector<Oid> want;
    Status want_status =
        classic.Filter(*pred, cls, extent, std::nullopt, &want);
    EXPECT_EQ(got.ok(), want_status.ok())
        << class_name << " where " << predicate << ": "
        << (got.ok() ? want_status : got.status()).ToString();
    if (got.ok() && want_status.ok()) {
      EXPECT_EQ(got.value(), want) << class_name << " where " << predicate;
    } else if (!got.ok() && !want_status.ok()) {
      EXPECT_EQ(got.status().ToString(), want_status.ToString());
    }

    for (const char* arm : {"index", "batch"}) {
      const std::string counter = std::string("algebra.plan.") + arm + "_scan";
      if (delta.counters.count(counter) != 0) return arm;
    }
    return delta.counters.count("algebra.plan.full_scan") != 0 ? "classic"
                                                               : "";
  }

  /// The arm `expected`, or "" when metrics are compiled out.
  static std::string Arm(const std::string& expected) {
#ifndef TSE_OBS_DISABLE
    return expected;
#else
    (void)expected;
    return "";
#endif
  }

  std::unique_ptr<Db> db_;
  std::unique_ptr<Session> session_;
  std::vector<Oid> big_;
};

TEST_F(SessionSelectTest, IndexedEqualityTakesTheIndexArm) {
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "k == 3"),
            Arm("index"));
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "3 == k"),
            Arm("index"));
  EXPECT_EQ(session_->Select("Big", "k == 3").value().size(),
            static_cast<size_t>(kBig / 20));
}

TEST_F(SessionSelectTest, UnindexedRangeScansTheArenaOnlyWhenLarge) {
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "v >= 50"),
            Arm("batch"));
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "v < 7"),
            Arm("batch"));
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Small", "v >= 5"),
            Arm("classic"));
}

TEST_F(SessionSelectTest, MixedCellsFailLikeTheClassicFilter) {
  // The first string cell fails the ordering compare on both arms.
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "m >= 3"),
            Arm("batch"));
  EXPECT_FALSE(session_->Select("Big", "m >= 3").ok());
  // Equality compares across types without error.
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "m == \"s\""),
            Arm("batch"));
}

TEST_F(SessionSelectTest, PathsAndMethodsStayClassic) {
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "owner.rank >= 2"),
            Arm("classic"));
  session_->Apply("add_method high = v >= 90 to Big").value();
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "high == true"),
            Arm("classic"));
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "v + 1 > 50"),
            Arm("classic"));
}

TEST_F(SessionSelectTest, UnattachedSlicesReadNull) {
  auto pinned = db_->OpenSession("V").value();
  session_->Apply("add_attribute x:int to Big").value();
  // Only every third object gets x, so only those attach the new slice.
  // Writing from the highest oid down attaches the slices out of oid
  // order.
  for (size_t i = big_.size(); i-- > 0;) {
    if (i % 3 != 0) continue;
    ASSERT_TRUE(session_->Set(big_[i], "Big", "x", Value::Int(i % 7)).ok());
  }
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "x == 3"),
            Arm("batch"));
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "x != 3"),
            Arm("batch"));
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "x == null"),
            Arm("batch"));
  // Null cannot be ordered: the first unattached object fails the scan.
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "x >= 0"),
            Arm("batch"));
  EXPECT_FALSE(session_->Select("Big", "x >= 0").ok());

  // A session still pinned at version 1 selects over the same objects
  // through its own classes, and cannot name x.
  EXPECT_EQ(pinned->view_version(), 1);
  EXPECT_EQ(ExpectClassicResult(pinned.get(), "Big", "v >= 50"),
            Arm("batch"));
  EXPECT_EQ(ExpectClassicResult(pinned.get(), "Big", "k == 4"), Arm("index"));
  EXPECT_FALSE(pinned->Select("Big", "x == 3").ok());
}

// Planned selects run under the extent evaluator's shared lock, so
// sessions select on every arm at once while another session writes.
TEST_F(SessionSelectTest, ConcurrentSelectsBesideAWriter) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto w = db_->OpenSession("V").value();
    for (int i = 0; !stop.load(); ++i) {
      ASSERT_TRUE(
          w->Set(big_[i % big_.size()], "Big", "v", Value::Int(i % 97)).ok());
    }
  });
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      auto r = db_->OpenSession("V").value();
      for (int i = 0; i < 200; ++i) {
        for (const char* pred : {"k == 3", "v >= 50", "owner.rank >= 2"}) {
          if (!r->Select("Big", pred).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ExpectClassicResult(session_.get(), "Big", "v >= 50"),
            Arm("batch"));
}

}  // namespace
}  // namespace tse
