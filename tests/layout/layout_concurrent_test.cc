// Concurrency surface of the packed-record layout, exercised under
// TSan in CI: sessions write while others point-read and batch-scan
// through the packed layout, and a schema change publishes mid-run.
#include <tse/db.h>

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <tse/query.h>
#include <tse/session.h>

namespace tse {
namespace {

using algebra::ExtentEvaluator;
using algebra::PlannerMode;
using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

DbOptions InMemory() {
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  return options;
}

std::set<Oid> ClassicExtent(Db* db, ClassId cls) {
  ExtentEvaluator cold(&db->schema(), &db->store());
  cold.set_planner_mode(PlannerMode::kForceClassic);
  return *cold.Extent(cls).value();
}

TEST(LayoutConcurrentTest, WritersPointReadersAndScannersShareTheLayout) {
  auto db = Db::Open(InMemory()).value();
  ClassId emp = db->AddBaseClass(
                      "Emp", {},
                      {PropertySpec::Attribute("dept", ValueType::kInt)})
                    .value();
  ClassId d1 =
      db->DefineVirtualClass(
            "D1", algebra::Query::Select(
                      algebra::Query::Class("Emp"),
                      MethodExpr::Eq(MethodExpr::Attr("dept"),
                                     MethodExpr::Lit(Value::Int(1)))))
          .value();
  db->CreateView("V", {{emp, "Emp"}, {d1, "D1"}}).value();
  auto seeder = db->OpenSession("V").value();
  std::vector<Oid> seeded;
  for (int i = 0; i < 32; ++i) {
    seeded.push_back(
        seeder->Create("Emp", {{"dept", Value::Int(i % 4)}}).value());
  }
  ASSERT_TRUE(db->PinLayoutOn(emp).ok());

  std::atomic<bool> failed{false};
  auto writer = [&](int seed) {
    auto session = db->OpenSession("V").value();
    for (int i = 0; i < 60 && !failed.load(); ++i) {
      if (!session->Create("Emp", {{"dept", Value::Int((seed + i) % 4)}})
               .ok()) {
        failed.store(true);
      }
    }
  };
  auto point_reader = [&]() {
    auto session = db->OpenSession("V").value();
    for (int i = 0; i < 120 && !failed.load(); ++i) {
      if (!session->Get(seeded[i % seeded.size()], "Emp", "dept").ok()) {
        failed.store(true);
      }
    }
  };
  auto scanner = [&]() {
    auto session = db->OpenSession("V").value();
    for (int i = 0; i < 60 && !failed.load(); ++i) {
      if (!session->Extent("D1").ok()) failed.store(true);
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(writer, 0);
  threads.emplace_back(writer, 1);
  threads.emplace_back(point_reader);
  threads.emplace_back(point_reader);
  threads.emplace_back(scanner);
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // Quiesced: the packed batch answer equals a classic scan.
  auto session = db->OpenSession("V").value();
  ClassId d1_cls = session->Resolve("D1").value();
  auto live = db->extents().Extent(d1_cls);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live.value(), ClassicExtent(db.get(), d1_cls));
  EXPECT_EQ(live.value()->size(), 38u);  // 8 seeded + 2 writers x 15
}

TEST(LayoutConcurrentTest, SchemaChangePublishesUnderPackedTraffic) {
  auto db = Db::Open(InMemory()).value();
  ClassId emp = db->AddBaseClass(
                      "Emp", {},
                      {PropertySpec::Attribute("dept", ValueType::kInt)})
                    .value();
  db->CreateView("V", {{emp, "Emp"}}).value();
  auto seeder = db->OpenSession("V").value();
  std::vector<Oid> seeded;
  for (int i = 0; i < 32; ++i) {
    seeded.push_back(
        seeder->Create("Emp", {{"dept", Value::Int(i)}}).value());
  }
  ASSERT_TRUE(db->PinLayout("Emp").ok());

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  auto reader = [&]() {
    auto session = db->OpenSession("V").value();
    size_t i = 0;
    while (!done.load() && !failed.load()) {
      if (!session->Get(seeded[i++ % seeded.size()], "Emp", "dept").ok()) {
        failed.store(true);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  {
    // Mid-run schema changes migrate the packed layout while readers
    // keep probing it from their pinned version.
    auto evolving = db->OpenSession("V").value();
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(evolving
                      ->Apply("add_attribute extra" + std::to_string(round) +
                              ":int to Emp")
                      .ok());
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(evolving
                        ->Set(seeded[i], "Emp",
                              "extra" + std::to_string(round),
                              Value::Int(round))
                        .ok());
      }
    }
    done.store(true);
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // Quiesced: every read through the packed path matches the store.
  auto session = db->OpenSession("V").value();
  for (size_t i = 0; i < seeded.size(); ++i) {
    EXPECT_EQ(session->Get(seeded[i], "Emp", "dept").value(),
              Value::Int(static_cast<int64_t>(i)));
  }
}

}  // namespace
}  // namespace tse
