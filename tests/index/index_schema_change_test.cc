#include <tse/db.h>

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <tse/query.h>
#include <tse/session.h>

namespace tse {
namespace {

using algebra::ExtentEvaluator;
using algebra::PlanArm;
using algebra::PlannerMode;
using index::IndexKind;
using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;
using schema::Derivation;
using schema::DerivationOp;
using schema::PropertySpec;

DbOptions InMemory() {
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  return options;
}

/// A select VC over `source` added straight to the global graph (test
/// escape hatch; no concurrent sessions while we do this).
ClassId AddSelect(Db* db, const std::string& name, ClassId source,
                  MethodExpr::Ptr pred) {
  Derivation d;
  d.op = DerivationOp::kSelect;
  d.sources = {source};
  d.predicate = std::move(pred);
  return db->schema().AddVirtualClass(name, std::move(d)).value();
}

std::set<Oid> ClassicExtent(Db* db, ClassId cls) {
  ExtentEvaluator cold(&db->schema(), &db->store());
  cold.set_planner_mode(PlannerMode::kForceClassic);
  return *cold.Extent(cls).value();
}

/// Index on an attribute that did not exist at startup: added by a
/// session schema change mid-run, populated through the view, then
/// indexed and queried — the index must see exactly the journaled
/// writes.
TEST(IndexSchemaChangeTest, IndexOnAttributeAddedMidRun) {
  auto db = Db::Open(InMemory()).value();
  ClassId emp = db->AddBaseClass(
                      "Emp", {},
                      {PropertySpec::Attribute("dept", ValueType::kInt)})
                    .value();
  db->CreateView("V", {{emp, "Emp"}}).value();
  auto session = db->OpenSession("V").value();
  std::vector<Oid> oids;
  for (int i = 0; i < 100; ++i) {
    oids.push_back(
        session->Create("Emp", {{"dept", Value::Int(i % 10)}}).value());
  }

  ASSERT_TRUE(session->Apply("add_attribute rating:int to Emp").ok());
  ClassId emp2 = session->Resolve("Emp").value();
  PropertyDefId rating =
      db->schema().ResolveProperty(emp2, "rating").value()->id;
  ASSERT_TRUE(db->CreateIndexOn(rating, IndexKind::kOrdered).ok());
  ASSERT_EQ(db->ListIndexes().size(), 1u);

  // Populate through the evolved view; the index follows the journal.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        session->Set(oids[i], "Emp", "rating", Value::Int(i)).ok());
  }
  ClassId stars = AddSelect(db.get(), "Stars", emp2,
                            MethodExpr::Lt(MethodExpr::Attr("rating"),
                                           MethodExpr::Lit(Value::Int(5))));
  auto plan = db->extents().ExplainSelect(stars);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().arm, PlanArm::kIndex);
  auto extent = db->extents().Extent(stars);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value()->size(), 5u);
  EXPECT_EQ(*extent.value(), ClassicExtent(db.get(), stars));
}

/// A session pinned on the pre-change view version keeps version-correct
/// answers while a newer version's attribute gets indexed: the index
/// keys on the new PropertyDefId, which the old version never resolves.
TEST(IndexSchemaChangeTest, PinnedSessionStaysVersionCorrect) {
  auto db = Db::Open(InMemory()).value();
  ClassId emp = db->AddBaseClass(
                      "Emp", {},
                      {PropertySpec::Attribute("dept", ValueType::kInt)})
                    .value();
  db->CreateView("V", {{emp, "Emp"}}).value();
  auto pinned = db->OpenSession("V").value();
  auto evolving = db->OpenSession("V").value();
  Oid a = pinned->Create("Emp", {{"dept", Value::Int(1)}}).value();

  ASSERT_TRUE(evolving->Apply("add_attribute rating:int to Emp").ok());
  ClassId emp2 = evolving->Resolve("Emp").value();
  PropertyDefId rating =
      db->schema().ResolveProperty(emp2, "rating").value()->id;
  ASSERT_TRUE(db->CreateIndexOn(rating, IndexKind::kHash).ok());
  ASSERT_TRUE(evolving->Set(a, "Emp", "rating", Value::Int(9)).ok());

  // The old version has no `rating`; the new one reads what the index
  // indexed. Both keep working after the index went live.
  EXPECT_EQ(pinned->view_version(), 1);
  EXPECT_FALSE(pinned->Get(a, "Emp", "rating").ok());
  EXPECT_EQ(pinned->Get(a, "Emp", "dept").value(), Value::Int(1));
  EXPECT_EQ(pinned->Extent("Emp").value().size(), 1u);
  EXPECT_EQ(evolving->Get(a, "Emp", "rating").value(), Value::Int(9));
  std::vector<Oid> hits;
  ASSERT_TRUE(db->indexes().LookupEq(rating, Value::Int(9), &hits));
  EXPECT_EQ(hits.size(), 1u);

  // Dropping the index changes no query result, only the plan.
  ASSERT_TRUE(db->DropIndex(rating).ok());
  EXPECT_EQ(evolving->Get(a, "Emp", "rating").value(), Value::Int(9));
}

/// Crash-recovery contract: index *specs* persist in the catalog, index
/// *contents* do not — reopening replays objects and rebuilds every
/// declared index from a store scan, same as a journal-gap fallback.
TEST(IndexSchemaChangeTest, DurableReopenRebuildsDeclaredIndexes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tse_index_reopen_test")
          .string();
  std::filesystem::remove_all(dir);
  DbOptions options = InMemory();
  options.data_dir = dir;

  PropertyDefId dept;
  {
    auto db = Db::Open(options).value();
    ClassId emp = db->AddBaseClass(
                        "Emp", {},
                        {PropertySpec::Attribute("dept", ValueType::kInt)})
                      .value();
    db->CreateView("V", {{emp, "Emp"}}).value();
    auto session = db->OpenSession("V").value();
    for (int i = 0; i < 50; ++i) {
      session->Create("Emp", {{"dept", Value::Int(i % 25)}}).value();
    }
    dept = db->CreateIndex("Emp", "dept", IndexKind::kHash).value();
    ASSERT_TRUE(db->Save().ok());
  }

  auto db = Db::Open(options).value();
  std::vector<index::IndexSpec> specs = db->ListIndexes();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].def, dept);
  EXPECT_EQ(specs[0].kind, IndexKind::kHash);
  auto probe = db->indexes().Probe(dept);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->entries, 50u);
  EXPECT_EQ(probe->distinct, 25u);

  ClassId emp = db->schema().FindClass("Emp").value();
  ClassId d3 = AddSelect(db.get(), "D3", emp,
                         MethodExpr::Eq(MethodExpr::Attr("dept"),
                                        MethodExpr::Lit(Value::Int(3))));
  auto plan = db->extents().ExplainSelect(d3);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().arm, PlanArm::kIndex);
  auto extent = db->extents().Extent(d3);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value()->size(), 2u);
  EXPECT_EQ(*extent.value(), ClassicExtent(db.get(), d3));
  std::filesystem::remove_all(dir);
}

/// Sessions keep writing while others read an indexed select extent
/// through the session surface (exercised under TSan in CI).
TEST(IndexSchemaChangeTest, ConcurrentWritesAndIndexedReads) {
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
  ASSERT_TRUE(db->CreateIndex("Emp", "dept", IndexKind::kHash).ok());

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
  auto reader = [&]() {
    auto session = db->OpenSession("V").value();
    for (int i = 0; i < 60 && !failed.load(); ++i) {
      if (!session->Extent("D1").ok()) failed.store(true);
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(writer, 0);
  threads.emplace_back(writer, 1);
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // Quiesced: the indexed answer equals a classic scan.
  auto session = db->OpenSession("V").value();
  ClassId d1_cls = session->Resolve("D1").value();
  auto live = db->extents().Extent(d1_cls);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live.value(), ClassicExtent(db.get(), d1_cls));
  EXPECT_EQ(live.value()->size(), 30u);
}

}  // namespace
}  // namespace tse
