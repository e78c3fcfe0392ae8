#include <tse/db.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include <tse/query.h>
#include <tse/session.h>

namespace tse {
namespace {

using algebra::ExtentEvaluator;
using algebra::PlanArm;
using algebra::PlannerMode;
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

TEST(LayoutDbTest, PinServesSessionReadsTransparently) {
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

  EXPECT_TRUE(db->PinLayout("Nope").status().IsNotFound());
  ASSERT_EQ(db->PinLayout("Emp").value(), emp);
  auto stats = db->ExplainLayout("Emp").value();
  EXPECT_EQ(stats.state, "pinned");
  EXPECT_TRUE(stats.scan_complete);
  EXPECT_EQ(stats.rows, 100u);
  EXPECT_EQ(stats.columns, 1u);

  // Same answers, now served from the packed layout; writes through the
  // session keep the packed cells current via the journal.
  EXPECT_EQ(session->Get(oids[7], "Emp", "dept").value(), Value::Int(7));
  ASSERT_TRUE(session->Set(oids[7], "Emp", "dept", Value::Int(42)).ok());
  EXPECT_EQ(session->Get(oids[7], "Emp", "dept").value(), Value::Int(42));
  EXPECT_GT(db->ExplainLayout("Emp").value().hits, 0u);

  ASSERT_TRUE(db->UnpinLayout("Emp").ok());
  EXPECT_TRUE(db->UnpinLayout("Emp").IsNotFound());
  EXPECT_EQ(db->ExplainLayout("Emp").value().state, "cold");
  // Unpinned: the slice path answers, identically.
  EXPECT_EQ(session->Get(oids[7], "Emp", "dept").value(), Value::Int(42));
}

TEST(LayoutDbTest, PackedBatchScanMatchesClassicScan) {
  auto db = Db::Open(InMemory()).value();
  ClassId emp = db->AddBaseClass(
                      "Emp", {},
                      {PropertySpec::Attribute("dept", ValueType::kInt)})
                    .value();
  db->CreateView("V", {{emp, "Emp"}}).value();
  auto session = db->OpenSession("V").value();
  for (int i = 0; i < 40; ++i) {
    session->Create("Emp", {{"dept", Value::Int(i % 4)}}).value();
  }
  ASSERT_TRUE(db->PinLayoutOn(emp).ok());

  // 40 source objects is below the batch arm's usual minimum; a
  // promoted source upgrades the plan anyway (clustered pass over the
  // packed column beats per-object slice chasing at any size).
  ClassId d3 = AddSelect(db.get(), "D3", emp,
                         MethodExpr::Eq(MethodExpr::Attr("dept"),
                                        MethodExpr::Lit(Value::Int(3))));
  auto plan = db->extents().ExplainSelect(d3);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().arm, PlanArm::kBatch);
  EXPECT_NE(plan.value().reason.find("packed"), std::string::npos);
  auto extent = db->extents().Extent(d3);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value()->size(), 10u);
  EXPECT_EQ(*extent.value(), ClassicExtent(db.get(), d3));
}

TEST(LayoutDbTest, PinnedLayoutSurvivesReopen) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tse_layout_reopen_test")
          .string();
  std::filesystem::remove_all(dir);
  DbOptions options = InMemory();
  options.data_dir = dir;

  {
    auto db = Db::Open(options).value();
    ClassId emp = db->AddBaseClass(
                        "Emp", {},
                        {PropertySpec::Attribute("dept", ValueType::kInt)})
                      .value();
    db->CreateView("V", {{emp, "Emp"}}).value();
    auto session = db->OpenSession("V").value();
    for (int i = 0; i < 50; ++i) {
      session->Create("Emp", {{"dept", Value::Int(i)}}).value();
    }
    ASSERT_TRUE(db->PinLayout("Emp").ok());
    ASSERT_TRUE(db->Save().ok());
  }

  // The pin persists in the catalog; the packed contents rebuild from
  // the restored store, same as a journal-gap fallback.
  auto db = Db::Open(options).value();
  auto stats = db->ExplainLayout("Emp").value();
  EXPECT_EQ(stats.state, "pinned");
  EXPECT_EQ(stats.rows, 50u);
  auto session = db->OpenSession("V").value();
  ClassId emp = session->Resolve("Emp").value();
  auto extent = session->Extent("Emp").value();
  ASSERT_EQ(extent.size(), 50u);
  for (Oid oid : extent) {
    EXPECT_TRUE(session->Get(oid, "Emp", "dept").ok());
  }
  (void)emp;
  std::filesystem::remove_all(dir);
}

TEST(LayoutDbTest, SchemaChangeKeepsPackedReadsVersionCorrect) {
  auto db = Db::Open(InMemory()).value();
  ClassId emp = db->AddBaseClass(
                      "Emp", {},
                      {PropertySpec::Attribute("dept", ValueType::kInt)})
                    .value();
  db->CreateView("V", {{emp, "Emp"}}).value();
  auto pinned = db->OpenSession("V").value();
  auto evolving = db->OpenSession("V").value();
  Oid a = pinned->Create("Emp", {{"dept", Value::Int(1)}}).value();
  ASSERT_TRUE(db->PinLayoutOn(emp).ok());
  EXPECT_EQ(pinned->Get(a, "Emp", "dept").value(), Value::Int(1));

  // The schema change publishes a new catalog version; the packed
  // layout migrates on the next probe and both sessions keep
  // version-correct answers.
  ASSERT_TRUE(evolving->Apply("add_attribute rating:int to Emp").ok());
  ASSERT_TRUE(evolving->Set(a, "Emp", "rating", Value::Int(9)).ok());
  EXPECT_EQ(pinned->view_version(), 1);
  EXPECT_FALSE(pinned->Get(a, "Emp", "rating").ok());
  EXPECT_EQ(pinned->Get(a, "Emp", "dept").value(), Value::Int(1));
  EXPECT_EQ(evolving->Get(a, "Emp", "rating").value(), Value::Int(9));
  EXPECT_EQ(evolving->Get(a, "Emp", "dept").value(), Value::Int(1));
  EXPECT_EQ(pinned->Extent("Emp").value().size(), 1u);
  EXPECT_EQ(evolving->Extent("Emp").value().size(), 1u);

  // The original base class keeps its (pinned) packed layout.
  EXPECT_TRUE(db->layout().IsPromoted(emp));
}

}  // namespace
}  // namespace tse
