#include <tse/db.h>

#include <gtest/gtest.h>

#include <algorithm>

#include <filesystem>

#include <tse/query.h>
#include <tse/session.h>
#include "evolution/change_parser.h"
#include "fuzz/naive_placement.h"

namespace tse {
namespace {

using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

DbOptions InMemory() {
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  return options;
}

/// Builds the running example: Person/Student base classes and a
/// "Registrar" view over both.
std::unique_ptr<Db> MakeUniversity() {
  auto db = Db::Open(InMemory()).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("name", ValueType::kString),
                        PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  ClassId student =
      db->AddBaseClass("Student", {person},
                       {PropertySpec::Attribute("gpa", ValueType::kReal)})
          .value();
  db->CreateView("Registrar", {{person, "Person"}, {student, "Student"}})
      .value();
  return db;
}

TEST(DbFacadeTest, OpenSessionBindsCurrentVersion) {
  auto db = MakeUniversity();
  auto session = db->OpenSession("Registrar").value();
  EXPECT_EQ(session->view_name(), "Registrar");
  EXPECT_EQ(session->view_version(), 1);
  EXPECT_TRUE(session->Resolve("Student").ok());
  EXPECT_TRUE(session->Resolve("Professor").status().IsNotFound());
}

TEST(DbFacadeTest, CreateReadUpdateThroughSession) {
  auto db = MakeUniversity();
  auto session = db->OpenSession("Registrar").value();
  Oid alice = session
                  ->Create("Student", {{"name", Value::Str("alice")},
                                       {"gpa", Value::Real(3.5)}})
                  .value();
  EXPECT_EQ(session->Get(alice, "Student", "name").value().ToString(),
            "\"alice\"");
  ASSERT_TRUE(session->Set(alice, "Student", "gpa", Value::Real(3.9)).ok());
  EXPECT_EQ(session->Get(alice, "Student", "gpa").value(), Value::Real(3.9));
  // The student shows up in both extents (Student is-a Person).
  EXPECT_EQ(std::ranges::count(session->Extent("Student").value(), alice), 1);
  EXPECT_EQ(std::ranges::count(session->Extent("Person").value(), alice), 1);
}

TEST(DbFacadeTest, ApplyRebindsOnlyTheRequestingSession) {
  auto db = MakeUniversity();
  auto pinned = db->OpenSession("Registrar").value();
  auto evolving = db->OpenSession("Registrar").value();
  const uint64_t epoch_before = db->epoch();

  ViewId v2 = evolving->Apply("add_attribute advisor:string to Student").value();
  EXPECT_EQ(evolving->view_version(), 2);
  EXPECT_EQ(evolving->view_id(), v2);
  EXPECT_GT(db->epoch(), epoch_before);

  // The pinned session keeps its version: the new attribute does not
  // resolve there, but everything it could do before still works.
  EXPECT_EQ(pinned->view_version(), 1);
  Oid bob = pinned->Create("Student", {{"name", Value::Str("bob")}}).value();
  EXPECT_TRUE(pinned->Get(bob, "Student", "advisor").status().IsNotFound());
  EXPECT_TRUE(evolving->Set(bob, "Student", "advisor", Value::Str("kim")).ok());
  EXPECT_EQ(evolving->Get(bob, "Student", "advisor").value(),
            Value::Str("kim"));

  // Refresh opts the pinned session into the newest version.
  ASSERT_TRUE(pinned->Refresh().ok());
  EXPECT_EQ(pinned->view_version(), 2);
  EXPECT_TRUE(pinned->Get(bob, "Student", "advisor").ok());
}

TEST(DbFacadeTest, RejectedApplyPublishesNothing) {
  auto db = MakeUniversity();
  auto session = db->OpenSession("Registrar").value();
  session->Apply("add_attribute advisor:string to Student").value();
  const ViewId bound = session->view_id();
  const uint64_t epoch_before = db->epoch();
  const size_t log_before = db->catalog().Log().size();
  const std::vector<ViewId> history_before = db->views().History("Registrar");

  for (const char* change : {"add_attribute x:int to Professor",
                             "add_attribute advisor:string to Student",
                             "delete_class Professor"}) {
    EXPECT_FALSE(session->Apply(change).ok()) << change;
    EXPECT_EQ(db->epoch(), epoch_before) << change;
    EXPECT_EQ(db->catalog().Log().size(), log_before) << change;
    EXPECT_EQ(db->views().History("Registrar"), history_before) << change;
    EXPECT_EQ(session->view_id(), bound) << change;
  }
}

TEST(DbFacadeTest, OpenSessionAtHistoricalVersion) {
  auto db = MakeUniversity();
  auto session = db->OpenSession("Registrar").value();
  ViewId v1 = session->view_id();
  session->Apply("add_attribute advisor:string to Student").value();

  auto historical = db->OpenSessionAt(v1).value();
  EXPECT_EQ(historical->view_version(), 1);
  EXPECT_TRUE(
      historical->Get(Oid(999), "Student", "advisor").status().IsNotFound());
}

TEST(DbFacadeTest, TransactionCommitAndRollback) {
  auto db = MakeUniversity();
  auto session = db->OpenSession("Registrar").value();
  ASSERT_TRUE(session->Begin().ok());
  Oid alice =
      session->Create("Student", {{"name", Value::Str("alice")}}).value();
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_EQ(std::ranges::count(session->Extent("Student").value(), alice), 1);

  ASSERT_TRUE(session->Begin().ok());
  Oid ghost =
      session->Create("Student", {{"name", Value::Str("ghost")}}).value();
  ASSERT_TRUE(session->Rollback().ok());
  EXPECT_EQ(std::ranges::count(session->Extent("Student").value(), ghost), 0);
  EXPECT_FALSE(session->in_transaction());
}

TEST(DbFacadeTest, MergeViewsProducesCombinedView) {
  auto db = MakeUniversity();
  auto a = db->OpenSession("Registrar").value();
  ViewId v1 = a->view_id();
  ViewId v2 = a->Apply("add_class Clerk").value();
  ViewId merged = db->MergeViews(v1, v2, "Combined").value();
  auto combined = db->OpenSessionAt(merged).value();
  EXPECT_EQ(combined->view_name(), "Combined");
  EXPECT_TRUE(combined->Resolve("Clerk").ok());
  EXPECT_TRUE(combined->Resolve("Student").ok());
}

TEST(DbFacadeTest, DurableReopenRestoresEverything) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tse_db_facade_test").string();
  std::filesystem::remove_all(dir);
  Oid alice;
  {
    DbOptions options = InMemory();
    options.data_dir = dir;
    auto db = Db::Open(options).value();
    ClassId person =
        db->AddBaseClass("Person", {},
                         {PropertySpec::Attribute("name", ValueType::kString)})
            .value();
    db->CreateView("People", {{person, "Person"}}).value();
    auto session = db->OpenSession("People").value();
    alice = session->Create("Person", {{"name", Value::Str("alice")}}).value();
    session->Apply("add_attribute office:string to Person").value();
    ASSERT_TRUE(session->Set(alice, "Person", "office", Value::Str("b42")).ok());
  }
  {
    DbOptions options = InMemory();
    options.data_dir = dir;
    auto db = Db::Open(options).value();
    // Both view versions and the object survive the reopen.
    auto session = db->OpenSession("People").value();
    EXPECT_EQ(session->view_version(), 2);
    EXPECT_EQ(session->Get(alice, "Person", "office").value(),
              Value::Str("b42"));
    EXPECT_EQ(std::ranges::count(session->Extent("Person").value(), alice), 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(DbFacadeTest, EscapeHatchSharesEngineState) {
  auto db = MakeUniversity();
  auto session = db->OpenSession("Registrar").value();
  Oid alice =
      session->Create("Student", {{"name", Value::Str("alice")}}).value();
  // The component accessors see the same store the session wrote.
  EXPECT_TRUE(db->store().Exists(alice));
  ClassId student = session->Resolve("Student").value();
  EXPECT_EQ(db->extents().Extent(student).value()->count(alice), 1u);
}

// defineVC classifies every class it materializes, so the nested select
// of hide(select(A, x >= 3), y), the auxiliary X$1, is placed in the
// DAG and a view can select it like any other class.
TEST(DbFacadeTest, DefineVirtualClassClassifiesAuxiliaries) {
  auto db = Db::Open(InMemory()).value();
  ClassId a = db->AddBaseClass("A", {},
                               {PropertySpec::Attribute("x", ValueType::kInt),
                                PropertySpec::Attribute("y", ValueType::kInt)})
                  .value();
  using algebra::Query;
  const objmodel::MethodExpr::Ptr x_ge_3 =
      objmodel::ParseExpr("x >= 3").value();
  ClassId x = db->DefineVirtualClass(
                    "X", Query::Hide(Query::Select(Query::Class("A"), x_ge_3),
                                     {"y"}))
                  .value();
  ClassId aux = db->schema().FindClass("X$1").value();
  EXPECT_EQ(db->schema().GetClass(aux).value()->supers.count(a), 1u);

  auto view = db->CreateView("Aux", {{a, ""}, {aux, ""}, {x, ""}});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const view::ViewSchema* vs = db->views().GetView(view.value()).value();
  std::vector<std::pair<ClassId, ClassId>> edges;
  for (ClassId cls : vs->classes()) {
    for (ClassId sup : vs->DirectSupers(cls)) edges.emplace_back(cls, sup);
  }
  EXPECT_EQ(edges, fuzz::NaiveViewEdges(db->schema(), vs->classes()));
  EXPECT_EQ(std::ranges::count(edges, std::pair{aux, a}), 1);

  // An auxiliary that duplicates a classified class is replaced by it
  // before the class above it derives from it.
  ClassId z = db->DefineVirtualClass(
                    "Z", Query::Hide(Query::Select(Query::Class("A"), x_ge_3),
                                     {"x"}))
                  .value();
  EXPECT_TRUE(db->schema().FindClass("Z$1").status().IsNotFound());
  EXPECT_EQ(db->schema().GetClass(z).value()->derivation.sources,
            std::vector<ClassId>{aux});
}

}  // namespace
}  // namespace tse
