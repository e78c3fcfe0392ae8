// Deterministic coverage of the lazy backfill path (DESIGN.md §10):
// after an online capacity-augmenting schema change, the new
// implementation-object slices must materialize exactly once — whether
// the first touch is a read, an update, an extent scan, an explicit
// BackfillStep, or the background migrator — and a crash mid-backfill
// must recover the remaining pending set from slice absence alone.

#include <tse/db.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include <tse/session.h>

namespace tse {
namespace {

using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

constexpr int kStudents = 8;

DbOptions Deterministic() {
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  options.online_schema_change = true;
  options.background_backfill = false;  // tests drain explicitly
  return options;
}

/// Person/Student with a "Registrar" view and kStudents seeded students.
std::unique_ptr<Db> MakeUniversity(DbOptions options,
                                   std::vector<Oid>* students) {
  auto db = Db::Open(std::move(options)).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("name", ValueType::kString)})
          .value();
  ClassId student =
      db->AddBaseClass("Student", {person},
                       {PropertySpec::Attribute("gpa", ValueType::kReal)})
          .value();
  db->CreateView("Registrar", {{person, "Person"}, {student, "Student"}})
      .value();
  auto session = db->OpenSession("Registrar").value();
  for (int i = 0; i < kStudents; ++i) {
    students->push_back(
        session->Create("Student", {{"name", Value::Str("s" + std::to_string(i))}})
            .value());
  }
  return db;
}

/// Applies the capacity-augmenting change and returns the refine class
/// now backing "Student" in the evolved view.
ClassId AddAdvisor(Session* session) {
  session->Apply("add_attribute advisor:string to Student").value();
  return session->Resolve("Student").value();
}

TEST(LazyBackfillTest, OnlineApplyRegistersPendingWithoutMaterializing) {
  std::vector<Oid> students;
  auto db = MakeUniversity(Deterministic(), &students);
  auto session = db->OpenSession("Registrar").value();
  ASSERT_EQ(db->BackfillPending(), 0u);

  ClassId refined = AddAdvisor(session.get());
  EXPECT_EQ(db->BackfillPending(), static_cast<size_t>(kStudents));
  EXPECT_EQ(db->backfill().task_count(), 1u);
  for (Oid oid : students) {
    EXPECT_FALSE(db->store().HasSlice(oid, refined));
  }
}

TEST(LazyBackfillTest, ReadFirstTouchMaterializesExactlyOnce) {
  std::vector<Oid> students;
  auto db = MakeUniversity(Deterministic(), &students);
  auto session = db->OpenSession("Registrar").value();
  ClassId refined = AddAdvisor(session.get());

  // Reads of the unmaterialized attribute serve the default (Null) and
  // materialize the one touched object.
  EXPECT_TRUE(session->Get(students[0], "Student", "advisor").value().is_null());
  EXPECT_TRUE(db->store().HasSlice(students[0], refined));
  EXPECT_EQ(db->BackfillPending(), static_cast<size_t>(kStudents - 1));

  // A second read of the same object finds nothing pending.
  EXPECT_TRUE(session->Get(students[0], "Student", "advisor").value().is_null());
  EXPECT_EQ(db->BackfillPending(), static_cast<size_t>(kStudents - 1));
}

TEST(LazyBackfillTest, UpdateFirstTouchMaterializesAndKeepsTheValue) {
  std::vector<Oid> students;
  auto db = MakeUniversity(Deterministic(), &students);
  auto session = db->OpenSession("Registrar").value();
  ClassId refined = AddAdvisor(session.get());

  ASSERT_TRUE(
      session->Set(students[1], "Student", "advisor", Value::Str("kim")).ok());
  EXPECT_TRUE(db->store().HasSlice(students[1], refined));
  EXPECT_EQ(db->BackfillPending(), static_cast<size_t>(kStudents - 1));
  EXPECT_EQ(session->Get(students[1], "Student", "advisor").value(),
            Value::Str("kim"));
}

TEST(LazyBackfillTest, ExtentScanMaterializesAllMembers) {
  std::vector<Oid> students;
  auto db = MakeUniversity(Deterministic(), &students);
  auto session = db->OpenSession("Registrar").value();
  ClassId refined = AddAdvisor(session.get());

  auto extent = session->Extent("Student").value();
  EXPECT_EQ(extent.size(), static_cast<size_t>(kStudents));
  EXPECT_EQ(db->BackfillPending(), 0u);
  for (Oid oid : students) {
    EXPECT_TRUE(db->store().HasSlice(oid, refined));
  }
}

TEST(LazyBackfillTest, BackfillStepDrainsUnderTheBudget) {
  std::vector<Oid> students;
  auto db = MakeUniversity(Deterministic(), &students);
  auto session = db->OpenSession("Registrar").value();
  ClassId refined = AddAdvisor(session.get());

  EXPECT_EQ(db->BackfillStep(3).value(), 3u);
  EXPECT_EQ(db->BackfillPending(), static_cast<size_t>(kStudents - 3));
  size_t total = 3;
  while (db->BackfillPending() > 0) {
    total += db->BackfillStep(3).value();
  }
  EXPECT_EQ(total, static_cast<size_t>(kStudents));
  EXPECT_EQ(db->BackfillStep(3).value(), 0u);  // idempotent once drained
  for (Oid oid : students) {
    EXPECT_TRUE(db->store().HasSlice(oid, refined));
  }
}

TEST(LazyBackfillTest, BackgroundMigratorDrainsOnItsOwn) {
  DbOptions options = Deterministic();
  options.background_backfill = true;
  options.backfill_batch = 2;
  options.backfill_interval = std::chrono::milliseconds(1);
  std::vector<Oid> students;
  auto db = MakeUniversity(std::move(options), &students);
  auto session = db->OpenSession("Registrar").value();
  ClassId refined = AddAdvisor(session.get());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->BackfillPending() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(db->BackfillPending(), 0u);
  for (Oid oid : students) {
    EXPECT_TRUE(db->store().HasSlice(oid, refined));
  }
}

TEST(LazyBackfillTest, EagerModeMaterializesInsideApply) {
  DbOptions options = Deterministic();
  options.online_schema_change = false;
  std::vector<Oid> students;
  auto db = MakeUniversity(std::move(options), &students);
  auto session = db->OpenSession("Registrar").value();
  ClassId refined = AddAdvisor(session.get());

  EXPECT_EQ(db->BackfillPending(), 0u);
  for (Oid oid : students) {
    EXPECT_TRUE(db->store().HasSlice(oid, refined));
  }
}

TEST(LazyBackfillTest, CrashMidBackfillRecoversPendingFromSliceAbsence) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tse_lazy_backfill_recovery";
  std::filesystem::remove_all(dir);

  std::vector<Oid> students;
  Oid touched;
  {
    DbOptions options = Deterministic();
    options.data_dir = dir.string();
    auto db = MakeUniversity(std::move(options), &students);
    auto session = db->OpenSession("Registrar").value();
    AddAdvisor(session.get());
    // Durable progress on part of the backlog, then "crash" (destroy
    // without Save/Checkpoint — the WAL carries the slices).
    EXPECT_EQ(db->BackfillStep(3).value(), 3u);
    touched = students[4];
    ASSERT_TRUE(
        session->Set(touched, "Student", "advisor", Value::Str("kim")).ok());
  }

  DbOptions options = Deterministic();
  options.data_dir = dir.string();
  auto db = Db::Open(std::move(options)).value();
  auto session = db->OpenSession("Registrar").value();
  ClassId refined = session->Resolve("Student").value();

  // RecoverPending rebuilt the pending set from slice absence: the 3
  // migrated objects and the 1 durably updated one are done, the other
  // 4 remain.
  EXPECT_EQ(db->BackfillPending(), static_cast<size_t>(kStudents - 4));
  EXPECT_EQ(session->Get(touched, "Student", "advisor").value(),
            Value::Str("kim"));

  while (db->BackfillPending() > 0) {
    ASSERT_GT(db->BackfillStep(4).value(), 0u);
  }
  for (Oid oid : students) {
    EXPECT_TRUE(db->store().HasSlice(oid, refined));
    EXPECT_TRUE(
        session->Get(oid, "Student", "advisor").value().is_null() ||
        oid == touched);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tse
