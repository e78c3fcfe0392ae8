// Slice-on-write (DESIGN.md §10): a capacity-augmenting schema change
// attaches no implementation object. The new class's slice attaches on
// the first write through it; until then its attributes read Null. So
// neither the change itself nor a session pinned at the old version
// ever pays for a slice it cannot see. Counted on the store's own
// bookkeeping (`SlicingStats::implementation_objects`).

#include <tse/db.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <tse/session.h>

namespace tse {
namespace {

using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

constexpr int kObjects = 2000;
constexpr int kChanges = 100;
/// The attribute the last change added.
const std::string kNewest = "a" + std::to_string(kChanges - 1);

size_t Slices(Db* db) { return db->store().Stats().implementation_objects; }

/// One base class Item(n) seen by two views: "App", whose session stays
/// pinned at version 1, and "Lab", which the evolver session extends
/// with kChanges add_attribute changes.
struct Fixture {
  std::unique_ptr<Db> db;
  std::vector<Oid> oids;
  std::unique_ptr<Session> pinned;
  std::unique_ptr<Session> evolver;
  /// Slices after population, before any schema change.
  size_t populated_slices = 0;

  explicit Fixture(DbOptions options) {
    db = Db::Open(std::move(options)).value();
    ClassId item =
        db->AddBaseClass("Item", {},
                         {PropertySpec::Attribute("n", ValueType::kInt)})
            .value();
    db->CreateView("App", {{item, "Item"}}).value();
    db->CreateView("Lab", {{item, "Item"}}).value();
    pinned = db->OpenSession("App").value();
    // One transaction: one durable commit for the whole population.
    EXPECT_TRUE(pinned->Begin().ok());
    for (int i = 0; i < kObjects; ++i) {
      oids.push_back(pinned->Create("Item", {{"n", Value::Int(i)}}).value());
    }
    EXPECT_TRUE(pinned->Commit().ok());
    populated_slices = Slices(db.get());
    evolver = db->OpenSession("Lab").value();
  }

  void Evolve() {
    for (int i = 0; i < kChanges; ++i) {
      ASSERT_TRUE(evolver
                      ->Apply("add_attribute a" + std::to_string(i) +
                              ":int to Item")
                      .ok())
          << i;
    }
  }
};

DbOptions InMemory() {
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  return options;
}

TEST(SliceOnWriteTest, SchemaChangesAndPinnedOpsAttachNoSlice) {
  Fixture fx(InMemory());
  EXPECT_EQ(fx.populated_slices, static_cast<size_t>(kObjects));

  fx.Evolve();
  EXPECT_EQ(fx.evolver->view_version(), kChanges + 1);
  EXPECT_EQ(Slices(fx.db.get()), fx.populated_slices)
      << "a schema change attached slices";

  // Version-1 reads, scans and writes see only their own slice.
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_EQ(fx.pinned->Get(fx.oids[i], "Item", "n").value(), Value::Int(i));
  }
  EXPECT_EQ(fx.pinned->Extent("Item").value().size(),
            static_cast<size_t>(kObjects));
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(fx.pinned->Set(fx.oids[i], "Item", "n", Value::Int(-i)).ok());
  }
  EXPECT_EQ(fx.pinned->Get(fx.oids[5], "Item", "n").value(), Value::Int(-5));
  EXPECT_EQ(Slices(fx.db.get()), fx.populated_slices)
      << "pinned version-1 operations attached slices";

  // The fresh attribute reads Null through the new view, and the reads
  // attach nothing either.
  for (Oid oid : fx.oids) {
    ASSERT_TRUE(fx.evolver->Get(oid, "Item", kNewest).value().is_null());
  }
  EXPECT_TRUE(fx.pinned->Get(fx.oids[7], "Item", kNewest).status().IsNotFound());
  EXPECT_EQ(Slices(fx.db.get()), fx.populated_slices);

  // The first write through the new view attaches exactly one slice.
  ASSERT_TRUE(fx.evolver->Set(fx.oids[7], "Item", kNewest, Value::Int(42)).ok());
  EXPECT_EQ(Slices(fx.db.get()), fx.populated_slices + 1);
  EXPECT_EQ(fx.evolver->Get(fx.oids[7], "Item", kNewest).value(),
            Value::Int(42));
  EXPECT_TRUE(fx.evolver->Get(fx.oids[8], "Item", kNewest).value().is_null());
  EXPECT_EQ(fx.evolver->Get(fx.oids[7], "Item", "n").value(), Value::Int(-7));
}

TEST(SliceOnWriteTest, WrittenSliceSurvivesReopenAndUnwrittenReadNull) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tse_slice_on_write";
  std::filesystem::remove_all(dir);
  DbOptions options = InMemory();
  options.data_dir = dir.string();

  std::vector<Oid> oids;
  size_t written_slices = 0;
  {
    Fixture fx(options);
    fx.Evolve();
    ASSERT_TRUE(
        fx.evolver->Set(fx.oids[7], "Item", kNewest, Value::Int(42)).ok());
    written_slices = Slices(fx.db.get());
    EXPECT_EQ(written_slices, fx.populated_slices + 1);
    oids = fx.oids;
    // Destroyed without Save/Checkpoint: the WAL carries the write.
  }

  auto db = Db::Open(options).value();
  EXPECT_EQ(Slices(db.get()), written_slices);
  auto lab = db->OpenSession("Lab").value();
  EXPECT_EQ(lab->view_version(), kChanges + 1);
  EXPECT_EQ(lab->Get(oids[7], "Item", kNewest).value(), Value::Int(42));
  for (size_t i = 0; i < oids.size(); ++i) {
    if (i == 7) continue;
    ASSERT_TRUE(lab->Get(oids[i], "Item", kNewest).value().is_null()) << i;
    ASSERT_TRUE(lab->Get(oids[i], "Item", "a0").value().is_null()) << i;
  }
  auto app = db->OpenSession("App").value();
  EXPECT_EQ(app->view_version(), 1);
  EXPECT_EQ(app->Get(oids[9], "Item", "n").value(), Value::Int(9));
  EXPECT_EQ(Slices(db.get()), written_slices);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tse
