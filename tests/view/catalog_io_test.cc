#include "view/catalog_io.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "evolution/tse_manager.h"
#include "objmodel/persistence.h"
#include "update/update_engine.h"

namespace tse::view {
namespace {

using evolution::AddAttribute;
using evolution::AddMethod;
using evolution::TseManager;
using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;
using schema::SchemaGraph;

class CatalogIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tse_cat_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<storage::RecordStore> OpenDb(const char* name) {
    auto r = storage::RecordStore::Open((dir_ / name).string(),
                                        storage::RecordStoreOptions{});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  std::filesystem::path dir_;
};

TEST_F(CatalogIoTest, RoundTripEvolvedSchemaAndViews) {
  // Build, evolve, persist.
  std::string dot_before;
  uint64_t class_next, prop_next;
  {
    SchemaGraph schema;
    objmodel::SlicingStore store;
    ViewManager views(&schema);
    TseManager tse(&schema, &store, &views);

    ClassId person =
        schema
            .AddBaseClass("Person", {},
                          {PropertySpec::Attribute("name",
                                                   ValueType::kString),
                           PropertySpec::Attribute("age", ValueType::kInt)})
            .value();
    ClassId student =
        schema.AddBaseClass("Student", {person}, {}).value();
    ViewId vs = tse.CreateView("VS", {{person, ""}, {student, "Pupil"}})
                    .value();
    AddAttribute add;
    add.class_name = "Pupil";
    add.spec = PropertySpec::Attribute("register", ValueType::kBool);
    vs = tse.ApplyChange(vs, add).value();
    AddMethod method;
    method.class_name = "Person";
    method.spec = PropertySpec::Method(
        "is_adult",
        MethodExpr::Ge(MethodExpr::Attr("age"),
                       MethodExpr::Lit(Value::Int(18))),
        ValueType::kBool);
    vs = tse.ApplyChange(vs, method).value();

    auto db = OpenDb("catalog");
    ASSERT_TRUE(CatalogIO::Save(schema, views, db.get()).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    dot_before = schema.ToDot();
    class_next = schema.class_alloc_next();
    prop_next = schema.prop_alloc_next();
  }

  // Restore into fresh structures.
  SchemaGraph schema;
  ViewManager views(&schema);
  auto db = OpenDb("catalog");
  Status s = CatalogIO::Load(db.get(), &schema, &views);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Structure identical.
  EXPECT_EQ(schema.ToDot(), dot_before);
  EXPECT_EQ(schema.class_alloc_next(), class_next);
  EXPECT_EQ(schema.prop_alloc_next(), prop_next);

  // Views: three versions under "VS"; renames survive.
  auto history = views.History("VS");
  ASSERT_EQ(history.size(), 3u);
  const ViewSchema* latest = views.Current("VS").value();
  ClassId pupil = latest->Resolve("Pupil").value();
  schema::TypeSet t = schema.EffectiveType(pupil).value();
  EXPECT_TRUE(t.ContainsName("register"));
  EXPECT_TRUE(t.ContainsName("is_adult"));
  // The restored method body still evaluates.
  const schema::PropertyDef* is_adult =
      schema.ResolveProperty(pupil, "is_adult").value();
  ASSERT_TRUE(is_adult->body != nullptr);
  auto verdict = is_adult->body->Evaluate(
      Oid(1), [](const std::string& attr) -> Result<Value> {
        if (attr == "age") return Value::Int(30);
        return Status::NotFound(attr);
      });
  EXPECT_EQ(verdict.value(), Value::Bool(true));
  // Hierarchy inside the restored view.
  ClassId person = latest->Resolve("Person").value();
  EXPECT_EQ(latest->DirectSupers(pupil), std::vector<ClassId>{person});
}

TEST_F(CatalogIoTest, SelectPredicateSurvives) {
  SchemaGraph schema;
  objmodel::SlicingStore store;
  {
    ClassId student =
        schema
            .AddBaseClass("Student", {},
                          {PropertySpec::Attribute("gpa", ValueType::kReal)})
            .value();
    schema::Derivation sel;
    sel.op = schema::DerivationOp::kSelect;
    sel.sources = {student};
    sel.predicate = MethodExpr::Ge(MethodExpr::Attr("gpa"),
                                   MethodExpr::Lit(Value::Real(3.5)));
    ASSERT_TRUE(schema.AddVirtualClass("Honor", sel).ok());
    ViewManager views(&schema);
    auto db = OpenDb("cat2");
    ASSERT_TRUE(CatalogIO::Save(schema, views, db.get()).ok());
  }
  SchemaGraph restored;
  ViewManager views(&restored);
  auto db = OpenDb("cat2");
  ASSERT_TRUE(CatalogIO::Load(db.get(), &restored, &views).ok());
  // The select class's predicate still filters extents.
  ClassId student = restored.FindClass("Student").value();
  ClassId honor = restored.FindClass("Honor").value();
  update::UpdateEngine eng(&restored, &store,
                           update::ValueClosurePolicy::kAllow);
  Oid good = eng.Create(student, {{"gpa", Value::Real(3.9)}}).value();
  Oid bad = eng.Create(student, {{"gpa", Value::Real(2.0)}}).value();
  EXPECT_TRUE(eng.extents().IsMember(good, honor).value());
  EXPECT_FALSE(eng.extents().IsMember(bad, honor).value());
}

TEST_F(CatalogIoTest, LoadRejectsNonEmptySchema) {
  SchemaGraph schema;
  ASSERT_TRUE(schema.AddBaseClass("X", {}, {}).ok());
  ViewManager views(&schema);
  auto db = OpenDb("cat3");
  EXPECT_EQ(CatalogIO::Load(db.get(), &schema, &views).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CatalogIoTest, LoadWithoutHeaderIsNotFound) {
  SchemaGraph schema;
  ViewManager views(&schema);
  auto db = OpenDb("cat4");
  EXPECT_TRUE(CatalogIO::Load(db.get(), &schema, &views).IsNotFound());
}

TEST_F(CatalogIoTest, ResaveDropsRemovedClasses) {
  SchemaGraph schema;
  ViewManager views(&schema);
  ClassId base = schema.AddBaseClass("Base", {}, {}).value();
  schema::Derivation hide;
  hide.op = schema::DerivationOp::kHide;
  hide.sources = {base};
  ClassId vc = schema.AddVirtualClass("Temp", hide).value();
  auto db = OpenDb("cat5");
  ASSERT_TRUE(CatalogIO::Save(schema, views, db.get()).ok());
  ASSERT_TRUE(schema.RemoveClass(vc).ok());
  ASSERT_TRUE(CatalogIO::Save(schema, views, db.get()).ok());

  SchemaGraph restored;
  ViewManager restored_views(&restored);
  ASSERT_TRUE(CatalogIO::Load(db.get(), &restored, &restored_views).ok());
  EXPECT_TRUE(restored.FindClass("Temp").status().IsNotFound());
  EXPECT_TRUE(restored.FindClass("Base").ok());
}

// Data directories written while packed-layout pins existed carry one
// 0x05 record per pinned class. They load with the record ignored (index
// specs next to it still restore), and the next save drops it.
TEST_F(CatalogIoTest, LoadIgnoresLayoutPinRecords) {
  SchemaGraph schema;
  ViewManager views(&schema);
  ClassId base =
      schema
          .AddBaseClass("Base", {},
                        {PropertySpec::Attribute("n", ValueType::kInt)})
          .value();
  const std::vector<index::IndexSpec> specs = {
      {schema.ResolveProperty(base, "n").value()->id,
       index::IndexKind::kOrdered}};
  const uint64_t pin_key = (uint64_t{5} << 56) | base.value();
  {
    auto db = OpenDb("cat_pins");
    ASSERT_TRUE(CatalogIO::Save(schema, views, db.get(), &specs).ok());
    ASSERT_TRUE(db->Put(pin_key, std::string()).ok());
    ASSERT_TRUE(db->Commit().ok());
  }

  auto db = OpenDb("cat_pins");
  ASSERT_TRUE(db->Contains(pin_key));
  SchemaGraph restored;
  ViewManager restored_views(&restored);
  std::vector<index::IndexSpec> restored_specs;
  Status s =
      CatalogIO::Load(db.get(), &restored, &restored_views, &restored_specs);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(restored.ToDot(), schema.ToDot());
  ASSERT_EQ(restored_specs.size(), 1u);
  EXPECT_EQ(restored_specs[0].def, specs[0].def);

  ASSERT_TRUE(
      CatalogIO::Save(restored, restored_views, db.get(), &restored_specs)
          .ok());
  EXPECT_FALSE(db->Contains(pin_key));
}

// A class record in CatalogIO's layout for a class named `name` with
// derivation op byte `op` over `sources`: no predicate, hidden names,
// properties or edges.
std::string CraftedClassRecord(const std::string& name, uint8_t op,
                               const std::vector<ClassId>& sources) {
  std::string out;
  auto u32 = [&](uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), 4);
  };
  auto u64 = [&](uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), 8);
  };
  u32(static_cast<uint32_t>(name.size()));
  out += name;
  out.push_back(static_cast<char>(op));
  u32(static_cast<uint32_t>(sources.size()));
  for (ClassId src : sources) u64(src.value());
  out.push_back(0);  // no predicate
  for (int i = 0; i < 5; ++i) u32(0);  // hidden, added, local, declared, supers
  u64(0);  // union create target
  return out;
}

// Class records that decode but describe a derivation no evaluator can
// run must fail the load, not restore a class that later reads past its
// sources or dereferences a missing predicate.
TEST_F(CatalogIoTest, LoadRejectsMalformedDerivations) {
  struct Case {
    const char* what;
    uint8_t op;
    size_t n_sources;
  };
  const Case cases[] = {
      {"op byte out of range", 99, 1},
      {"union with one source",
       static_cast<uint8_t>(schema::DerivationOp::kUnion), 1},
      {"select without predicate",
       static_cast<uint8_t>(schema::DerivationOp::kSelect), 1},
  };
  int n = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    auto db = OpenDb(("bad" + std::to_string(n++)).c_str());
    uint64_t crafted_id;
    {
      SchemaGraph schema;
      ClassId base = schema.AddBaseClass("Base", {}, {}).value();
      ViewManager views(&schema);
      ASSERT_TRUE(CatalogIO::Save(schema, views, db.get()).ok());
      crafted_id = schema.class_alloc_next();
      ASSERT_TRUE(db->Put((uint64_t{1} << 56) | crafted_id,
                          CraftedClassRecord(
                              "Bad", c.op,
                              std::vector<ClassId>(c.n_sources, base)))
                      .ok());
    }
    SchemaGraph restored;
    ViewManager views(&restored);
    Status s = CatalogIO::Load(db.get(), &restored, &views);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_FALSE(restored.HasClass(ClassId(crafted_id)));
  }
}

// End-to-end durability: catalog + objects survive a "crash" and the
// reloaded stack continues evolving and answering queries.
TEST_F(CatalogIoTest, FullDatabaseDurability) {
  Oid alice;
  {
    SchemaGraph schema;
    objmodel::SlicingStore store;
    ViewManager views(&schema);
    TseManager tse(&schema, &store, &views);
    update::UpdateEngine db(&schema, &store);
    ClassId student =
        schema
            .AddBaseClass("Student", {},
                          {PropertySpec::Attribute("name",
                                                   ValueType::kString)})
            .value();
    ViewId vs = tse.CreateView("VS", {{student, ""}}).value();
    AddAttribute add;
    add.class_name = "Student";
    add.spec = PropertySpec::Attribute("register", ValueType::kBool);
    vs = tse.ApplyChange(vs, add).value();
    ClassId student2 = views.GetView(vs).value()->Resolve("Student").value();
    alice = db.Create(student2, {{"name", Value::Str("alice")},
                                 {"register", Value::Bool(true)}})
                .value();
    auto catalog_db = OpenDb("catalog");
    auto object_db = OpenDb("objects");
    ASSERT_TRUE(CatalogIO::Save(schema, views, catalog_db.get()).ok());
    ASSERT_TRUE(
        objmodel::PersistenceBridge::SaveAll(store, object_db.get()).ok());
    // Crash: neither store checkpointed; WAL carries everything.
  }
  SchemaGraph schema;
  objmodel::SlicingStore store;
  ViewManager views(&schema);
  auto catalog_db = OpenDb("catalog");
  auto object_db = OpenDb("objects");
  ASSERT_TRUE(CatalogIO::Load(catalog_db.get(), &schema, &views).ok());
  ASSERT_TRUE(
      objmodel::PersistenceBridge::LoadAll(object_db.get(), &store).ok());
  update::UpdateEngine db(&schema, &store);
  const ViewSchema* current = views.Current("VS").value();
  ClassId student = current->Resolve("Student").value();
  // The capacity-augmented attribute and its value survived.
  EXPECT_EQ(db.accessor().Read(alice, student, "register").value(),
            Value::Bool(true));
  // And evolution continues from where it left off.
  TseManager tse(&schema, &store, &views);
  AddAttribute add;
  add.class_name = "Student";
  add.spec = PropertySpec::Attribute("year", ValueType::kInt);
  auto vs2 = tse.ApplyChange(current->id(), add);
  ASSERT_TRUE(vs2.ok()) << vs2.status().ToString();
  EXPECT_EQ(views.History("VS").size(), 3u);
}

}  // namespace
}  // namespace tse::view
