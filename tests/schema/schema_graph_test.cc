#include "schema/schema_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "objmodel/method.h"

namespace tse::schema {
namespace {

using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;

/// Builds the university base schema of Figure 2:
///   Person(name, ssn) <- Student(major), Staff(salary)
///   Student <- TA, Grad ; Staff <- TA (TA has multiple inheritance)
class UniversitySchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    person_ = graph_
                  .AddBaseClass(
                      "Person", {},
                      {PropertySpec::Attribute("name", ValueType::kString),
                       PropertySpec::Attribute("ssn", ValueType::kInt)})
                  .value();
    student_ = graph_
                   .AddBaseClass(
                       "Student", {person_},
                       {PropertySpec::Attribute("major", ValueType::kString)})
                   .value();
    staff_ = graph_
                 .AddBaseClass(
                     "Staff", {person_},
                     {PropertySpec::Attribute("salary", ValueType::kInt)})
                 .value();
    ta_ = graph_.AddBaseClass("TA", {student_, staff_}, {}).value();
    grad_ = graph_
                .AddBaseClass(
                    "Grad", {student_},
                    {PropertySpec::Attribute("thesis", ValueType::kString)})
                .value();
  }

  SchemaGraph graph_;
  ClassId person_, student_, staff_, ta_, grad_;
};

TEST_F(UniversitySchemaTest, BaseClassRegistration) {
  EXPECT_EQ(graph_.class_count(), 6u);  // 5 + system root OBJECT
  EXPECT_EQ(graph_.FindClass("Person").value(), person_);
  EXPECT_TRUE(graph_.FindClass("Alien").status().IsNotFound());
  EXPECT_TRUE(graph_.AddBaseClass("Person", {}, {}).status().IsAlreadyExists());
  const ClassNode* node = graph_.GetClass(ta_).value();
  EXPECT_TRUE(node->is_base());
  EXPECT_EQ(node->declared_supers.size(), 2u);
}

TEST_F(UniversitySchemaTest, EffectiveTypeInheritsFully) {
  TypeSet ta_type = graph_.EffectiveType(ta_).value();
  // TA inherits name, ssn (via both paths, same defs — no ambiguity),
  // major, salary.
  EXPECT_TRUE(ta_type.ContainsName("name"));
  EXPECT_TRUE(ta_type.ContainsName("major"));
  EXPECT_TRUE(ta_type.ContainsName("salary"));
  EXPECT_FALSE(ta_type.IsAmbiguous("name"));
  EXPECT_EQ(ta_type.size(), 4u);
}

TEST_F(UniversitySchemaTest, LocalOverrideSuppressesInherited) {
  // A subclass redefining `name` locally overrides Person's.
  ClassId special =
      graph_
          .AddBaseClass("Special", {person_},
                        {PropertySpec::Attribute("name", ValueType::kString)})
          .value();
  TypeSet t = graph_.EffectiveType(special).value();
  EXPECT_FALSE(t.IsAmbiguous("name"));
  PropertyDefId def = t.Lookup("name").value();
  EXPECT_EQ(graph_.GetProperty(def).value()->definer, special);
}

TEST_F(UniversitySchemaTest, MultipleInheritanceConflictIsAmbiguous) {
  // Two distinct `code` attributes inherited into one class.
  ClassId a = graph_
                  .AddBaseClass("A", {},
                                {PropertySpec::Attribute(
                                    "code", ValueType::kInt)})
                  .value();
  ClassId b = graph_
                  .AddBaseClass("B", {},
                                {PropertySpec::Attribute(
                                    "code", ValueType::kString)})
                  .value();
  ClassId ab = graph_.AddBaseClass("AB", {a, b}, {}).value();
  TypeSet t = graph_.EffectiveType(ab).value();
  EXPECT_TRUE(t.IsAmbiguous("code"));
  // Resolution by rename: rename one definition.
  PropertyDefId a_code = graph_.EffectiveType(a).value().Lookup("code").value();
  ASSERT_TRUE(graph_.RenameProperty(a_code, "a_code").ok());
  EXPECT_EQ(graph_.GetProperty(a_code).value()->name, "a_code");
}

TEST_F(UniversitySchemaTest, VirtualClassTypes) {
  // select: same type as source.
  Derivation sel;
  sel.op = DerivationOp::kSelect;
  sel.sources = {student_};
  sel.predicate = MethodExpr::Eq(MethodExpr::Attr("major"),
                                 MethodExpr::Lit(Value::Str("cs")));
  ClassId cs = graph_.AddVirtualClass("CsStudent", sel).value();
  EXPECT_EQ(graph_.EffectiveType(cs).value(),
            graph_.EffectiveType(student_).value());

  // hide: source type minus hidden names (AgelessPerson, Figure 4).
  Derivation hide;
  hide.op = DerivationOp::kHide;
  hide.sources = {person_};
  hide.hidden = {"ssn"};
  ClassId ageless = graph_.AddVirtualClass("NoSsnPerson", hide).value();
  TypeSet ageless_type = graph_.EffectiveType(ageless).value();
  EXPECT_FALSE(ageless_type.ContainsName("ssn"));
  EXPECT_TRUE(ageless_type.ContainsName("name"));

  // difference: type of the first argument.
  Derivation diff;
  diff.op = DerivationOp::kDifference;
  diff.sources = {student_, ta_};
  ClassId d = graph_.AddVirtualClass("NonTaStudent", diff).value();
  EXPECT_EQ(graph_.EffectiveType(d).value(),
            graph_.EffectiveType(student_).value());
}

TEST_F(UniversitySchemaTest, RefineAddsProperties) {
  Derivation refine;
  refine.op = DerivationOp::kRefine;
  refine.sources = {student_};
  ClassId student_prime = graph_.AddVirtualClass("Student'", refine).value();
  PropertyDefId reg =
      graph_
          .DefineProperty(
              PropertySpec::Attribute("register", ValueType::kBool),
              student_prime)
          .value();
  // Rebuild with the def attached (derivations are immutable once added;
  // in real flows the TSE translator registers defs first).
  Derivation refine2;
  refine2.op = DerivationOp::kRefine;
  refine2.sources = {student_};
  refine2.added = {reg};
  ClassId sp2 = graph_.AddVirtualClass("Student''", refine2).value();
  TypeSet t = graph_.EffectiveType(sp2).value();
  EXPECT_TRUE(t.ContainsName("register"));
  EXPECT_TRUE(t.ContainsName("major"));
  EXPECT_EQ(t.size(), graph_.EffectiveType(student_).value().size() + 1);
}

TEST_F(UniversitySchemaTest, UnionAndIntersectTypes) {
  Derivation uni;
  uni.op = DerivationOp::kUnion;
  uni.sources = {student_, staff_};
  ClassId u = graph_.AddVirtualClass("StudentOrStaff", uni).value();
  TypeSet ut = graph_.EffectiveType(u).value();
  // Lowest common supertype: only Person's properties are shared.
  EXPECT_TRUE(ut.ContainsName("name"));
  EXPECT_TRUE(ut.ContainsName("ssn"));
  EXPECT_FALSE(ut.ContainsName("major"));
  EXPECT_FALSE(ut.ContainsName("salary"));

  Derivation inter;
  inter.op = DerivationOp::kIntersect;
  inter.sources = {student_, staff_};
  ClassId i = graph_.AddVirtualClass("StudentAndStaff", inter).value();
  TypeSet it = graph_.EffectiveType(i).value();
  // Greatest common subtype: both sides' properties.
  EXPECT_TRUE(it.ContainsName("major"));
  EXPECT_TRUE(it.ContainsName("salary"));
}

TEST_F(UniversitySchemaTest, ExtentSubsumption) {
  // Base edges.
  EXPECT_TRUE(graph_.ExtentSubsumedBy(ta_, person_));
  EXPECT_TRUE(graph_.ExtentSubsumedBy(grad_, student_));
  EXPECT_FALSE(graph_.ExtentSubsumedBy(person_, student_));
  EXPECT_FALSE(graph_.ExtentSubsumedBy(student_, staff_));

  // select ⊆ source ⊆ ...
  Derivation sel;
  sel.op = DerivationOp::kSelect;
  sel.sources = {student_};
  sel.predicate = MethodExpr::Lit(Value::Bool(true));
  ClassId sub = graph_.AddVirtualClass("Sel", sel).value();
  EXPECT_TRUE(graph_.ExtentSubsumedBy(sub, student_));
  EXPECT_TRUE(graph_.ExtentSubsumedBy(sub, person_));
  EXPECT_FALSE(graph_.ExtentSubsumedBy(student_, sub));

  // hide/refine preserve extents in both directions.
  Derivation hide;
  hide.op = DerivationOp::kHide;
  hide.sources = {student_};
  hide.hidden = {"major"};
  ClassId h = graph_.AddVirtualClass("H", hide).value();
  EXPECT_TRUE(graph_.ExtentEquivalent(h, student_));

  Derivation refine;
  refine.op = DerivationOp::kRefine;
  refine.sources = {student_};
  ClassId r = graph_.AddVirtualClass("R", refine).value();
  EXPECT_TRUE(graph_.ExtentEquivalent(r, student_));
}

TEST_F(UniversitySchemaTest, UnionSubsumptionUsesConjunctiveRule) {
  Derivation uni;
  uni.op = DerivationOp::kUnion;
  uni.sources = {student_, staff_};
  ClassId u = graph_.AddVirtualClass("U", uni).value();
  // Sources flow into the union.
  EXPECT_TRUE(graph_.ExtentSubsumedBy(student_, u));
  EXPECT_TRUE(graph_.ExtentSubsumedBy(staff_, u));
  EXPECT_TRUE(graph_.ExtentSubsumedBy(ta_, u));
  // The union is inside any common upper bound of both sources.
  EXPECT_TRUE(graph_.ExtentSubsumedBy(u, person_));
  // But not inside either source alone.
  EXPECT_FALSE(graph_.ExtentSubsumedBy(u, student_));
  // union(Student, TA) is extent-equivalent to Student (TA ⊆ Student).
  Derivation uni2;
  uni2.op = DerivationOp::kUnion;
  uni2.sources = {student_, ta_};
  ClassId u2 = graph_.AddVirtualClass("U2", uni2).value();
  EXPECT_TRUE(graph_.ExtentEquivalent(u2, student_));
}

TEST_F(UniversitySchemaTest, IsaSubsumptionNeedsTypeCoverage) {
  // refine(Student) + register covers Student's names and is extent-
  // equal: subsumed both directions extent-wise, but is-a only downward.
  Derivation refine;
  refine.op = DerivationOp::kRefine;
  refine.sources = {student_};
  ClassId r = graph_.AddVirtualClass("R", refine).value();
  PropertyDefId reg =
      graph_
          .DefineProperty(
              PropertySpec::Attribute("register", ValueType::kBool), r)
          .value();
  Derivation refine2;
  refine2.op = DerivationOp::kRefine;
  refine2.sources = {student_};
  refine2.added = {reg};
  ClassId r2 = graph_.AddVirtualClass("R2", refine2).value();
  EXPECT_TRUE(graph_.IsaSubsumedBy(r2, student_));
  EXPECT_FALSE(graph_.IsaSubsumedBy(student_, r2));  // lacks `register`

  // hide class is a SUPERclass: extent equal, type smaller.
  Derivation hide;
  hide.op = DerivationOp::kHide;
  hide.sources = {student_};
  hide.hidden = {"major"};
  ClassId h = graph_.AddVirtualClass("H", hide).value();
  EXPECT_TRUE(graph_.IsaSubsumedBy(student_, h));
  EXPECT_FALSE(graph_.IsaSubsumedBy(h, student_));
}

TEST_F(UniversitySchemaTest, DuplicateDetection) {
  Derivation sel;
  sel.op = DerivationOp::kSelect;
  sel.sources = {student_};
  sel.predicate = MethodExpr::Lit(Value::Bool(true));
  ClassId a = graph_.AddVirtualClass("DupA", sel).value();

  // A hide class hiding nothing is extent- and type-identical to its
  // source — a duplicate even under a different name.
  Derivation hide_nothing;
  hide_nothing.op = DerivationOp::kHide;
  hide_nothing.sources = {student_};
  ClassId dup = graph_.AddVirtualClass("DupB", hide_nothing).value();
  EXPECT_TRUE(graph_.IsDuplicateOf(dup, student_));
  EXPECT_FALSE(graph_.IsDuplicateOf(a, student_));  // select narrows extent
  EXPECT_FALSE(graph_.IsDuplicateOf(student_, student_));
}

TEST_F(UniversitySchemaTest, OriginClasses) {
  // Chain: select(Student) -> refine(sel) ; union with Staff.
  Derivation sel;
  sel.op = DerivationOp::kSelect;
  sel.sources = {student_};
  sel.predicate = MethodExpr::Lit(Value::Bool(true));
  ClassId s1 = graph_.AddVirtualClass("S1", sel).value();
  Derivation refine;
  refine.op = DerivationOp::kRefine;
  refine.sources = {s1};
  ClassId s2 = graph_.AddVirtualClass("S2", refine).value();
  Derivation uni;
  uni.op = DerivationOp::kUnion;
  uni.sources = {s2, staff_};
  ClassId s3 = graph_.AddVirtualClass("S3", uni).value();

  EXPECT_EQ(graph_.OriginClasses(student_).value(),
            std::vector<ClassId>{student_});
  EXPECT_EQ(graph_.OriginClasses(s2).value(),
            std::vector<ClassId>{student_});
  auto origins = graph_.OriginClasses(s3).value();
  ASSERT_EQ(origins.size(), 2u);
  EXPECT_EQ(origins[0], student_);
  EXPECT_EQ(origins[1], staff_);
}

TEST_F(UniversitySchemaTest, DerivedIndexTracksSources) {
  Derivation sel;
  sel.op = DerivationOp::kSelect;
  sel.sources = {student_};
  sel.predicate = MethodExpr::Lit(Value::Bool(true));
  ClassId s1 = graph_.AddVirtualClass("S1", sel).value();
  auto derived = graph_.DerivedFrom(student_);
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0], s1);
  EXPECT_TRUE(graph_.DerivedFrom(grad_).empty());
}

TEST_F(UniversitySchemaTest, ClassifiedDagEdges) {
  // Declared base edges seed the DAG.
  auto supers = graph_.DirectSupers(ta_).value();
  EXPECT_EQ(supers.size(), 2u);
  auto subs = graph_.DirectSubs(person_).value();
  EXPECT_EQ(subs.size(), 2u);  // Student, Staff
  auto trans = graph_.TransitiveSupers(ta_).value();
  EXPECT_EQ(trans.size(), 5u);  // TA, Student, Staff, Person, OBJECT
  auto tsubs = graph_.TransitiveSubs(person_).value();
  EXPECT_EQ(tsubs.size(), 5u);  // everyone

  // Manual edge maintenance.
  Derivation hide;
  hide.op = DerivationOp::kHide;
  hide.sources = {person_};
  hide.hidden = {"ssn"};
  ClassId h = graph_.AddVirtualClass("H", hide).value();
  ASSERT_TRUE(graph_.AddIsaEdge(person_, h).ok());
  EXPECT_EQ(graph_.DirectSupers(person_).value().size(), 2u);  // OBJECT + H
  ASSERT_TRUE(graph_.RemoveIsaEdge(person_, h).ok());
  EXPECT_TRUE(graph_.RemoveIsaEdge(person_, h).IsNotFound());
  EXPECT_FALSE(graph_.AddIsaEdge(person_, person_).ok());
}

TEST_F(UniversitySchemaTest, InvalidDerivationsRejected) {
  Derivation bad;
  bad.op = DerivationOp::kSelect;
  bad.sources = {student_, staff_};  // select takes one source
  EXPECT_FALSE(graph_.AddVirtualClass("Bad", bad).ok());

  Derivation nopred;
  nopred.op = DerivationOp::kSelect;
  nopred.sources = {student_};
  EXPECT_FALSE(graph_.AddVirtualClass("Bad2", nopred).ok());

  Derivation badsrc;
  badsrc.op = DerivationOp::kHide;
  badsrc.sources = {ClassId(999)};
  EXPECT_FALSE(graph_.AddVirtualClass("Bad3", badsrc).ok());

  Derivation base;
  base.op = DerivationOp::kBase;
  EXPECT_FALSE(graph_.AddVirtualClass("Bad4", base).ok());
}

TEST_F(UniversitySchemaTest, LocalPropertyOnlyOnBaseClasses) {
  PropertyDefId def =
      graph_
          .DefineProperty(PropertySpec::Attribute("x", ValueType::kInt),
                          person_)
          .value();
  EXPECT_TRUE(graph_.AddLocalProperty(person_, def).ok());
  Derivation hide;
  hide.op = DerivationOp::kHide;
  hide.sources = {person_};
  ClassId h = graph_.AddVirtualClass("H", hide).value();
  EXPECT_FALSE(graph_.AddLocalProperty(h, def).ok());
}

TEST_F(UniversitySchemaTest, ToDotRendersAllClasses) {
  std::string dot = graph_.ToDot();
  EXPECT_NE(dot.find("\"TA\" -> \"Student\""), std::string::npos);
  EXPECT_NE(dot.find("\"Person\" [shape=box]"), std::string::npos);
}

TEST_F(UniversitySchemaTest, RemovedDuplicateLeavesAHole) {
  Derivation hide;
  hide.op = DerivationOp::kHide;
  hide.sources = {student_};
  hide.hidden = {"major"};
  ClassId keep = graph_.AddVirtualClass("Keep", hide).value();
  ClassId dup = graph_.AddVirtualClass("Dup", hide).value();
  ClassId after = graph_.AddVirtualClass("After", hide).value();
  ASSERT_TRUE(graph_.IsDuplicateOf(dup, keep));
  const size_t before = graph_.class_count();
  ASSERT_TRUE(graph_.RemoveClass(dup).ok());

  EXPECT_EQ(graph_.class_count(), before - 1);
  EXPECT_TRUE(graph_.GetClass(dup).status().IsNotFound());
  EXPECT_FALSE(graph_.HasClass(dup));
  EXPECT_EQ(graph_.class_version(dup), 0u);
  EXPECT_TRUE(graph_.EffectiveType(dup).status().IsNotFound());
  EXPECT_TRUE(graph_.FindClass("Dup").status().IsNotFound());
  // The hole is skipped, in id order.
  std::vector<ClassId> all = graph_.AllClasses();
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(std::count(all.begin(), all.end(), dup), 0);
  EXPECT_EQ(graph_.ClassesFrom(dup), (std::vector<ClassId>{after}));
  EXPECT_EQ(graph_.DerivedFrom(student_), (std::vector<ClassId>{keep, after}));
  // Proofs neither start from nor pass through the removed class.
  EXPECT_FALSE(graph_.ExtentSubsumedBy(dup, student_));
  EXPECT_FALSE(graph_.ExtentSubsumedBy(student_, dup));
  EXPECT_FALSE(graph_.IsaSubsumedBy(dup, person_));
  EXPECT_TRUE(graph_.ExtentEquivalent(student_, after));
  EXPECT_TRUE(graph_.IsaSubsumedBy(student_, after));
  // Ids are never reused.
  Derivation sel;
  sel.op = DerivationOp::kSelect;
  sel.sources = {student_};
  sel.predicate = MethodExpr::Lit(Value::Bool(true));
  ClassId next = graph_.AddVirtualClass("Next", sel).value();
  EXPECT_LT(after, next);
}

TEST(SchemaGraphTableTest, IdsOutsideTheTableAreNotFound) {
  SchemaGraph graph;
  ClassId a = graph.AddBaseClass("A", {}, {}).value();
  for (ClassId id : {ClassId(a.value() + 1), ClassId(uint64_t{1} << 40),
                     ClassId()}) {
    EXPECT_TRUE(graph.GetClass(id).status().IsNotFound()) << id.ToString();
    EXPECT_FALSE(graph.HasClass(id));
    EXPECT_EQ(graph.class_version(id), 0u);
    EXPECT_TRUE(graph.EffectiveType(id).status().IsNotFound());
    EXPECT_TRUE(graph.DirectSubs(id).status().IsNotFound());
    EXPECT_TRUE(graph.DerivedFrom(id).empty());
    EXPECT_FALSE(graph.ExtentSubsumedBy(id, a));
    EXPECT_FALSE(graph.ExtentSubsumedBy(a, id));
    EXPECT_FALSE(graph.IsaSubsumedBy(a, id));
    EXPECT_FALSE(graph.IsDuplicateOf(id, a));
    EXPECT_TRUE(graph.ClassesFrom(id).empty());
    EXPECT_TRUE(graph.GetProperty(PropertyDefId(id.value()))
                    .status()
                    .IsNotFound());
  }
  EXPECT_EQ(graph.AllClasses(), (std::vector<ClassId>{graph.root(), a}));
}

TEST(SchemaGraphTableTest, RestoreWithNonContiguousIds) {
  SchemaGraph graph;
  PropertyDef ssn;
  ssn.id = PropertyDefId(9);
  ssn.name = "ssn";
  ssn.value_type = ValueType::kInt;
  ssn.definer = ClassId(4);
  ASSERT_TRUE(graph.RestoreProperty(ssn).ok());
  EXPECT_FALSE(graph.RestoreProperty(ssn).ok());

  ClassNode person;
  person.id = ClassId(4);
  person.name = "Person";
  person.local_props = {ssn.id};
  person.declared_supers = {graph.root()};
  person.supers = {graph.root()};
  ASSERT_TRUE(graph.RestoreClass(person).ok());
  ClassNode student;
  student.id = ClassId(11);
  student.name = "Student";
  student.declared_supers = {person.id};
  student.supers = {person.id};
  ASSERT_TRUE(graph.RestoreClass(student).ok());
  ClassNode picked;
  picked.id = ClassId(30);
  picked.name = "Picked";
  picked.derivation.op = DerivationOp::kSelect;
  picked.derivation.sources = {student.id};
  picked.derivation.predicate = MethodExpr::Lit(Value::Bool(true));
  picked.supers = {student.id};
  ASSERT_TRUE(graph.RestoreClass(picked).ok());
  graph.RestoreAllocators(31, 10);

  // A re-restore and an id the tables refuse both fail cleanly.
  EXPECT_FALSE(graph.RestoreClass(student).ok());
  ClassNode huge = student;
  huge.id = ClassId(uint64_t{1} << 40);
  huge.name = "Huge";
  EXPECT_EQ(graph.RestoreClass(huge).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(graph.GetClass(huge.id).status().IsNotFound());

  EXPECT_EQ(graph.AllClasses(),
            (std::vector<ClassId>{graph.root(), person.id, student.id,
                                  picked.id}));
  EXPECT_EQ(graph.ClassesFrom(ClassId(5)),
            (std::vector<ClassId>{student.id, picked.id}));
  for (uint64_t hole : {1, 5, 12, 29}) {
    EXPECT_TRUE(graph.GetClass(ClassId(hole)).status().IsNotFound());
  }
  EXPECT_TRUE(graph.ExtentSubsumedBy(picked.id, person.id));
  EXPECT_TRUE(graph.IsaSubsumedBy(picked.id, person.id));
  EXPECT_FALSE(graph.IsaSubsumedBy(person.id, picked.id));
  EXPECT_EQ(graph.DirectSubs(student.id).value(),
            (std::vector<ClassId>{picked.id}));
  EXPECT_TRUE(graph.EffectiveType(picked.id).value().ContainsName("ssn"));
  // Allocation continues above the restored ids.
  ClassId next = graph.AddBaseClass("Next", {student.id}, {}).value();
  EXPECT_EQ(next, ClassId(31));
  EXPECT_TRUE(graph.IsaSubsumedBy(next, person.id));
}

/// Every base and derivation kind over Figure 2's schema, including two
/// refine twins (the same fresh attribute added twice) and a refine
/// adding a same-named attribute of another type. Returns the classes
/// and sets `twins` to the twin pair.
std::vector<ClassId> BuildZoo(SchemaGraph* g,
                              std::pair<ClassId, ClassId>* twins) {
  ClassId person =
      g->AddBaseClass("Person", {},
                      {PropertySpec::Attribute("name", ValueType::kString),
                       PropertySpec::Attribute("ssn", ValueType::kInt)})
          .value();
  ClassId student =
      g->AddBaseClass("Student", {person},
                      {PropertySpec::Attribute("major", ValueType::kString)})
          .value();
  ClassId staff =
      g->AddBaseClass("Staff", {person},
                      {PropertySpec::Attribute("salary", ValueType::kInt)})
          .value();
  ClassId ta = g->AddBaseClass("TA", {student, staff}, {}).value();
  std::vector<ClassId> out = {g->root(), person, student, staff, ta};
  auto define = [&](const std::string& name, DerivationOp op,
                    std::vector<ClassId> sources,
                    std::vector<std::string> hidden = {}) {
    Derivation d;
    d.op = op;
    d.sources = std::move(sources);
    d.hidden = std::move(hidden);
    if (op == DerivationOp::kSelect) {
      d.predicate = MethodExpr::Ge(MethodExpr::Attr("ssn"),
                                   MethodExpr::Lit(Value::Int(5)));
    }
    out.push_back(g->AddVirtualClass(name, std::move(d)).value());
    return out.back();
  };
  ClassId picked = define("Picked", DerivationOp::kSelect, {student});
  define("NoSsn", DerivationOp::kHide, {person}, {"ssn"});
  define("NoName", DerivationOp::kHide, {person}, {"name"});
  define("Either", DerivationOp::kUnion, {student, staff});
  define("NonStudent", DerivationOp::kDifference, {person, student});
  define("Both", DerivationOp::kIntersect, {student, staff});
  define("PickedTA", DerivationOp::kIntersect, {picked, ta});
  auto refine = [&](const std::string& name, ValueType type) {
    out.push_back(
        g->AddRefineClass(name, student,
                          {PropertySpec::Attribute("reg", type)}, {})
            .value());
    return out.back();
  };
  twins->first = refine("Reg1", ValueType::kBool);
  twins->second = refine("Reg2", ValueType::kBool);
  refine("RegInt", ValueType::kInt);
  return out;
}

/// IsaSubsumedBy / IsDuplicateOf answers over every ordered pair.
struct PairAnswers {
  std::vector<bool> isa, dup;
  bool operator==(const PairAnswers&) const = default;
};

PairAnswers Predicates(const SchemaGraph& g, const std::vector<ClassId>& cs) {
  PairAnswers out;
  for (ClassId a : cs) {
    for (ClassId b : cs) {
      out.isa.push_back(g.IsaSubsumedBy(a, b));
      out.dup.push_back(g.IsDuplicateOf(a, b));
    }
  }
  return out;
}

/// The same answers from the extent predicates and the type test done by
/// hand: is-a = extent ⊆ and names covered; duplicate = extents equal
/// and bindings equal (or the pair is the zoo's refine twins).
PairAnswers ByHand(const SchemaGraph& g, const std::vector<ClassId>& cs,
                   std::pair<ClassId, ClassId> twins) {
  PairAnswers out;
  for (ClassId a : cs) {
    for (ClassId b : cs) {
      TypeSet ta = g.EffectiveType(a).value();
      TypeSet tb = g.EffectiveType(b).value();
      out.isa.push_back(g.ExtentSubsumedBy(a, b) && ta.CoversNamesOf(tb));
      bool twin = (a == twins.first && b == twins.second) ||
                  (a == twins.second && b == twins.first);
      out.dup.push_back(a != b && g.ExtentEquivalent(a, b) &&
                        (ta == tb || twin));
    }
  }
  return out;
}

TEST(SubsumptionOrderTest, PredicatesMatchExtentAndTypeTestsInBothOrders) {
  // The predicates test types before extents and share memos with the
  // extent queries; neither the order inside them nor the order in
  // which queries arrive may change an answer.
  SchemaGraph predicates_first, by_hand_first;
  std::pair<ClassId, ClassId> twins, twins2;
  std::vector<ClassId> cs = BuildZoo(&predicates_first, &twins);
  std::vector<ClassId> cs2 = BuildZoo(&by_hand_first, &twins2);
  ASSERT_EQ(cs, cs2);

  PairAnswers p1 = Predicates(predicates_first, cs);
  PairAnswers h1 = ByHand(predicates_first, cs, twins);
  PairAnswers h2 = ByHand(by_hand_first, cs, twins);
  PairAnswers p2 = Predicates(by_hand_first, cs);
  EXPECT_TRUE(p1 == h1);
  EXPECT_TRUE(p2 == h2);
  EXPECT_TRUE(p1 == p2);

  // The zoo exercises both answers of both predicates.
  auto at = [&](const std::vector<bool>& m, ClassId a, ClassId b) {
    size_t i = std::find(cs.begin(), cs.end(), a) - cs.begin();
    size_t j = std::find(cs.begin(), cs.end(), b) - cs.begin();
    return m[i * cs.size() + j];
  };
  EXPECT_TRUE(at(p1.dup, twins.first, twins.second));
  EXPECT_TRUE(at(p1.isa, cs[4], cs[1]));   // TA is-a Person
  EXPECT_FALSE(at(p1.isa, cs[1], cs[4]));  // Person is not a TA
  size_t positives = 0;
  for (bool v : p1.isa) positives += v;
  EXPECT_GT(positives, cs.size());
  EXPECT_LT(positives, cs.size() * cs.size() / 2);
}

TEST(SubsumptionOrderTest, QueriesRunConcurrentlyWithDdl) {
  // Readers hold pointers into the type memo under the shared graph
  // latch, one query at a time and in batches under a ReadHold, while a
  // DDL thread defines classes and properties, which drops memo entries
  // under the exclusive latch. Run under TSan/ASan.
  SchemaGraph g;
  std::pair<ClassId, ClassId> twins;
  std::vector<ClassId> cs = BuildZoo(&g, &twins);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<size_t> queries{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load()) {
        ClassId a = cs[i % cs.size()];
        ClassId b = cs[(i / cs.size() + t) % cs.size()];
        (void)g.IsaSubsumedBy(a, b);
        (void)g.IsDuplicateOf(a, b);
        (void)g.ResolveProperty(a, "name");
        {
          // A batch under one hold, as a placement search runs: type
          // memo reads without memo_mu_ race the DDL thread's drops.
          const SchemaGraph::ReadHold hold(g);
          auto ta = hold.Type(a);
          auto tb = hold.Type(b);
          if (ta.ok() && tb.ok()) (void)ta.value()->CoversNamesOf(*tb.value());
          (void)hold.IsaSubsumedBy(a, b);
          (void)hold.ExtentEquivalent(b, a);
          (void)hold.IsDuplicateOf(b, a);
          if (const ClassNode* node = hold.Find(a)) (void)node->subs.size();
        }
        ++i;
        queries.fetch_add(1);
        // Pace the readers: enough to interleave with every DDL step
        // without starving the exclusive latch or loading the machine.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
  }
  while (queries.load() < 3) std::this_thread::yield();
  // No ASSERT before the readers are joined: an early return would
  // destroy joinable threads.
  for (int i = 0; i < 40; ++i) {
    auto refine = g.AddRefineClass(
        StrCat("R", i), cs[2],
        {PropertySpec::Attribute(StrCat("r", i), ValueType::kInt)}, {});
    EXPECT_TRUE(refine.ok());
    if (!refine.ok()) break;
    EXPECT_TRUE(g.IsaSubsumedBy(refine.value(), cs[2]));
    auto def = g.DefineProperty(
        PropertySpec::Attribute(StrCat("l", i), ValueType::kInt), cs[1]);
    EXPECT_TRUE(def.ok());
    if (!def.ok()) break;
    EXPECT_TRUE(g.AddLocalProperty(cs[1], def.value()).ok());
    if (i % 2 == 0) {
      EXPECT_TRUE(g.RemoveClass(refine.value()).ok());
    }
  }
  done.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_TRUE(g.IsaSubsumedBy(cs[4], cs[1]));
}

}  // namespace
}  // namespace tse::schema
