#include <gtest/gtest.h>

#include "algebra/extent_eval.h"
#include "algebra/object_accessor.h"
#include "algebra/processor.h"
#include "algebra/query.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"

namespace tse::algebra {
namespace {

using objmodel::MethodExpr;
using objmodel::SlicingStore;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;
using schema::SchemaGraph;

/// University schema (Figure 2) with a small population.
class AlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    person_ = graph_
                  .AddBaseClass(
                      "Person", {},
                      {PropertySpec::Attribute("name", ValueType::kString),
                       PropertySpec::Attribute("age", ValueType::kInt)})
                  .value();
    student_ = graph_
                   .AddBaseClass(
                       "Student", {person_},
                       {PropertySpec::Attribute("gpa", ValueType::kReal)})
                   .value();
    ta_ = graph_
              .AddBaseClass("TA", {student_},
                            {PropertySpec::Attribute("lecture",
                                                     ValueType::kString)})
              .value();

    // Population: 2 plain persons, 2 students, 1 TA.
    MakePerson(person_, "pat", 50);
    MakePerson(person_, "quinn", 60);
    s1_ = MakeStudent("alice", 20, 3.9);
    s2_ = MakeStudent("bob", 22, 2.9);
    ta1_ = MakeTa("carol", 24, 3.5, "db101");
  }

  Oid MakePerson(ClassId cls, const std::string& name, int age) {
    Oid o = store_.CreateObject();
    EXPECT_TRUE(store_.AddMembership(o, cls).ok());
    ObjectAccessor acc(&graph_, &store_);
    EXPECT_TRUE(acc.Write(o, cls, "name", Value::Str(name)).ok());
    EXPECT_TRUE(acc.Write(o, cls, "age", Value::Int(age)).ok());
    return o;
  }

  Oid MakeStudent(const std::string& name, int age, double gpa) {
    Oid o = MakePerson(student_, name, age);
    ObjectAccessor acc(&graph_, &store_);
    EXPECT_TRUE(acc.Write(o, student_, "gpa", Value::Real(gpa)).ok());
    return o;
  }

  Oid MakeTa(const std::string& name, int age, double gpa,
             const std::string& lecture) {
    Oid o = MakePerson(ta_, name, age);
    ObjectAccessor acc(&graph_, &store_);
    EXPECT_TRUE(acc.Write(o, ta_, "gpa", Value::Real(gpa)).ok());
    EXPECT_TRUE(acc.Write(o, ta_, "lecture", Value::Str(lecture)).ok());
    return o;
  }

  SchemaGraph graph_;
  SlicingStore store_;
  ClassId person_, student_, ta_;
  Oid s1_, s2_, ta1_;
};

TEST_F(AlgebraTest, AccessorReadsInheritedAttributes) {
  ObjectAccessor acc(&graph_, &store_);
  // `name` is defined at Person but readable through the TA context.
  EXPECT_EQ(acc.Read(ta1_, ta_, "name").value(), Value::Str("carol"));
  EXPECT_EQ(acc.Read(ta1_, ta_, "lecture").value(), Value::Str("db101"));
  // The value lives in the Person slice regardless of access context.
  EXPECT_EQ(acc.Read(ta1_, person_, "name").value(), Value::Str("carol"));
}

TEST_F(AlgebraTest, AccessorRejectsUnknownAndMethodWrites) {
  ObjectAccessor acc(&graph_, &store_);
  EXPECT_TRUE(acc.Read(s1_, student_, "ghost").status().IsNotFound());
  EXPECT_FALSE(acc.Write(s1_, person_, "gpa", Value::Real(4.0)).ok());
}

TEST_F(AlgebraTest, MethodsEvaluateOverAttributes) {
  // Add a method class: adult() = age >= 18.
  ClassId adults =
      graph_
          .AddRefineClass(
              "PersonWithAdult", person_,
              {PropertySpec::Method(
                  "is_adult",
                  MethodExpr::Ge(MethodExpr::Attr("age"),
                                 MethodExpr::Lit(Value::Int(18))),
                  ValueType::kBool)},
              {})
          .value();
  ObjectAccessor acc(&graph_, &store_);
  EXPECT_EQ(acc.Read(s1_, adults, "is_adult").value(), Value::Bool(true));
}

TEST_F(AlgebraTest, BaseExtentsIncludeSubclassMembers) {
  ExtentEvaluator eval(&graph_, &store_);
  EXPECT_EQ(eval.Extent(person_).value()->size(), 5u);
  EXPECT_EQ(eval.Extent(student_).value()->size(), 3u);  // s1, s2, ta1
  EXPECT_EQ(eval.Extent(ta_).value()->size(), 1u);
  EXPECT_TRUE(eval.IsMember(ta1_, person_).value());
  EXPECT_FALSE(eval.IsMember(s1_, ta_).value());
}

TEST_F(AlgebraTest, SelectFiltersByPredicate) {
  AlgebraProcessor proc(&graph_);
  ClassId honor =
      proc.DefineVC("HonorStudent",
                    Query::Select(Query::Class("Student"),
                                  MethodExpr::Ge(MethodExpr::Attr("gpa"),
                                                 MethodExpr::Lit(
                                                     Value::Real(3.4)))))
          .value();
  ExtentEvaluator eval(&graph_, &store_);
  std::set<Oid> extent = *eval.Extent(honor).value();
  EXPECT_EQ(extent.size(), 2u);  // alice (3.9), carol (3.5)
  EXPECT_TRUE(extent.count(s1_));
  EXPECT_TRUE(extent.count(ta1_));
  EXPECT_FALSE(extent.count(s2_));
}

TEST_F(AlgebraTest, HideKeepsExtentDropsProperty) {
  AlgebraProcessor proc(&graph_);
  ClassId ageless =
      proc.DefineVC("AgelessPerson",
                    Query::Hide(Query::Class("Person"), {"age"}))
          .value();
  ExtentEvaluator eval(&graph_, &store_);
  EXPECT_EQ(eval.Extent(ageless).value()->size(), 5u);
  ObjectAccessor acc(&graph_, &store_);
  EXPECT_TRUE(acc.Read(s1_, ageless, "age").status().IsNotFound());
  EXPECT_EQ(acc.Read(s1_, ageless, "name").value(), Value::Str("alice"));
  // Hiding a nonexistent property is rejected.
  EXPECT_FALSE(
      proc.DefineVC("Bad", Query::Hide(Query::Class("Person"), {"nope"}))
          .ok());
}

TEST_F(AlgebraTest, CapacityAugmentingRefineStoresNewData) {
  AlgebraProcessor proc(&graph_);
  ClassId student_prime =
      proc.DefineVC("Student'",
                    Query::Refine(Query::Class("Student"),
                                  {PropertySpec::Attribute(
                                      "register", ValueType::kBool)}))
          .value();
  ExtentEvaluator eval(&graph_, &store_);
  // Extent unchanged (object-preserving).
  EXPECT_EQ(eval.Extent(student_prime).value()->size(), 3u);
  // The new stored attribute is writable and readable; default Null.
  ObjectAccessor acc(&graph_, &store_);
  EXPECT_EQ(acc.Read(s1_, student_prime, "register").value(), Value::Null());
  ASSERT_TRUE(
      acc.Write(s1_, student_prime, "register", Value::Bool(true)).ok());
  EXPECT_EQ(acc.Read(s1_, student_prime, "register").value(),
            Value::Bool(true));
  // Old data still visible through the refined class.
  EXPECT_EQ(acc.Read(s1_, student_prime, "gpa").value(), Value::Real(3.9));
  // Refining with a clashing name is rejected (Section 3.2).
  EXPECT_TRUE(proc.DefineVC("Bad",
                            Query::Refine(Query::Class("Student"),
                                          {PropertySpec::Attribute(
                                              "gpa", ValueType::kReal)}))
                  .status()
                  .IsRejected());
}

TEST_F(AlgebraTest, RefineImportSharesDefinition) {
  AlgebraProcessor proc(&graph_);
  // First augment TA with a fresh stored attribute through a refine VC.
  ClassId ta_prime =
      proc.DefineVC("TA'", Query::Refine(Query::Class("TA"),
                                         {PropertySpec::Attribute(
                                             "register", ValueType::kBool)}))
          .value();
  // Then import TA"'s register into Student via `refine TA':register`.
  ClassId student_prime =
      proc.DefineVC("Student'",
                    Query::Refine(Query::Class("Student"), {},
                                  {{"TA'", "register"}}))
          .value();
  // Both classes resolve `register` to the same definition (shared
  // storage — the paper's inheritance form).
  PropertyDefId via_ta =
      graph_.EffectiveType(ta_prime).value().Lookup("register").value();
  PropertyDefId via_student =
      graph_.EffectiveType(student_prime).value().Lookup("register").value();
  EXPECT_EQ(via_ta, via_student);
  // A write through one context is visible through the other.
  ObjectAccessor acc(&graph_, &store_);
  ASSERT_TRUE(acc.Write(ta1_, ta_prime, "register", Value::Bool(true)).ok());
  EXPECT_EQ(acc.Read(ta1_, student_prime, "register").value(),
            Value::Bool(true));
}

TEST_F(AlgebraTest, SetOperatorsOnExtents) {
  AlgebraProcessor proc(&graph_);
  ClassId u = proc.DefineVC("U", Query::Union(Query::Class("Student"),
                                              Query::Class("TA")))
                  .value();
  ClassId i = proc.DefineVC("I", Query::Intersect(Query::Class("Student"),
                                                  Query::Class("TA")))
                  .value();
  ClassId d = proc.DefineVC("D", Query::Difference(Query::Class("Student"),
                                                   Query::Class("TA")))
                  .value();
  ExtentEvaluator eval(&graph_, &store_);
  EXPECT_EQ(eval.Extent(u).value()->size(), 3u);  // TA ⊆ Student
  EXPECT_EQ(eval.Extent(i).value()->size(), 1u);  // just carol
  std::set<Oid> diff = *eval.Extent(d).value();
  EXPECT_EQ(diff.size(), 2u);  // alice, bob
  EXPECT_FALSE(diff.count(ta1_));
}

TEST_F(AlgebraTest, NestedQueriesCreateAuxiliaryClasses) {
  AlgebraProcessor proc(&graph_);
  size_t before = graph_.class_count();
  // Honor students among non-TAs: select over a difference.
  ClassId top =
      proc.DefineVC(
              "HonorNonTa",
              Query::Select(Query::Difference(Query::Class("Student"),
                                              Query::Class("TA")),
                            MethodExpr::Ge(MethodExpr::Attr("gpa"),
                                           MethodExpr::Lit(Value::Real(3.4)))))
          .value();
  // Two classes: the auxiliary difference and the top select.
  EXPECT_EQ(graph_.class_count(), before + 2);
  EXPECT_TRUE(graph_.FindClass("HonorNonTa$1").ok());
  ExtentEvaluator eval(&graph_, &store_);
  std::set<Oid> extent = *eval.Extent(top).value();
  EXPECT_EQ(extent.size(), 1u);
  EXPECT_TRUE(extent.count(s1_));  // alice only; carol is a TA
}

TEST_F(AlgebraTest, DefineVcRejectsBareClassRef) {
  AlgebraProcessor proc(&graph_);
  EXPECT_FALSE(proc.DefineVC("X", Query::Class("Student")).ok());
  EXPECT_FALSE(proc.DefineVC("X", nullptr).ok());
}

TEST_F(AlgebraTest, ExtentCacheInvalidatesOnMutationAndSchemaChange) {
  AlgebraProcessor proc(&graph_);
  ClassId honor =
      proc.DefineVC("Honor",
                    Query::Select(Query::Class("Student"),
                                  MethodExpr::Ge(MethodExpr::Attr("gpa"),
                                                 MethodExpr::Lit(
                                                     Value::Real(3.4)))))
          .value();
  ExtentEvaluator eval(&graph_, &store_);
  EXPECT_EQ(eval.Extent(honor).value()->size(), 2u);
  // A value write that changes predicate membership must be seen.
  ObjectAccessor acc(&graph_, &store_);
  ASSERT_TRUE(acc.Write(s2_, student_, "gpa", Value::Real(3.8)).ok());
  EXPECT_EQ(eval.Extent(honor).value()->size(), 3u);
  // A membership change must be seen.
  ASSERT_TRUE(store_.RemoveMembership(s1_, student_).ok());
  EXPECT_EQ(eval.Extent(honor).value()->size(), 2u);
  // A structural change (new derived class) must be seen.
  ClassId d = proc.DefineVC("NonHonor",
                            Query::Difference(Query::Class("Student"),
                                              Query::Class("Honor")))
                  .value();
  EXPECT_EQ(eval.Extent(d).value()->size(),
            eval.Extent(student_).value()->size() -
                eval.Extent(honor).value()->size());
  // Removing a class drops its cached extent: the next read reports the
  // class gone instead of answering from the stale entry.
  ASSERT_TRUE(graph_.RemoveClass(d).ok());
  EXPECT_TRUE(eval.Extent(d).status().IsNotFound());
  EXPECT_TRUE(eval.IsMember(s1_, d).status().IsNotFound());
}

TEST_F(AlgebraTest, QueryToStringRendersTree) {
  auto q = Query::Select(
      Query::Hide(Query::Class("Person"), {"age"}),
      MethodExpr::Eq(MethodExpr::Attr("name"),
                     MethodExpr::Lit(Value::Str("x"))));
  EXPECT_EQ(q->ToString(),
            "(select (hide age from Person) where (name == \"x\"))");
}

}  // namespace
}  // namespace tse::algebra
