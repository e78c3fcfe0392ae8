// View-generation edge cases: extent-equivalent classes selected
// together, diamond hierarchies, views over virtual-only selections,
// and ToDot/ToString stability used by tooling.

#include <gtest/gtest.h>

#include "algebra/processor.h"
#include "algebra/query.h"
#include "classifier/classifier.h"
#include "view/view_manager.h"

namespace tse::view {
namespace {

using algebra::AlgebraProcessor;
using algebra::Query;
using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;
using schema::SchemaGraph;

class ViewEdgeCasesTest : public ::testing::Test {
 protected:
  ViewEdgeCasesTest() : proc_(&graph_), classifier_(&graph_) {
    a_ = graph_
             .AddBaseClass("A", {},
                           {PropertySpec::Attribute("x", ValueType::kInt)})
             .value();
    b_ = graph_
             .AddBaseClass("B", {a_},
                           {PropertySpec::Attribute("y", ValueType::kInt)})
             .value();
    c_ = graph_
             .AddBaseClass("C", {a_},
                           {PropertySpec::Attribute("z", ValueType::kInt)})
             .value();
    d_ = graph_.AddBaseClass("D", {b_, c_}, {}).value();
  }

  ClassId Define(const std::string& name, Query::Ptr q) {
    ClassId cls = proc_.DefineVC(name, q).value();
    return classifier_.Classify(cls).value().cls;
  }

  SchemaGraph graph_;
  AlgebraProcessor proc_;
  classifier::Classifier classifier_;
  ClassId a_, b_, c_, d_;
};

TEST_F(ViewEdgeCasesTest, DiamondGeneratesBothEdges) {
  ViewManager vm(&graph_);
  ViewId id = vm.CreateVersion("VS", {{a_, ""}, {b_, ""}, {c_, ""},
                                      {d_, ""}})
                  .value();
  const ViewSchema* vs = vm.GetView(id).value();
  std::vector<ClassId> d_supers = vs->DirectSupers(d_);
  std::set<ClassId> supers(d_supers.begin(), d_supers.end());
  EXPECT_EQ(supers.size(), 2u);
  EXPECT_TRUE(supers.count(b_));
  EXPECT_TRUE(supers.count(c_));
  // No redundant direct D -> A edge.
  EXPECT_FALSE(supers.count(a_));
}

TEST_F(ViewEdgeCasesTest, EquivalentClassesOrderDeterministically) {
  // E overrides B's y. Hiding E's y and re-importing B's definition (what
  // delete_attribute does to an overriding attribute, Section 6.2.2)
  // gives a class with E's extent and names but another binding: it is-a
  // subsumes E both ways without being a duplicate, so the classified
  // DAG holds an is-a cycle between the two. Selecting both must produce
  // a deterministic (id-ordered) edge, never a cycle.
  ClassId e =
      graph_
          .AddBaseClass("E", {b_},
                        {PropertySpec::Attribute("y", ValueType::kReal)})
          .value();
  PropertyDefId b_y = graph_.ResolveProperty(b_, "y").value()->id;
  ClassId hidden = Define("EHidden", Query::Hide(Query::Class("E"), {"y"}));
  ClassId twin = graph_.AddRefineClass("ETwin", hidden, {}, {b_y}).value();
  ASSERT_EQ(classifier_.Classify(twin).value().cls, twin);
  ASSERT_TRUE(graph_.IsaSubsumedBy(e, twin));
  ASSERT_TRUE(graph_.IsaSubsumedBy(twin, e));
  ViewManager vm(&graph_);
  ViewId id = vm.CreateVersion("VS", {{e, ""}, {twin, ""}}).value();
  const ViewSchema* vs = vm.GetView(id).value();
  // One direct edge between the two, the lower id as the subclass, and
  // acyclic.
  bool e_under_twin = !vs->DirectSupers(e).empty();
  bool twin_under_e = !vs->DirectSupers(twin).empty();
  EXPECT_NE(e_under_twin, twin_under_e);
  EXPECT_EQ(e_under_twin, e < twin);
  std::set<ClassId> closure = vs->TransitiveSupers(e);
  EXPECT_LE(closure.size(), 2u);

  // A hide-nothing twin of B left unclassified has no place in the DAG,
  // so the view refuses it by name instead of guessing its edges.
  schema::Derivation hide_nothing;
  hide_nothing.op = schema::DerivationOp::kHide;
  hide_nothing.sources = {b_};
  ClassId unplaced = graph_.AddVirtualClass("BTwin", hide_nothing).value();
  Result<ViewId> refused = vm.CreateVersion("VS", {{b_, ""}, {unplaced, ""}});
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("BTwin"), std::string::npos);
}

TEST_F(ViewEdgeCasesTest, VirtualOnlyViewGeneratesHierarchy) {
  ClassId big = Define(
      "Big", Query::Select(Query::Class("B"),
                           MethodExpr::Ge(MethodExpr::Attr("y"),
                                          MethodExpr::Lit(Value::Int(10)))));
  ClassId big_and_d =
      Define("BigD", Query::Intersect(Query::Class("Big"),
                                      Query::Class("D")));
  ViewManager vm(&graph_);
  ViewId id = vm.CreateVersion("VS", {{big, ""}, {big_and_d, ""}}).value();
  const ViewSchema* vs = vm.GetView(id).value();
  EXPECT_EQ(vs->DirectSupers(big_and_d), std::vector<ClassId>{big});
  EXPECT_TRUE(vs->DirectSupers(big).empty());
}

TEST_F(ViewEdgeCasesTest, SingleClassViewIsValid) {
  ViewManager vm(&graph_);
  ViewId id = vm.CreateVersion("Solo", {{d_, "OnlyD"}}).value();
  const ViewSchema* vs = vm.GetView(id).value();
  EXPECT_EQ(vs->size(), 1u);
  EXPECT_TRUE(vs->DirectSupers(d_).empty());
  EXPECT_EQ(vs->ToString(), "OnlyD");
  // The class still shows its full inherited type.
  EXPECT_TRUE(graph_.EffectiveType(d_).value().ContainsName("x"));
}

TEST_F(ViewEdgeCasesTest, HistoriesAreIndependentAcrossLogicalNames) {
  ViewManager vm(&graph_);
  ViewId v1 = vm.CreateVersion("U1", {{a_, ""}}).value();
  ViewId v2 = vm.CreateVersion("U2", {{a_, ""}, {b_, ""}}).value();
  ViewId v3 = vm.CreateVersion("U1", {{a_, ""}, {c_, ""}}).value();
  EXPECT_EQ(vm.History("U1"), (std::vector<ViewId>{v1, v3}));
  EXPECT_EQ(vm.History("U2"), (std::vector<ViewId>{v2}));
  EXPECT_EQ(vm.GetView(v3).value()->version(), 2);
  EXPECT_EQ(vm.GetView(v2).value()->version(), 1);
}

TEST_F(ViewEdgeCasesTest, DotRenderingContainsAllViewlessClasses) {
  // ToDot on the global schema covers base and virtual classes.
  ClassId sel = Define(
      "Sel", Query::Select(Query::Class("A"),
                           MethodExpr::Lt(MethodExpr::Attr("x"),
                                          MethodExpr::Lit(Value::Int(5)))));
  (void)sel;
  std::string dot = graph_.ToDot();
  EXPECT_NE(dot.find("\"Sel\" [shape=ellipse]"), std::string::npos);
  EXPECT_NE(dot.find("\"D\" [shape=box]"), std::string::npos);
  EXPECT_NE(dot.find("\"Sel\" -> \"A\""), std::string::npos);
}

}  // namespace
}  // namespace tse::view
