#include "classifier/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/processor.h"
#include "algebra/query.h"
#include "common/random.h"
#include "common/str_util.h"
#include "evolution/tse_manager.h"
#include "fuzz/naive_placement.h"
#include "objmodel/method.h"
#include "objmodel/slicing_store.h"
#include "view/view_manager.h"

namespace tse::classifier {
namespace {

using algebra::AlgebraProcessor;
using algebra::Query;
using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;
using schema::SchemaGraph;

class ClassifierTest : public ::testing::Test {
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
    ta_ = graph_.AddBaseClass("TA", {student_}, {}).value();
  }

  std::vector<ClassId> Supers(ClassId cls) {
    return graph_.DirectSupers(cls).value();
  }
  std::vector<ClassId> Subs(ClassId cls) {
    return graph_.DirectSubs(cls).value();
  }

  SchemaGraph graph_;
  ClassId person_, student_, ta_;
};

TEST_F(ClassifierTest, HideClassBecomesSuperclass) {
  // Figure 4: AgelessPerson = hide age from Person classifies as a
  // superclass of Person.
  AlgebraProcessor proc(&graph_);
  ClassId ageless =
      proc.DefineVC("AgelessPerson",
                    Query::Hide(Query::Class("Person"), {"age"}))
          .value();
  Classifier classifier(&graph_);
  ClassifyResult r = classifier.Classify(ageless).value();
  EXPECT_FALSE(r.was_duplicate);
  // AgelessPerson sits between OBJECT and Person.
  ASSERT_EQ(r.subs.size(), 1u);
  EXPECT_EQ(r.subs[0], person_);
  ASSERT_EQ(r.supers.size(), 1u);
  EXPECT_EQ(r.supers[0], graph_.root());
  // Person's old direct edge to OBJECT is now transitive and removed.
  auto person_supers = Supers(person_);
  ASSERT_EQ(person_supers.size(), 1u);
  EXPECT_EQ(person_supers[0], ageless);
}

TEST_F(ClassifierTest, SelectClassBecomesSubclass) {
  AlgebraProcessor proc(&graph_);
  ClassId honor =
      proc.DefineVC("Honor",
                    Query::Select(Query::Class("Student"),
                                  MethodExpr::Ge(MethodExpr::Attr("gpa"),
                                                 MethodExpr::Lit(
                                                     Value::Real(3.5)))))
          .value();
  Classifier classifier(&graph_);
  ClassifyResult r = classifier.Classify(honor).value();
  ASSERT_EQ(r.supers.size(), 1u);
  EXPECT_EQ(r.supers[0], student_);
  // TA is *not* a sub of Honor (its extent is not provably within the
  // selection).
  EXPECT_TRUE(r.subs.empty());
}

TEST_F(ClassifierTest, RefineClassBecomesSubclassOfSource) {
  ClassId student_prime =
      graph_
          .AddRefineClass("Student'", student_,
                          {PropertySpec::Attribute("register",
                                                   ValueType::kBool)},
                          {})
          .value();
  Classifier classifier(&graph_);
  ClassifyResult r = classifier.Classify(student_prime).value();
  ASSERT_EQ(r.supers.size(), 1u);
  EXPECT_EQ(r.supers[0], student_);
}

TEST_F(ClassifierTest, ChainedRefinesNest) {
  // Student' refines Student; TA' refines TA importing Student''s
  // register: TA' classifies under both TA and Student'.
  ClassId student_prime =
      graph_
          .AddRefineClass("Student'", student_,
                          {PropertySpec::Attribute("register",
                                                   ValueType::kBool)},
                          {})
          .value();
  Classifier classifier(&graph_);
  ASSERT_TRUE(classifier.Classify(student_prime).ok());

  PropertyDefId reg = graph_.EffectiveType(student_prime)
                          .value()
                          .Lookup("register")
                          .value();
  ClassId ta_prime =
      graph_.AddRefineClass("TA'", ta_, {}, {reg}).value();
  ClassifyResult r = classifier.Classify(ta_prime).value();
  std::set<ClassId> supers(r.supers.begin(), r.supers.end());
  EXPECT_TRUE(supers.count(ta_));
  EXPECT_TRUE(supers.count(student_prime));
}

TEST_F(ClassifierTest, DuplicateDetectedAndReplaced) {
  AlgebraProcessor proc(&graph_);
  Classifier classifier(&graph_);
  // First hide class.
  ClassId h1 = proc.DefineVC("NoAge1",
                             Query::Hide(Query::Class("Person"), {"age"}))
                   .value();
  ASSERT_TRUE(classifier.Classify(h1).ok());
  size_t count = graph_.class_count();
  // A second, identically-derived class under a different name is a
  // duplicate: discarded in favour of the first (Section 7).
  ClassId h2 = proc.DefineVC("NoAge2",
                             Query::Hide(Query::Class("Person"), {"age"}))
                   .value();
  ClassifyResult r = classifier.Classify(h2).value();
  EXPECT_TRUE(r.was_duplicate);
  EXPECT_EQ(r.cls, h1);
  EXPECT_EQ(graph_.class_count(), count);  // h2 removed
  EXPECT_TRUE(graph_.FindClass("NoAge2").status().IsNotFound());
}

TEST_F(ClassifierTest, RefineWithNoPropsIsDuplicateOfSource) {
  // refine with no added properties neither narrows the extent nor
  // extends the type: structurally identical to its source.
  ClassId r = graph_.AddRefineClass("Copy", student_, {}, {}).value();
  Classifier classifier(&graph_);
  ClassifyResult res = classifier.Classify(r).value();
  EXPECT_TRUE(res.was_duplicate);
  EXPECT_EQ(res.cls, student_);
}

TEST_F(ClassifierTest, UnionClassifiesAboveSourcesBelowCommonSuper) {
  ClassId staff = graph_
                      .AddBaseClass("Staff", {person_},
                                    {PropertySpec::Attribute(
                                        "salary", ValueType::kInt)})
                      .value();
  AlgebraProcessor proc(&graph_);
  ClassId u = proc.DefineVC("StudentOrStaff",
                            Query::Union(Query::Class("Student"),
                                         Query::Class("Staff")))
                  .value();
  Classifier classifier(&graph_);
  ClassifyResult r = classifier.Classify(u).value();
  ASSERT_EQ(r.supers.size(), 1u);
  EXPECT_EQ(r.supers[0], person_);
  std::set<ClassId> subs(r.subs.begin(), r.subs.end());
  EXPECT_TRUE(subs.count(student_));
  EXPECT_TRUE(subs.count(staff));
  // Student and Staff's direct edges to Person became transitive.
  EXPECT_EQ(Supers(student_), std::vector<ClassId>{u});
  EXPECT_EQ(Supers(staff), std::vector<ClassId>{u});
}

TEST_F(ClassifierTest, IntersectClassifiesBelowBothSources) {
  ClassId staff = graph_
                      .AddBaseClass("Staff", {person_},
                                    {PropertySpec::Attribute(
                                        "salary", ValueType::kInt)})
                      .value();
  AlgebraProcessor proc(&graph_);
  ClassId i = proc.DefineVC("StudentAndStaff",
                            Query::Intersect(Query::Class("Student"),
                                             Query::Class("Staff")))
                  .value();
  Classifier classifier(&graph_);
  ClassifyResult r = classifier.Classify(i).value();
  std::set<ClassId> supers(r.supers.begin(), r.supers.end());
  EXPECT_TRUE(supers.count(student_));
  EXPECT_TRUE(supers.count(staff));
}

TEST_F(ClassifierTest, SelectBelowSelectNests) {
  AlgebraProcessor proc(&graph_);
  Classifier classifier(&graph_);
  auto honor_pred = MethodExpr::Ge(MethodExpr::Attr("gpa"),
                                   MethodExpr::Lit(Value::Real(3.5)));
  ClassId honor = proc.DefineVC("Honor", Query::Select(
                                             Query::Class("Student"),
                                             honor_pred))
                      .value();
  ASSERT_TRUE(classifier.Classify(honor).ok());
  // A select on Honor classifies below Honor, not directly below Student.
  ClassId young_honor =
      proc.DefineVC("YoungHonor",
                    Query::Select(Query::Class("Honor"),
                                  MethodExpr::Lt(MethodExpr::Attr("age"),
                                                 MethodExpr::Lit(
                                                     Value::Int(25)))))
          .value();
  ClassifyResult r = classifier.Classify(young_honor).value();
  ASSERT_EQ(r.supers.size(), 1u);
  EXPECT_EQ(r.supers[0], honor);
}

TEST_F(ClassifierTest, ClassifyAllProcessesBatch) {
  AlgebraProcessor proc(&graph_);
  ClassId a = proc.DefineVC("A", Query::Hide(Query::Class("Person"),
                                             {"age"}))
                  .value();
  ClassId b = proc.DefineVC("B", Query::Hide(Query::Class("Person"),
                                             {"age", "name"}))
                  .value();
  Classifier classifier(&graph_);
  auto results = classifier.ClassifyAll({a, b}).value();
  ASSERT_EQ(results.size(), 2u);
  // B (hides more) sits above A.
  EXPECT_EQ(Supers(a), std::vector<ClassId>{b});
}

TEST_F(ClassifierTest, BatchClassificationMatchesOneByOne) {
  // ClassifyAll reuses the schema's subsumption memos across the whole
  // batch; the resulting DAG must be identical to classifying the same
  // classes one at a time on a twin graph.
  auto build = [](SchemaGraph* g, std::vector<ClassId>* vcs) {
    ClassId person =
        g->AddBaseClass("Person", {},
                        {PropertySpec::Attribute("name", ValueType::kString),
                         PropertySpec::Attribute("age", ValueType::kInt)})
            .value();
    g->AddBaseClass("Student", {person},
                    {PropertySpec::Attribute("gpa", ValueType::kReal)})
        .value();
    AlgebraProcessor proc(g);
    vcs->push_back(
        proc.DefineVC("Nameless", Query::Hide(Query::Class("Person"),
                                              {"name"}))
            .value());
    vcs->push_back(
        proc.DefineVC("Anon", Query::Hide(Query::Class("Person"),
                                          {"name", "age"}))
            .value());
    vcs->push_back(
        proc.DefineVC("Honor",
                      Query::Select(Query::Class("Student"),
                                    MethodExpr::Ge(MethodExpr::Attr("gpa"),
                                                   MethodExpr::Lit(
                                                       Value::Real(3.5)))))
            .value());
    vcs->push_back(
        proc.DefineVC("Anon2", Query::Hide(Query::Class("Person"),
                                           {"age", "name"}))
            .value());  // duplicate of Anon
  };
  SchemaGraph batch_graph, single_graph;
  std::vector<ClassId> batch_vcs, single_vcs;
  build(&batch_graph, &batch_vcs);
  build(&single_graph, &single_vcs);
  ASSERT_EQ(batch_vcs.size(), single_vcs.size());

  Classifier batch(&batch_graph);
  auto batch_results = batch.ClassifyAll(batch_vcs).value();

  Classifier single(&single_graph);
  std::vector<ClassifyResult> single_results;
  for (ClassId cls : single_vcs) {
    single_results.push_back(single.Classify(cls).value());
  }

  ASSERT_EQ(batch_results.size(), single_results.size());
  for (size_t i = 0; i < batch_results.size(); ++i) {
    EXPECT_EQ(batch_results[i].was_duplicate,
              single_results[i].was_duplicate)
        << "class " << i;
    EXPECT_EQ(batch_results[i].supers.size(),
              single_results[i].supers.size())
        << "class " << i;
    EXPECT_EQ(batch_results[i].subs.size(), single_results[i].subs.size())
        << "class " << i;
  }
  // Same DAG by name: every class reaches the same named supers.
  for (ClassId cls : batch_graph.AllClasses()) {
    const std::string& name = batch_graph.GetClass(cls).value()->name;
    ClassId twin = single_graph.FindClass(name).value();
    std::set<std::string> batch_supers, single_supers;
    for (ClassId s : batch_graph.TransitiveSupers(cls).value()) {
      batch_supers.insert(batch_graph.GetClass(s).value()->name);
    }
    for (ClassId s : single_graph.TransitiveSupers(twin).value()) {
      single_supers.insert(single_graph.GetClass(s).value()->name);
    }
    EXPECT_EQ(batch_supers, single_supers) << "class " << name;
  }
}

// --- DAG placement search vs the naive scan --------------------------------

std::string Names(const SchemaGraph& g, const std::vector<ClassId>& ids) {
  std::vector<std::string> out;
  for (ClassId id : ids) out.push_back(g.GetClass(id).value()->name);
  return Join(out, ",");
}

/// A placement search that runs both the DAG search and the naive scan
/// on every classification, records any disagreement, and places by the
/// DAG search.
class PlacementAudit {
 public:
  PlacementSearch Search() {
    return [this](const SchemaGraph& g, ClassId cls) {
      Placement dag = SearchPlacement(g, cls);
      Placement naive = fuzz::NaivePlacement(g, cls);
      ++compared_;
      if (dag.duplicate != naive.duplicate || dag.supers != naive.supers ||
          dag.subs != naive.subs) {
        mismatches_.push_back(StrCat(
            g.GetClass(cls).value()->name, ": supers {",
            Names(g, dag.supers), "} vs {", Names(g, naive.supers),
            "}, subs {", Names(g, dag.subs), "} vs {", Names(g, naive.subs),
            "}, duplicate ", dag.duplicate.ToString(), " vs ",
            naive.duplicate.ToString()));
      }
      return dag;
    };
  }
  int compared() const { return compared_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  int compared_ = 0;
  std::vector<std::string> mismatches_;
};

/// A TSE stack whose classifier is audited against the naive scan.
struct AuditedStack {
  SchemaGraph graph;
  objmodel::SlicingStore store;
  view::ViewManager views{&graph};
  PlacementAudit audit;
  evolution::TseManager tse{&graph, &store, &views, audit.Search()};
};

TEST(PlacementSearchTest, SeededHistoryMatchesNaiveScan) {
  // A 12-class multiple-inheritance base and a 60-change seeded history
  // of property, edge and class operators, like the evolve_history
  // benchmark. Changes the engine rejects are part of the history too.
  struct Base {
    const char* name;
    std::vector<int> supers;
  };
  const std::vector<Base> base = {
      {"A0", {}},     {"A1", {}},     {"B0", {0}},    {"B1", {0, 1}},
      {"B2", {1}},    {"C0", {2}},    {"C1", {2, 3}}, {"C2", {4}},
      {"C3", {3, 4}}, {"D0", {5, 6}}, {"D1", {7}},    {"D2", {8}},
  };
  AuditedStack stack;
  std::vector<ClassId> ids;
  std::vector<std::string> names;
  std::vector<view::ViewClassSpec> specs;
  for (const Base& b : base) {
    std::vector<ClassId> supers;
    for (int s : b.supers) supers.push_back(ids[s]);
    ids.push_back(stack.graph
                      .AddBaseClass(b.name, supers,
                                    {PropertySpec::Attribute(
                                        StrCat("v_", b.name), ValueType::kInt)})
                      .value());
    names.push_back(b.name);
    specs.push_back({ids.back(), ""});
  }
  ViewId vs = stack.tse.CreateView("VS", specs).value();

  Rng rng(14);
  std::vector<std::pair<std::string, std::string>> added;  // class, prop
  int accepted = 0;
  for (int i = 0; i < 60; ++i) {
    auto pick = [&]() { return names[rng.Uniform(names.size())]; };
    evolution::SchemaChange change;
    const uint64_t op = rng.Uniform(100);
    if (op < 30) {
      evolution::AddAttribute c{pick(), PropertySpec::Attribute(
                                            StrCat("p", i), ValueType::kInt)};
      added.emplace_back(c.class_name, c.spec.name);
      change = c;
    } else if (op < 40) {
      change = evolution::AddMethod{
          pick(), PropertySpec::Method(StrCat("m", i),
                                       MethodExpr::Lit(Value::Int(i)),
                                       ValueType::kInt)};
    } else if (op < 55 && !added.empty()) {
      const auto& [cls, prop] = added[rng.Uniform(added.size())];
      change = evolution::DeleteAttribute{cls, prop};
    } else if (op < 70) {
      change = evolution::AddEdge{pick(), pick()};
    } else if (op < 80) {
      change = evolution::DeleteEdge{pick(), pick(), std::nullopt};
    } else if (op < 90) {
      std::string name = StrCat("N", i);
      change = evolution::AddClass{name, pick()};
      names.push_back(name);
    } else {
      std::string name = StrCat("I", i);
      change = evolution::InsertClass{name, pick(), pick()};
      names.push_back(name);
    }
    auto next = stack.tse.ApplyChange(vs, change);
    if (next.ok()) {
      vs = next.value();
      ++accepted;
    }
  }
  EXPECT_GE(accepted, 20);
  EXPECT_GE(stack.audit.compared(), 60);
  EXPECT_TRUE(stack.audit.mismatches().empty())
      << Join(stack.audit.mismatches(), "\n");
}

TEST_F(ClassifierTest, RootFallbackMatchesNaiveScan) {
  // A refine importing a definition that was dropped with its (never
  // classified) definer has no computable type, so nothing provably
  // subsumes it: it hangs off the root. The next class must still see
  // it under the root.
  PlacementAudit audit;
  Classifier classifier(&graph_, audit.Search());
  ClassId definer =
      graph_
          .AddRefineClass("Definer", student_,
                          {PropertySpec::Attribute("badge", ValueType::kInt)},
                          {})
          .value();
  PropertyDefId badge =
      graph_.EffectiveType(definer).value().Lookup("badge").value();
  ClassId orphan =
      graph_.AddRefineClass("Orphan", student_, {}, {badge}).value();
  ASSERT_TRUE(graph_.RemoveClass(definer).ok());
  ASSERT_FALSE(graph_.EffectiveType(orphan).ok());
  ClassifyResult r = classifier.Classify(orphan).value();
  EXPECT_EQ(r.supers, std::vector<ClassId>{graph_.root()});
  EXPECT_TRUE(r.subs.empty());
  AlgebraProcessor proc(&graph_);
  ClassId ageless =
      proc.DefineVC("Ageless", Query::Hide(Query::Class("Person"), {"age"}))
          .value();
  ASSERT_TRUE(classifier.Classify(ageless).ok());
  EXPECT_EQ(audit.compared(), 2);
  EXPECT_TRUE(audit.mismatches().empty()) << Join(audit.mismatches(), "\n");
}

TEST_F(ClassifierTest, RefineTwinsFoundAsDuplicates) {
  PlacementAudit audit;
  Classifier classifier(&graph_, audit.Search());
  auto refine = [&](const std::string& name) {
    return graph_
        .AddRefineClass(name, student_,
                        {PropertySpec::Attribute("register", ValueType::kBool)},
                        {})
        .value();
  };
  ClassId first = refine("Student'");
  ASSERT_FALSE(classifier.Classify(first).value().was_duplicate);
  ClassifyResult r = classifier.Classify(refine("Student''")).value();
  EXPECT_TRUE(r.was_duplicate);
  EXPECT_EQ(r.cls, first);
  EXPECT_TRUE(graph_.FindClass("Student''").status().IsNotFound());
  EXPECT_TRUE(audit.mismatches().empty()) << Join(audit.mismatches(), "\n");
}

TEST_F(ClassifierTest, ExtentEquivalentClassesWithDifferentTypes) {
  // Both hide classes have exactly Person's extent but different types:
  // they are not duplicates, and neither is-a the other.
  PlacementAudit audit;
  Classifier classifier(&graph_, audit.Search());
  AlgebraProcessor proc(&graph_);
  ClassId no_age =
      proc.DefineVC("NoAge", Query::Hide(Query::Class("Person"), {"age"}))
          .value();
  ClassId no_name =
      proc.DefineVC("NoName", Query::Hide(Query::Class("Person"), {"name"}))
          .value();
  ASSERT_TRUE(graph_.ExtentEquivalent(no_age, no_name));
  ASSERT_FALSE(classifier.Classify(no_age).value().was_duplicate);
  ClassifyResult r = classifier.Classify(no_name).value();
  EXPECT_FALSE(r.was_duplicate);
  EXPECT_EQ(r.supers, std::vector<ClassId>{graph_.root()});
  EXPECT_EQ(r.subs, std::vector<ClassId>{person_});
  std::vector<ClassId> person_supers = Supers(person_);
  EXPECT_EQ(person_supers, (std::vector<ClassId>{no_age, no_name}));
  EXPECT_TRUE(audit.mismatches().empty()) << Join(audit.mismatches(), "\n");
}

TEST(PlacementSearchTest, EdgeOperatorClassesMatchNaiveScan) {
  // add_edge defines union classes and delete_edge difference classes
  // (Sections 6.5, 6.6); both must be placed as the naive scan places
  // them.
  AuditedStack stack;
  ClassId person =
      stack.graph
          .AddBaseClass("Person", {},
                        {PropertySpec::Attribute("name", ValueType::kString)})
          .value();
  ClassId staff =
      stack.graph
          .AddBaseClass("Staff", {person},
                        {PropertySpec::Attribute("boss", ValueType::kString)})
          .value();
  ClassId student =
      stack.graph
          .AddBaseClass("Student", {person},
                        {PropertySpec::Attribute("major", ValueType::kString)})
          .value();
  ClassId ta = stack.graph.AddBaseClass("TA", {student}, {}).value();
  ViewId vs = stack.tse
                  .CreateView("VS", {{person, ""},
                                     {staff, ""},
                                     {student, ""},
                                     {ta, ""}})
                  .value();
  vs = stack.tse.ApplyChange(vs, evolution::AddEdge{"Staff", "TA"}).value();
  vs = stack.tse.ApplyChange(vs, evolution::DeleteEdge{"Student", "TA",
                                                       std::nullopt})
           .value();
  bool saw_union = false, saw_difference = false;
  for (ClassId cls : stack.graph.AllClasses()) {
    schema::DerivationOp op = stack.graph.GetClass(cls).value()->derivation.op;
    saw_union |= op == schema::DerivationOp::kUnion;
    saw_difference |= op == schema::DerivationOp::kDifference;
  }
  EXPECT_TRUE(saw_union);
  EXPECT_TRUE(saw_difference);
  EXPECT_GT(stack.audit.compared(), 0);
  EXPECT_TRUE(stack.audit.mismatches().empty())
      << Join(stack.audit.mismatches(), "\n");
}

/// True when `a` and `b` are each other's direct supers.
bool DirectCycle(const SchemaGraph& g, ClassId a, ClassId b) {
  auto has = [](const std::vector<ClassId>& v, ClassId c) {
    return std::find(v.begin(), v.end(), c) != v.end();
  };
  return has(g.DirectSupers(a).value(), b) && has(g.DirectSupers(b).value(), a);
}

/// Deleting an overriding attribute (Section 6.2.2) leaves the view's
/// Student re-importing Person's definition: a class with Student's
/// extent and names but another binding. It is-a subsumes Student both
/// ways without being a duplicate, so the classified DAG holds a 2-cycle
/// that the filters must walk through.
struct CycleStack : AuditedStack {
  CycleStack() {
    ClassId person =
        graph
            .AddBaseClass("Person", {},
                          {PropertySpec::Attribute("wage", ValueType::kInt),
                           PropertySpec::Attribute("age", ValueType::kInt)})
            .value();
    student = graph
                  .AddBaseClass(
                      "Student", {person},
                      {PropertySpec::Attribute("wage", ValueType::kReal)})
                  .value();
    ClassId ta = graph.AddBaseClass("TA", {student}, {}).value();
    vs = tse.CreateView("VS", {{person, ""}, {student, ""}, {ta, ""}}).value();
    vs = tse.ApplyChange(vs, evolution::DeleteAttribute{"Student", "wage"})
             .value();
    twin = views.GetView(vs).value()->Resolve("Student").value();
  }
  ClassId student, twin;
  ViewId vs;
};

TEST(PlacementSearchTest, EquivalenceCycleSupersMatchNaive) {
  CycleStack stack;
  ASSERT_NE(stack.twin, stack.student);
  ASSERT_TRUE(DirectCycle(stack.graph, stack.student, stack.twin));
  // A select below the cycle is-a both of its classes, and neither is
  // strictly below the other: both are direct supers.
  Classifier classifier(&stack.graph, stack.audit.Search());
  AlgebraProcessor proc(&stack.graph);
  ClassId old = proc.DefineVC("Old", Query::Select(
                                         Query::Class("Student"),
                                         MethodExpr::Ge(
                                             MethodExpr::Attr("age"),
                                             MethodExpr::Lit(Value::Int(60)))))
                    .value();
  ClassifyResult r = classifier.Classify(old).value();
  EXPECT_FALSE(r.was_duplicate);
  EXPECT_NE(std::find(r.supers.begin(), r.supers.end(), stack.student),
            r.supers.end());
  EXPECT_NE(std::find(r.supers.begin(), r.supers.end(), stack.twin),
            r.supers.end());
  EXPECT_GT(stack.audit.compared(), 0);
  EXPECT_TRUE(stack.audit.mismatches().empty())
      << Join(stack.audit.mismatches(), "\n");
}

TEST(PlacementSearchTest, EquivalenceCycleSubsMatchNaive) {
  CycleStack stack;
  ASSERT_TRUE(DirectCycle(stack.graph, stack.student, stack.twin));
  // A hide above the cycle is-a subsumes both of its classes, and
  // neither is strictly above the other: both are direct subs.
  Classifier classifier(&stack.graph, stack.audit.Search());
  AlgebraProcessor proc(&stack.graph);
  ClassId ageless =
      proc.DefineVC("AgelessStudent",
                    Query::Hide(Query::Class("Student"), {"age"}))
          .value();
  ClassifyResult r = classifier.Classify(ageless).value();
  EXPECT_FALSE(r.was_duplicate);
  EXPECT_NE(std::find(r.subs.begin(), r.subs.end(), stack.student),
            r.subs.end());
  EXPECT_NE(std::find(r.subs.begin(), r.subs.end(), stack.twin),
            r.subs.end());
  EXPECT_GT(stack.audit.compared(), 0);
  EXPECT_TRUE(stack.audit.mismatches().empty())
      << Join(stack.audit.mismatches(), "\n");
}

TEST(PlacementSearchTest, EquivalenceCycleHistoryMatchesNaive) {
  // Property changes over and under the cycle: every classification,
  // including the ones that place classes beside the cycle, must wire
  // what the naive filters wire.
  CycleStack stack;
  ASSERT_TRUE(DirectCycle(stack.graph, stack.student, stack.twin));
  const int before = stack.audit.compared();
  ViewId vs = stack.vs;
  const std::vector<evolution::SchemaChange> changes = {
      evolution::AddAttribute{"TA",
                              PropertySpec::Attribute("desk", ValueType::kInt)},
      evolution::AddAttribute{
          "Student", PropertySpec::Attribute("major", ValueType::kString)},
      evolution::AddAttribute{
          "Person", PropertySpec::Attribute("email", ValueType::kString)},
      evolution::DeleteAttribute{"TA", "desk"},
      evolution::AddMethod{"Student",
                           PropertySpec::Method("senior",
                                                MethodExpr::Lit(Value::Int(1)),
                                                ValueType::kInt)},
  };
  for (const evolution::SchemaChange& change : changes) {
    auto next = stack.tse.ApplyChange(vs, change);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    vs = next.value();
  }
  EXPECT_GT(stack.audit.compared(), before);
  EXPECT_TRUE(stack.audit.mismatches().empty())
      << Join(stack.audit.mismatches(), "\n");
}

TEST_F(ClassifierTest, BaseClassIsAlreadyClassified) {
  Classifier classifier(&graph_);
  ClassifyResult r = classifier.Classify(student_).value();
  EXPECT_EQ(r.cls, student_);
  EXPECT_FALSE(r.was_duplicate);
  EXPECT_TRUE(r.supers.empty());  // untouched
}

}  // namespace
}  // namespace tse::classifier
