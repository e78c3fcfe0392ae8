// Property-based sweeps over the object algebra: for random schemas and
// populations, the extent semantics of Section 3.2 must satisfy the
// standard set-algebra laws, the classifier must keep the global DAG
// consistent, and updatability marking must cover everything.

#include <gtest/gtest.h>

#include "algebra/extent_eval.h"
#include "algebra/processor.h"
#include "algebra/query.h"
#include "classifier/classifier.h"
#include "common/random.h"
#include "update/update_engine.h"
#include "workload/generators.h"

namespace tse::algebra {
namespace {

using classifier::Classifier;
using objmodel::MethodExpr;
using objmodel::SlicingStore;
using objmodel::Value;
using schema::SchemaGraph;
using update::UpdateEngine;

class AlgebraPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    workload::SchemaGenOptions gen;
    gen.num_classes = 6 + rng.Uniform(4);
    gen.num_objects = 40;
    workload::Workload workload = workload::GenerateWorkload(&rng, gen);
    UpdateEngine updates(&graph_, &store_,
                         update::ValueClosurePolicy::kAllow);
    for (const auto& def : workload.classes) {
      std::vector<ClassId> supers;
      for (const auto& s : def.supers) {
        supers.push_back(graph_.FindClass(s).value());
      }
      ClassId cls = graph_.AddBaseClass(def.name, supers, def.props).value();
      classes_.push_back(cls);
    }
    for (const auto& obj : workload.objects) {
      std::vector<update::Assignment> assignments;
      for (const auto& [attr, v] : obj.int_values) {
        assignments.push_back({attr, Value::Int(v)});
      }
      ASSERT_TRUE(
          updates.Create(graph_.FindClass(obj.cls).value(), assignments)
              .ok());
    }
    rng_ = std::make_unique<Rng>(GetParam() * 7919);
  }

  ClassId Pick() { return classes_[rng_->Uniform(classes_.size())]; }

  std::set<Oid> ExtentOf(ClassId cls) {
    ExtentEvaluator eval(&graph_, &store_);
    auto r = eval.Extent(cls);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r.value() : std::set<Oid>{};
  }

  SchemaGraph graph_;
  SlicingStore store_;
  std::vector<ClassId> classes_;
  std::unique_ptr<Rng> rng_;
};

TEST_P(AlgebraPropertyTest, SetOperatorLawsHoldOnExtents) {
  AlgebraProcessor proc(&graph_);
  for (int round = 0; round < 4; ++round) {
    ClassId a = Pick();
    ClassId b = Pick();
    if (a == b) continue;
    std::string na = graph_.GetClass(a).value()->name;
    std::string nb = graph_.GetClass(b).value()->name;
    std::string tag = std::to_string(round);
    ClassId u = proc.DefineVC("U" + tag, Query::Union(Query::Class(na),
                                                      Query::Class(nb)))
                    .value();
    ClassId i = proc.DefineVC("I" + tag, Query::Intersect(Query::Class(na),
                                                          Query::Class(nb)))
                    .value();
    ClassId d = proc.DefineVC("D" + tag, Query::Difference(Query::Class(na),
                                                           Query::Class(nb)))
                    .value();
    std::set<Oid> ea = ExtentOf(a), eb = ExtentOf(b);
    std::set<Oid> eu = ExtentOf(u), ei = ExtentOf(i), ed = ExtentOf(d);

    // |A ∪ B| + |A ∩ B| = |A| + |B| (inclusion–exclusion).
    EXPECT_EQ(eu.size() + ei.size(), ea.size() + eb.size());
    // A ∖ B and A ∩ B partition A.
    EXPECT_EQ(ed.size() + ei.size(), ea.size());
    for (Oid o : ed) EXPECT_FALSE(eb.count(o));
    for (Oid o : ei) {
      EXPECT_TRUE(ea.count(o));
      EXPECT_TRUE(eb.count(o));
    }
    for (Oid o : ea) EXPECT_TRUE(eu.count(o));
    for (Oid o : eb) EXPECT_TRUE(eu.count(o));
  }
}

TEST_P(AlgebraPropertyTest, SelectPartitionsItsSource) {
  AlgebraProcessor proc(&graph_);
  ClassId src = Pick();
  std::string name = graph_.GetClass(src).value()->name;
  // Pick an int attribute visible on the source, if any.
  schema::TypeSet type = graph_.EffectiveType(src).value();
  std::string attr;
  for (const std::string& n : type.Names()) {
    attr = n;
    break;
  }
  if (attr.empty()) return;  // class has no attributes; nothing to select
  auto threshold = MethodExpr::Lit(Value::Int(500));
  ClassId low =
      proc.DefineVC("Low",
                    Query::Select(Query::Class(name),
                                  MethodExpr::Lt(MethodExpr::Attr(attr),
                                                 threshold)))
          .value();
  ClassId high =
      proc.DefineVC("High",
                    Query::Select(Query::Class(name),
                                  MethodExpr::Ge(MethodExpr::Attr(attr),
                                                 threshold)))
          .value();
  // Null-valued attributes (the generator leaves ~40% unset) make the
  // comparison predicates error — in that case the whole select extent
  // evaluation fails, which is itself correct behaviour; the partition
  // law is only checkable when every member has the attribute.
  ExtentEvaluator eval(&graph_, &store_);
  auto elow_or = eval.Extent(low);
  auto ehigh_or = eval.Extent(high);
  if (!elow_or.ok() || !ehigh_or.ok()) {
    EXPECT_EQ(elow_or.status().code(), StatusCode::kFailedPrecondition);
    return;
  }
  std::set<Oid> esrc = ExtentOf(src);
  const std::set<Oid>& elow = *elow_or.value();
  const std::set<Oid>& ehigh = *ehigh_or.value();
  EXPECT_EQ(elow.size() + ehigh.size(), esrc.size());
  for (Oid o : elow) EXPECT_FALSE(ehigh.count(o));
}

TEST_P(AlgebraPropertyTest, ClassifierKeepsDagAcyclicAndConsistent) {
  AlgebraProcessor proc(&graph_);
  Classifier classifier(&graph_);
  // Derive and classify a batch of random virtual classes.
  for (int round = 0; round < 6; ++round) {
    ClassId a = Pick();
    ClassId b = Pick();
    std::string na = graph_.GetClass(a).value()->name;
    std::string nb = graph_.GetClass(b).value()->name;
    std::string tag = "VC" + std::to_string(round);
    Result<ClassId> vc = Status::Internal("unset");
    switch (rng_->Uniform(3)) {
      case 0:
        vc = proc.DefineVC(tag, Query::Union(Query::Class(na),
                                             Query::Class(nb)));
        break;
      case 1:
        vc = proc.DefineVC(tag, Query::Intersect(Query::Class(na),
                                                 Query::Class(nb)));
        break;
      case 2: {
        schema::TypeSet type = graph_.EffectiveType(a).value();
        auto names = type.Names();
        if (names.empty()) continue;
        vc = proc.DefineVC(tag,
                           Query::Hide(Query::Class(na), {names.front()}));
        break;
      }
    }
    if (!vc.ok()) continue;
    auto classified = classifier.Classify(vc.value());
    ASSERT_TRUE(classified.ok()) << classified.status().ToString();
  }
  // Invariants over the whole classified DAG:
  for (ClassId cls : graph_.AllClasses()) {
    // (1) Acyclicity: no class is its own strict ancestor.
    auto supers = graph_.TransitiveSupers(cls).value();
    for (ClassId sup : supers) {
      if (sup == cls) continue;
      auto sup_supers = graph_.TransitiveSupers(sup).value();
      EXPECT_FALSE(sup_supers.count(cls) && !graph_.ExtentEquivalent(cls, sup))
          << "cycle through " << graph_.GetClass(cls).value()->name;
    }
    // (2) Edge soundness: every direct edge is a real subsumption.
    const std::vector<ClassId> direct_supers =
        graph_.DirectSupers(cls).value();
    for (ClassId sup : direct_supers) {
      EXPECT_TRUE(graph_.IsaSubsumedBy(cls, sup))
          << graph_.GetClass(cls).value()->name << " -> "
          << graph_.GetClass(sup).value()->name;
    }
    // (3) Extent containment holds on the actual data.
    std::set<Oid> extent = ExtentOf(cls);
    for (ClassId sup : direct_supers) {
      std::set<Oid> sup_extent = ExtentOf(sup);
      for (Oid o : extent) {
        EXPECT_TRUE(sup_extent.count(o))
            << "extent leak: " << graph_.GetClass(cls).value()->name
            << " -> " << graph_.GetClass(sup).value()->name;
      }
    }
  }
  // (4) Theorem 1: everything remains updatable.
  EXPECT_EQ(UpdateEngine::MarkUpdatable(graph_).size(),
            graph_.class_count());
}

TEST_P(AlgebraPropertyTest, IsMemberAgreesWithExtent) {
  AlgebraProcessor proc(&graph_);
  ExtentEvaluator eval(&graph_, &store_);
  for (int round = 0; round < 5; ++round) {
    ClassId cls = Pick();
    ClassId other = Pick();
    // A derived class over the pick, so membership is also asked of a
    // class whose sources the warm evaluator below has materialized.
    const std::string tag = std::to_string(round);
    ClassId derived =
        proc.DefineVC("M" + tag,
                      Query::Difference(
                          Query::Class(graph_.GetClass(cls).value()->name),
                          Query::Class(graph_.GetClass(other).value()->name)))
            .value();
    ExtentEvaluator warm(&graph_, &store_);
    ASSERT_TRUE(warm.Extent(cls).ok());
    ASSERT_TRUE(warm.Extent(other).ok());
    for (ClassId c : {cls, derived}) {
      std::set<Oid> extent = ExtentOf(c);
      const std::string name = graph_.GetClass(c).value()->name;
      // No MVCC capture is armed on this store, so every epoch reads
      // the current state.
      auto at_epoch = eval.ExtentAt(c, /*epoch=*/0);
      ASSERT_TRUE(at_epoch.ok()) << at_epoch.status().ToString();
      EXPECT_EQ(at_epoch.value(), extent) << "class " << name;
      store_.ForEachObject([&](Oid oid) {
        for (const ExtentEvaluator* e : {&eval, &warm}) {
          auto member = e->IsMember(oid, c);
          ASSERT_TRUE(member.ok());
          EXPECT_EQ(member.value(), extent.count(oid) != 0)
              << "object " << oid.ToString() << " class " << name
              << (e == &warm ? " (sources cached)" : " (cold walk)");
        }
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraPropertyTest,
                         ::testing::Range(uint64_t{100}, uint64_t{115}));

}  // namespace
}  // namespace tse::algebra
