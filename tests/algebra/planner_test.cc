#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algebra/extent_eval.h"
#include "algebra/object_accessor.h"
#include "algebra/planner.h"
#include "index/index_manager.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"

namespace tse::algebra {
namespace {

using index::IndexKind;
using index::IndexManager;
using objmodel::ExprOp;
using objmodel::MethodExpr;
using objmodel::SlicingStore;
using objmodel::Value;
using objmodel::ValueType;
using schema::Derivation;
using schema::DerivationOp;
using schema::PropertySpec;
using schema::SchemaGraph;

/// One class, 200 fully-populated objects: id unique (ordered index),
/// bucket = id % 20 (hash index). Every object holds both attributes,
/// so range probes are provably total over the store.
class PlannerTest : public ::testing::Test {
 protected:
  static constexpr size_t kPop = 200;

  void SetUp() override {
    cls_ = graph_
               .AddBaseClass(
                   "P", {},
                   {PropertySpec::Attribute("id", ValueType::kInt),
                    PropertySpec::Attribute("bucket", ValueType::kInt)})
               .value();
    id_def_ = graph_.ResolveProperty(cls_, "id").value()->id;
    bucket_def_ = graph_.ResolveProperty(cls_, "bucket").value()->id;
    ObjectAccessor acc(&graph_, &store_);
    for (size_t i = 0; i < kPop; ++i) {
      Oid o = store_.CreateObject();
      ASSERT_TRUE(store_.AddMembership(o, cls_).ok());
      ASSERT_TRUE(
          acc.Write(o, cls_, "id", Value::Int(static_cast<int64_t>(i))).ok());
      ASSERT_TRUE(
          acc.Write(o, cls_, "bucket", Value::Int(static_cast<int64_t>(i % 20)))
              .ok());
    }
    indexes_ = std::make_unique<IndexManager>(&graph_, &store_);
    ASSERT_TRUE(indexes_->CreateIndex(id_def_, IndexKind::kOrdered).ok());
    ASSERT_TRUE(indexes_->CreateIndex(bucket_def_, IndexKind::kHash).ok());
  }

  ClassId AddSelect(const std::string& name, MethodExpr::Ptr pred) {
    Derivation d;
    d.op = DerivationOp::kSelect;
    d.sources = {cls_};
    d.predicate = std::move(pred);
    return graph_.AddVirtualClass(name, std::move(d)).value();
  }

  SelectPlan PlanOf(MethodExpr::Ptr pred, PlannerMode mode,
                    size_t source_size = kPop) {
    SelectPlanner planner(&graph_, indexes_.get());
    return planner.Plan(cls_, pred.get(), source_size, mode);
  }

  SchemaGraph graph_;
  SlicingStore store_;
  ClassId cls_;
  PropertyDefId id_def_, bucket_def_;
  std::unique_ptr<IndexManager> indexes_;
};

// --- Predicate recognition ----------------------------------------------

TEST_F(PlannerTest, ExtractSimplePredicateNormalizesBothShapes) {
  auto direct = MethodExpr::Lt(MethodExpr::Attr("id"),
                               MethodExpr::Lit(Value::Int(5)));
  std::optional<SimplePredicate> sp = ExtractSimplePredicate(*direct);
  ASSERT_TRUE(sp.has_value());
  EXPECT_EQ(sp->op, ExprOp::kLt);
  EXPECT_EQ(sp->attr, "id");
  EXPECT_EQ(sp->literal, Value::Int(5));

  // Mirrored: "5 < id" is "id > 5".
  auto mirrored = MethodExpr::Lt(MethodExpr::Lit(Value::Int(5)),
                                 MethodExpr::Attr("id"));
  sp = ExtractSimplePredicate(*mirrored);
  ASSERT_TRUE(sp.has_value());
  EXPECT_EQ(sp->op, ExprOp::kGt);
  EXPECT_EQ(sp->attr, "id");

  // Conjunctions, arithmetic, attr-vs-attr: not simple.
  EXPECT_FALSE(ExtractSimplePredicate(
                   *MethodExpr::And(direct, mirrored))
                   .has_value());
  EXPECT_FALSE(ExtractSimplePredicate(
                   *MethodExpr::Eq(MethodExpr::Attr("id"),
                                   MethodExpr::Attr("bucket")))
                   .has_value());
}

// --- Arm choice ---------------------------------------------------------

TEST_F(PlannerTest, AutoPicksIndexForSelectivePredicates) {
  // id < 10: ~5% of 200 via min/max interpolation -> index.
  SelectPlan plan = PlanOf(MethodExpr::Lt(MethodExpr::Attr("id"),
                                          MethodExpr::Lit(Value::Int(10))),
                           PlannerMode::kAuto);
  EXPECT_EQ(plan.arm, PlanArm::kIndex);
  EXPECT_LE(plan.est_selectivity, 0.10);

  // bucket == 3: 200 entries / 20 distinct / 200 source = 5% -> index.
  plan = PlanOf(MethodExpr::Eq(MethodExpr::Attr("bucket"),
                               MethodExpr::Lit(Value::Int(3))),
                PlannerMode::kAuto);
  EXPECT_EQ(plan.arm, PlanArm::kIndex);

  // id < 150: ~75% selective -> the index declines, batch takes it.
  plan = PlanOf(MethodExpr::Lt(MethodExpr::Attr("id"),
                               MethodExpr::Lit(Value::Int(150))),
                PlannerMode::kAuto);
  EXPECT_EQ(plan.arm, PlanArm::kBatch);
  EXPECT_GT(plan.est_selectivity, 0.10);
}

TEST_F(PlannerTest, IneligiblePredicatesNeverUseTheIndex) {
  // Range over the hash index: no order to walk.
  SelectPlan plan = PlanOf(MethodExpr::Lt(MethodExpr::Attr("bucket"),
                                          MethodExpr::Lit(Value::Int(1))),
                           PlannerMode::kForceIndex);
  EXPECT_NE(plan.arm, PlanArm::kIndex);

  // eq-null asks for exactly the unindexed members.
  plan = PlanOf(MethodExpr::Eq(MethodExpr::Attr("id"),
                               MethodExpr::Lit(Value::Null())),
                PlannerMode::kForceIndex);
  EXPECT_NE(plan.arm, PlanArm::kIndex);

  // != needs the complement of a probe.
  plan = PlanOf(MethodExpr::Binary(ExprOp::kNe, MethodExpr::Attr("id"),
                                   MethodExpr::Lit(Value::Int(3))),
                PlannerMode::kForceIndex);
  EXPECT_NE(plan.arm, PlanArm::kIndex);

  // A literal of another type breaks order equivalence for ranges.
  plan = PlanOf(MethodExpr::Lt(MethodExpr::Attr("id"),
                               MethodExpr::Lit(Value::Str("x"))),
                PlannerMode::kForceIndex);
  EXPECT_NE(plan.arm, PlanArm::kIndex);

  // An object with a Null id (entries != store objects): a scan would
  // error on the ordering compare, so the range probe is out...
  Oid hole = store_.CreateObject();
  ASSERT_TRUE(store_.AddMembership(hole, cls_).ok());
  plan = PlanOf(MethodExpr::Lt(MethodExpr::Attr("id"),
                               MethodExpr::Lit(Value::Int(10))),
                PlannerMode::kForceIndex);
  EXPECT_NE(plan.arm, PlanArm::kIndex);
  // ...but equality probes stay eligible (kEq never errors).
  plan = PlanOf(MethodExpr::Eq(MethodExpr::Attr("id"),
                               MethodExpr::Lit(Value::Int(10))),
                PlannerMode::kForceIndex);
  EXPECT_EQ(plan.arm, PlanArm::kIndex);
}

TEST_F(PlannerTest, ModesAndFallbacks) {
  auto pred = MethodExpr::Eq(MethodExpr::Attr("bucket"),
                             MethodExpr::Lit(Value::Int(3)));
  EXPECT_EQ(PlanOf(pred, PlannerMode::kForceClassic).arm, PlanArm::kClassic);
  EXPECT_EQ(PlanOf(pred, PlannerMode::kForceBatch).arm, PlanArm::kBatch);
  EXPECT_EQ(PlanOf(pred, PlannerMode::kForceIndex).arm, PlanArm::kIndex);

  // Tiny sources run classic even when batch would be eligible.
  EXPECT_EQ(PlanOf(pred, PlannerMode::kAuto, 8).arm, PlanArm::kClassic);

  // Without an index manager the ladder tops out at batch.
  SelectPlanner no_index(&graph_, nullptr);
  SelectPlan plan = no_index.Plan(cls_, pred.get(), kPop,
                                  PlannerMode::kForceIndex);
  EXPECT_EQ(plan.arm, PlanArm::kBatch);

  // Non-simple predicates force classic regardless of mode.
  auto complex_pred = MethodExpr::And(pred, pred);
  EXPECT_EQ(PlanOf(complex_pred, PlannerMode::kForceIndex).arm,
            PlanArm::kClassic);
}

// --- Arm equivalence through the evaluator ------------------------------

TEST_F(PlannerTest, AllArmsComputeTheSameExtent) {
  ClassId low = AddSelect("Low", MethodExpr::Lt(MethodExpr::Attr("id"),
                                                MethodExpr::Lit(Value::Int(10))));
  ClassId b3 = AddSelect("B3", MethodExpr::Eq(MethodExpr::Attr("bucket"),
                                              MethodExpr::Lit(Value::Int(3))));
  ClassId high = AddSelect("High", MethodExpr::Ge(MethodExpr::Attr("id"),
                                                  MethodExpr::Lit(Value::Int(150))));

  auto extent_under = [&](PlannerMode mode, ClassId cls) {
    ExtentEvaluator eval(&graph_, &store_);
    eval.set_index_manager(indexes_.get());
    eval.set_planner_mode(mode);
    return *eval.Extent(cls).value();
  };
  for (ClassId cls : {low, b3, high}) {
    std::set<Oid> classic = extent_under(PlannerMode::kForceClassic, cls);
    EXPECT_EQ(extent_under(PlannerMode::kForceBatch, cls), classic);
    EXPECT_EQ(extent_under(PlannerMode::kForceIndex, cls), classic);
    EXPECT_EQ(extent_under(PlannerMode::kAuto, cls), classic);
  }
  EXPECT_EQ(extent_under(PlannerMode::kAuto, low).size(), 10u);
  EXPECT_EQ(extent_under(PlannerMode::kAuto, b3).size(), 10u);
  EXPECT_EQ(extent_under(PlannerMode::kAuto, high).size(), 50u);
}

TEST_F(PlannerTest, ExplainSelectReportsTheChosenArm) {
  ClassId low = AddSelect("Low", MethodExpr::Lt(MethodExpr::Attr("id"),
                                                MethodExpr::Lit(Value::Int(10))));
  ExtentEvaluator eval(&graph_, &store_);
  eval.set_index_manager(indexes_.get());
  Result<SelectPlan> plan = eval.ExplainSelect(low);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().arm, PlanArm::kIndex);
  EXPECT_EQ(plan.value().source_size, kPop);
  EXPECT_FALSE(plan.value().reason.empty());

  // Not a select: explain refuses.
  EXPECT_FALSE(eval.ExplainSelect(cls_).ok());
}

TEST_F(PlannerTest, InvalidateDropsOneEntry) {
  ClassId low = AddSelect("Low", MethodExpr::Lt(MethodExpr::Attr("id"),
                                                MethodExpr::Lit(Value::Int(10))));
  ExtentEvaluator eval(&graph_, &store_);
  eval.set_index_manager(indexes_.get());
  ASSERT_EQ(eval.Extent(low).value()->size(), 10u);
  uint64_t misses_before = eval.stats().misses;
  eval.Invalidate(low);
  ASSERT_EQ(eval.Extent(low).value()->size(), 10u);
  EXPECT_GT(eval.stats().misses, misses_before);
}

// --- Satellite regression: delta-apply predicate errors -----------------

TEST_F(PlannerTest, DeltaEvalErrorsAreCountedNotSwallowed) {
  ClassId low = AddSelect("Low", MethodExpr::Lt(MethodExpr::Attr("id"),
                                                MethodExpr::Lit(Value::Int(10))));
  ExtentEvaluator eval(&graph_, &store_);
  eval.set_index_manager(indexes_.get());
  ASSERT_EQ(eval.Extent(low).value()->size(), 10u);
  ASSERT_EQ(eval.stats().delta_eval_errors, 0u);

  // A new member whose id reads Null: the incremental delta-apply path
  // cannot evaluate `id < 10` on it. Historically that error was
  // swallowed and the stale cached extent kept being served; it must
  // instead be counted and force the fallback rebuild — whose classic
  // evaluation then reports the same error a cold scan would.
  Oid hole = store_.CreateObject();
  ASSERT_TRUE(store_.AddMembership(hole, cls_).ok());
  Result<ExtentEvaluator::ExtentPtr> after = eval.Extent(low);
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(eval.stats().delta_eval_errors, 1u);

  // Cold evaluation agrees (error parity), and repairing the object
  // restores service through the same evaluator.
  ExtentEvaluator cold(&graph_, &store_);
  EXPECT_FALSE(cold.Extent(low).ok());
  ObjectAccessor acc(&graph_, &store_);
  ASSERT_TRUE(acc.Write(hole, cls_, "id", Value::Int(1000)).ok());
  ASSERT_TRUE(acc.Write(hole, cls_, "bucket", Value::Int(0)).ok());
  EXPECT_EQ(eval.Extent(low).value()->size(), 10u);
}

// --- Selectivity sweep over a large population ---------------------------

/// Mean seconds per cold evaluation of `cls` under `mode`: the select's
/// cache entry is dropped before every repetition while its source
/// extent stays warm, so each repetition pays the whole select arm.
double SecondsPerSelect(ExtentEvaluator& eval, ClassId cls, PlannerMode mode,
                        int reps) {
  eval.set_planner_mode(mode);
  double total = 0;
  for (int rep = 0; rep < reps; ++rep) {
    eval.Invalidate(cls);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(eval.Extent(cls).ok());
    total += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  }
  return total / reps;
}

TEST(PlannerSweepTest, IndexArmWinsAtLowSelectivityAndNeverAtHalf) {
  constexpr size_t kObjects = 50000;
  constexpr int64_t kBuckets = 1000;
  SchemaGraph graph;
  SlicingStore store;
  ClassId row = graph
                    .AddBaseClass(
                        "Row", {},
                        {PropertySpec::Attribute("id", ValueType::kInt),
                         PropertySpec::Attribute("bucket", ValueType::kInt)})
                    .value();
  PropertyDefId id_def = graph.ResolveProperty(row, "id").value()->id;
  PropertyDefId bucket_def = graph.ResolveProperty(row, "bucket").value()->id;
  for (size_t i = 0; i < kObjects; ++i) {
    Oid o = store.CreateObject();
    ASSERT_TRUE(store.AddMembership(o, row).ok());
    const int64_t id = static_cast<int64_t>(i);
    ASSERT_TRUE(store.SetValue(o, row, id_def, Value::Int(id)).ok());
    ASSERT_TRUE(
        store.SetValue(o, row, bucket_def, Value::Int(id % kBuckets)).ok());
  }
  IndexManager indexes(&graph, &store);
  ASSERT_TRUE(indexes.CreateIndex(id_def, IndexKind::kOrdered).ok());
  ASSERT_TRUE(indexes.CreateIndex(bucket_def, IndexKind::kHash).ok());
  ExtentEvaluator eval(&graph, &store);
  eval.set_index_manager(&indexes);
  ASSERT_TRUE(eval.Extent(row).ok());  // every arm intersects against it

  auto add_select = [&](const std::string& name, const std::string& attr,
                        ExprOp op, int64_t literal) {
    Derivation d;
    d.op = DerivationOp::kSelect;
    d.sources = {row};
    d.predicate = MethodExpr::Binary(op, MethodExpr::Attr(attr),
                                     MethodExpr::Lit(Value::Int(literal)));
    return graph.AddVirtualClass(name, std::move(d)).value();
  };
  auto arm_of = [&](ClassId cls) {
    auto plan = eval.ExplainSelect(cls);
    EXPECT_TRUE(plan.ok());
    return plan.ok() ? plan.value().arm : PlanArm::kClassic;
  };

  const std::vector<double> sweep = {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5};
  ClassId lowest;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const int64_t k = std::max<int64_t>(
        1, static_cast<int64_t>(sweep[i] * static_cast<double>(kObjects)));
    ClassId cls =
        add_select("Sweep" + std::to_string(i), "id", ExprOp::kLt, k);
    if (i == 0) lowest = cls;
    const PlanArm arm = arm_of(cls);
    if (sweep[i] <= 0.01) {
      EXPECT_EQ(arm, PlanArm::kIndex) << "selectivity " << sweep[i];
    }
    if (sweep[i] >= 0.5) {
      EXPECT_NE(arm, PlanArm::kIndex) << "selectivity " << sweep[i];
    }
    ASSERT_TRUE(eval.Extent(cls).ok());
    EXPECT_EQ(eval.Extent(cls).value()->size(), static_cast<size_t>(k));
  }
  ClassId bucket7 = add_select("Bucket7", "bucket", ExprOp::kEq, 7);
  EXPECT_EQ(arm_of(bucket7), PlanArm::kIndex);

  // The index arm pays for the few members it returns, not for the
  // population: at the lowest selectivity it must beat the classic
  // scan by at least 10x.
  const double classic_s =
      SecondsPerSelect(eval, lowest, PlannerMode::kForceClassic, 2);
  const double auto_s = SecondsPerSelect(eval, lowest, PlannerMode::kAuto, 5);
  ASSERT_GT(auto_s, 0);
  const double speedup = classic_s / auto_s;
  std::cout << "index arm vs classic scan at selectivity " << sweep.front()
            << ": " << speedup << "x\n";
  RecordProperty("low_selectivity_speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 10.0) << "classic " << classic_s * 1e3 << " ms, index "
                           << auto_s * 1e3 << " ms";
}

}  // namespace
}  // namespace tse::algebra
