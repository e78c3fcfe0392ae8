// Incremental extent maintenance must be observationally identical to
// cold from-scratch evaluation:
//
//  1. A randomized property test drives data churn and schema growth
//     against a long-lived evaluator and compares every class extent
//     with a cold evaluator after every operation.
//  2. An update-heavy refine chain (Section 9's propagation stress)
//     keeps its select extent warm on deltas alone: every query hits,
//     nothing rebuilds, and exactly the journaled records are applied,
//     while the whole-cache-invalidation baseline rebuilds once per
//     write and agrees at every step.
//  3. Every checked-in `.tsefuzz` repro replays with the
//     incremental-vs-cold cross-check forced on, so the historical
//     divergences cannot return through the delta-propagation path.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "algebra/extent_eval.h"
#include "algebra/object_accessor.h"
#include "algebra/processor.h"
#include "algebra/query.h"
#include "common/random.h"
#include "evolution/tse_manager.h"
#include "fuzz/fuzzer.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"
#include "update/update_engine.h"

#ifndef TSE_REPRO_DIR
#error "TSE_REPRO_DIR must point at tests/property/repros"
#endif

namespace tse::algebra {
namespace {

using objmodel::MethodExpr;
using objmodel::SlicingStore;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;
using schema::SchemaGraph;

/// Compares every class extent between the long-lived incremental
/// evaluator and a freshly built cold one. Errors must agree too.
void ExpectAllExtentsMatch(const SchemaGraph& graph, SlicingStore* store,
                           const ExtentEvaluator& inc, int step) {
  ExtentEvaluator cold(&graph, store);
  for (ClassId cls : graph.AllClasses()) {
    auto a = inc.Extent(cls);
    auto b = cold.Extent(cls);
    ASSERT_EQ(a.ok(), b.ok())
        << "step " << step << ", class " << cls.ToString()
        << ": incremental " << a.status().ToString() << ", cold "
        << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ(*a.value(), *b.value())
          << "step " << step << ", class " << cls.ToString()
          << ": incremental has " << a.value()->size() << " members, cold "
          << b.value()->size();
    }
  }
}

TEST(ExtentIncrementalTest, RandomChurnMatchesColdEvaluation) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SchemaGraph graph;
    SlicingStore store;
    ClassId person =
        graph
            .AddBaseClass("Person", {},
                          {PropertySpec::Attribute("name", ValueType::kString),
                           PropertySpec::Attribute("age", ValueType::kInt)})
            .value();
    ClassId student =
        graph
            .AddBaseClass("Student", {person},
                          {PropertySpec::Attribute("gpa", ValueType::kReal)})
            .value();
    AlgebraProcessor proc(&graph);
    proc.DefineVC("Adult", Query::Select(Query::Class("Person"),
                                         MethodExpr::Ge(
                                             MethodExpr::Attr("age"),
                                             MethodExpr::Lit(Value::Int(18)))))
        .value();
    proc.DefineVC("Honor", Query::Select(Query::Class("Student"),
                                         MethodExpr::Ge(
                                             MethodExpr::Attr("gpa"),
                                             MethodExpr::Lit(
                                                 Value::Real(3.5)))))
        .value();
    proc.DefineVC("Anon", Query::Hide(Query::Class("Person"), {"name"}))
        .value();
    proc.DefineVC("HonorOrAdult", Query::Union(Query::Class("Honor"),
                                               Query::Class("Adult")))
        .value();
    proc.DefineVC("MinorStudent",
                  Query::Difference(Query::Class("Student"),
                                    Query::Class("Adult")))
        .value();

    ExtentEvaluator inc(&graph, &store);
    ObjectAccessor acc(&graph, &store);
    Rng rng(seed * 7919);
    std::vector<Oid> oids;
    int vc_counter = 0;

    for (int step = 0; step < 120; ++step) {
      int op = static_cast<int>(rng.Uniform(10));
      if (op <= 2 || oids.empty()) {  // create
        Oid o = store.CreateObject();
        ClassId cls = rng.Percent(50) ? person : student;
        ASSERT_TRUE(store.AddMembership(o, cls).ok());
        ASSERT_TRUE(
            acc.Write(o, cls, "age",
                      Value::Int(static_cast<int64_t>(rng.Uniform(40))))
                .ok());
        if (cls == student) {
          ASSERT_TRUE(
              acc.Write(o, cls, "gpa",
                        Value::Real(2.0 + 0.1 * rng.Uniform(25)))
                  .ok());
        }
        oids.push_back(o);
      } else if (op <= 5) {  // value churn (may flip select predicates)
        Oid o = oids[rng.Uniform(oids.size())];
        ClassId cls = store.HasMembership(o, student) ? student : person;
        const char* attr = (cls == student && rng.Percent(50)) ? "gpa" : "age";
        Value v = attr == std::string("gpa")
                      ? Value::Real(2.0 + 0.1 * rng.Uniform(25))
                      : Value::Int(static_cast<int64_t>(rng.Uniform(40)));
        ASSERT_TRUE(acc.Write(o, cls, attr, v).ok());
      } else if (op == 6) {  // no-op write: must not disturb anything
        Oid o = oids[rng.Uniform(oids.size())];
        ClassId cls = store.HasMembership(o, student) ? student : person;
        Value v = acc.Read(o, cls, "age").value();
        if (!v.is_null()) {
          ASSERT_TRUE(acc.Write(o, cls, "age", v).ok());
        }
      } else if (op == 7) {  // membership churn
        Oid o = oids[rng.Uniform(oids.size())];
        if (store.HasMembership(o, student)) {
          ASSERT_TRUE(store.RemoveMembership(o, student).ok());
          ASSERT_TRUE(store.AddMembership(o, person).ok());
        } else if (store.HasMembership(o, person)) {
          ASSERT_TRUE(store.RemoveMembership(o, person).ok());
          ASSERT_TRUE(store.AddMembership(o, student).ok());
        }
      } else if (op == 8) {  // destroy
        size_t i = rng.Uniform(oids.size());
        ASSERT_TRUE(store.DestroyObject(oids[i]).ok());
        oids.erase(oids.begin() + i);
      } else {  // schema growth mid-stream
        int64_t cut = static_cast<int64_t>(rng.Uniform(40));
        proc.DefineVC(
                "Vc" + std::to_string(seed) + "_" +
                    std::to_string(vc_counter++),
                Query::Select(Query::Class("Person"),
                              MethodExpr::Lt(MethodExpr::Attr("age"),
                                             MethodExpr::Lit(
                                                 Value::Int(cut)))))
            .value();
      }
      ExpectAllExtentsMatch(graph, &store, inc, step);
      if (HasFatalFailure()) return;
    }
    // The run must actually have exercised delta propagation, not
    // degenerated into full rebuilds.
    EXPECT_GT(inc.stats().delta_records, 0u) << "seed " << seed;
    EXPECT_GT(inc.stats().hits, inc.stats().misses) << "seed " << seed;
  }
}

TEST(ExtentIncrementalTest, DeepChainStaysWarmOnDeltasAlone) {
  constexpr int kDepth = 8;
  constexpr int kObjects = 300;
  constexpr uint64_t kOps = 200;

  // A populated base class refined kDepth times by add_attribute, with a
  // select over the deepest refine class reading a stored attribute.
  SchemaGraph graph;
  SlicingStore store;
  view::ViewManager views(&graph);
  evolution::TseManager tse(&graph, &store, &views);
  update::UpdateEngine db(&graph, &store, update::ValueClosurePolicy::kAllow);
  ClassId base =
      graph.AddBaseClass("Item", {},
                         {PropertySpec::Attribute("id", ValueType::kInt)})
          .value();
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(db.Create(base, {{"id", Value::Int(i)}}).ok());
  }
  ViewId vs = tse.CreateView("VS", {{base, ""}}).value();
  for (int d = 0; d < kDepth; ++d) {
    evolution::AddAttribute change;
    change.class_name = "Item";
    change.spec =
        PropertySpec::Attribute("f" + std::to_string(d), ValueType::kInt);
    vs = tse.ApplyChange(vs, change).value();
  }
  ClassId leaf = views.GetView(vs).value()->Resolve("Item").value();
  AlgebraProcessor proc(&graph);
  ClassId hot =
      proc.DefineVC("HotItem",
                    Query::Select(Query::Class(graph.GetClass(leaf).value()->name),
                                  MethodExpr::Lt(MethodExpr::Attr("id"),
                                                 MethodExpr::Lit(Value::Int(
                                                     kObjects / 2)))))
          .value();

  // The engine's own evaluator maintains incrementally; a second one
  // over the same store is the whole-cache-invalidation baseline.
  ExtentEvaluator& inc = db.extents();
  ASSERT_TRUE(inc.incremental());
  ExtentEvaluator baseline(&graph, &store);
  baseline.set_incremental(false);
  ASSERT_TRUE(inc.Extent(hot).ok());
  ASSERT_TRUE(baseline.Extent(hot).ok());
  inc.ResetStats();
  baseline.ResetStats();
  const uint64_t journal_start = store.journal_head();

  const auto leaf_extent = inc.Extent(leaf).value();
  const std::vector<Oid> pool(leaf_extent->begin(), leaf_extent->end());
  uint64_t queried_at = store.mutation_count();
  uint64_t writes = 0;
  // Both evaluators answer the same query; the baseline rebuilds
  // whenever the store moved since its last answer.
  auto expect_agree = [&](uint64_t op) {
    if (store.mutation_count() != queried_at) ++writes;
    queried_at = store.mutation_count();
    auto a = inc.Extent(hot);
    auto b = baseline.Extent(hot);
    ASSERT_TRUE(a.ok() && b.ok()) << "op " << op;
    EXPECT_EQ(*a.value(), *b.value()) << "op " << op;
  };
  Rng rng(42);
  for (uint64_t op = 0; op < kOps; ++op) {
    if (op % 10 == 9) {
      // Membership delta: create through the chain, then destroy.
      Oid fresh =
          db.Create(base, {{"id", Value::Int(static_cast<int64_t>(
                                      rng.Uniform(2 * pool.size())))}})
              .value();
      expect_agree(op);
      ASSERT_TRUE(store.DestroyObject(fresh).ok());
    } else {
      // Value delta that can flip the select predicate's verdict.
      Oid target = pool[rng.Uniform(pool.size())];
      ASSERT_TRUE(db.Set(target, leaf, "id",
                         Value::Int(static_cast<int64_t>(
                             rng.Uniform(2 * pool.size()))))
                      .ok());
      expect_agree(op);
    }
    if (HasFatalFailure()) return;
  }
  expect_agree(kOps);  // drains the last destroy

  const ExtentEvaluator::CacheStats inc_stats = inc.stats();
  EXPECT_EQ(inc_stats.misses, 0u);
  EXPECT_EQ(inc_stats.HitRate(), 1.0);
  EXPECT_EQ(inc_stats.full_rebuilds, 0u);
  EXPECT_GT(inc_stats.delta_records, 0u);
  EXPECT_EQ(inc_stats.delta_records, store.journal_head() - journal_start);
  EXPECT_GT(writes, kOps / 2);
  EXPECT_EQ(baseline.stats().full_rebuilds, writes);
}

TEST(ExtentIncrementalTest, ReproCorpusReplaysCleanWithCrossCheck) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TSE_REPRO_DIR)) {
    if (entry.path().extension() == ".tsefuzz") {
      files.push_back(entry.path().string());
    }
  }
  ASSERT_GE(files.size(), 4u) << "repro corpus went missing";
  fuzz::ExecutorOptions options;
  options.check_incremental_extents = true;
  for (const std::string& path : files) {
    Result<fuzz::RunReport> report = fuzz::ReplayFile(path, options);
    ASSERT_TRUE(report.ok()) << path << ": " << report.status().ToString();
    ASSERT_TRUE(report.value().error.ok())
        << path << ": " << report.value().error.ToString();
    EXPECT_TRUE(report.value().Clean())
        << path << " diverged: " << report.value().divergence->ToString();
  }
}

}  // namespace
}  // namespace tse::algebra
