#include "algebra/extent_deps.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/str_util.h"
#include "objmodel/method.h"
#include "obs/metrics.h"
#include "schema/schema_graph.h"

namespace tse::algebra {
namespace {

using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;
using schema::Derivation;
using schema::DerivationOp;
using schema::PropertySpec;
using schema::SchemaGraph;

uint64_t FullRebuilds() {
  obs::MetricsSnapshot now = obs::MetricsRegistry::Instance().Snapshot();
  auto it = now.counters.find("algebra.deps.full_rebuilds");
  return it == now.counters.end() ? 0 : it->second;
}

/// Names every stored attribute and select predicate draws from, so
/// predicates keep resolving, shadowing and failing to resolve as the
/// schema grows.
const std::vector<std::string> kNames = {"a0", "a1", "a2", "a3", "a4"};

/// Everything a consumer reads off the graph must be the same.
void ExpectSameGraph(const SchemaGraph& g, const DerivationDepGraph& extended,
                     const DerivationDepGraph& fresh, const std::string& at) {
  for (ClassId cls : g.AllClasses()) {
    SCOPED_TRACE(StrCat(at, ", class ", g.GetClass(cls).value()->name));
    EXPECT_EQ(extended.Dependents(cls), fresh.Dependents(cls));
    const DerivationDepGraph::SelectInfo* x = extended.Select(cls);
    const DerivationDepGraph::SelectInfo* y = fresh.Select(cls);
    ASSERT_EQ(x == nullptr, y == nullptr);
    if (x != nullptr) {
      EXPECT_EQ(x->attr_names, y->attr_names);
      EXPECT_EQ(x->is_volatile, y->is_volatile);
    }
    if (g.GetClass(cls).value()->is_base()) {
      EXPECT_EQ(extended.BaseUps(cls), fresh.BaseUps(cls));
    }
  }
  for (const std::string& name : kNames) {
    EXPECT_EQ(extended.SelectsOnName(name), fresh.SelectsOnName(name))
        << at << ", name " << name;
  }
  EXPECT_EQ(extended.VolatileSelects(), fresh.VolatileSelects()) << at;
}

TEST(DerivationDepGraphTest, ExtendedGraphEqualsFreshRebuild) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    SchemaGraph g;
    std::vector<ClassId> bases{g.root()};
    std::vector<ClassId> all{g.root()};
    DerivationDepGraph extended;
    extended.Extend(g);
    const uint64_t rebuilds_before = FullRebuilds();
    uint64_t expected_rebuilds = 0;
    auto pick = [&](const std::vector<ClassId>& from) {
      return from[rng.Uniform(from.size())];
    };
    for (int step = 0; step < 60; ++step) {
      const uint64_t op = rng.Uniform(100);
      const std::string name = StrCat("C", step);
      if (op < 20 || bases.size() < 3) {
        std::vector<ClassId> supers;
        if (bases.size() > 1 && rng.Percent(70)) supers.push_back(pick(bases));
        auto cls = g.AddBaseClass(
            name, supers,
            {PropertySpec::Attribute(kNames[rng.Uniform(kNames.size())],
                                     ValueType::kInt)});
        ASSERT_TRUE(cls.ok()) << cls.status().ToString();
        bases.push_back(cls.value());
        all.push_back(cls.value());
      } else if (op < 70) {
        Derivation d;
        const uint64_t kind = rng.Uniform(6);
        if (kind < 3) {
          // Selects: bounded, dotted (volatile) or over a name the
          // source may lack (volatile until resolution shifts).
          d.op = DerivationOp::kSelect;
          d.sources = {pick(all)};
          std::string attr = kNames[rng.Uniform(kNames.size())];
          if (kind == 2) attr += ".next";
          d.predicate = MethodExpr::Ge(MethodExpr::Attr(attr),
                                       MethodExpr::Lit(Value::Int(step)));
        } else if (kind == 3) {
          d.op = DerivationOp::kHide;
          d.sources = {pick(all)};
          d.hidden = {kNames[rng.Uniform(kNames.size())]};
        } else {
          d.op = kind == 4 ? DerivationOp::kUnion : DerivationOp::kIntersect;
          d.sources = {pick(all), pick(all)};
        }
        auto cls = g.AddVirtualClass(name, std::move(d));
        ASSERT_TRUE(cls.ok()) << cls.status().ToString();
        all.push_back(cls.value());
      } else if (op < 85) {
        // Remove an unreferenced virtual class (a discarded duplicate).
        for (size_t i = all.size(); i-- > 0;) {
          ClassId cls = all[i];
          if (g.GetClass(cls).value()->is_base() ||
              !g.DerivedFrom(cls).empty()) {
            continue;
          }
          ASSERT_TRUE(g.RemoveClass(cls).ok());
          all.erase(all.begin() + static_cast<std::ptrdiff_t>(i));
          ++expected_rebuilds;
          break;
        }
      } else {
        // A local property on a base class moves the invalidate floor.
        ClassId base = pick(bases);
        auto def = g.DefineProperty(
            PropertySpec::Attribute(kNames[rng.Uniform(kNames.size())],
                                    ValueType::kInt),
            base);
        ASSERT_TRUE(def.ok());
        ASSERT_TRUE(g.AddLocalProperty(base, def.value()).ok());
        ++expected_rebuilds;
      }
      // Fill some BaseUps memo entries so a stale one would show.
      for (int i = 0; i < 3; ++i) (void)extended.BaseUps(pick(bases));
      extended.Extend(g);
      DerivationDepGraph fresh;
      fresh.Rebuild(g);
      ExpectSameGraph(g, extended, fresh, StrCat("step ", step));
      ++expected_rebuilds;  // the fresh graph's own rebuild
    }
#ifndef TSE_OBS_DISABLE
    // Extending does not fall back to a rebuild for class additions.
    EXPECT_EQ(FullRebuilds() - rebuilds_before, expected_rebuilds);
#else
    (void)rebuilds_before;
    (void)expected_rebuilds;
#endif
  }
}

TEST(DerivationDepGraphTest, ExtendBesideConcurrentDdl) {
  // ExtentEvaluator::Sync extends while DDL keeps adding classes: a
  // class created mid-extension is picked up by the next one.
  SchemaGraph g;
  ClassId base =
      g.AddBaseClass("B", {}, {PropertySpec::Attribute("a0", ValueType::kInt)})
          .value();
  DerivationDepGraph deps;
  std::atomic<bool> done{false};
  std::thread ddl([&] {
    for (int i = 0; i < 200; ++i) {
      Derivation d;
      d.op = DerivationOp::kSelect;
      d.sources = {base};
      d.predicate = MethodExpr::Ge(MethodExpr::Attr(kNames[i % 2]),
                                   MethodExpr::Lit(Value::Int(i)));
      ASSERT_TRUE(g.AddVirtualClass(StrCat("S", i), std::move(d)).ok());
    }
    done = true;
  });
  while (!done) deps.Extend(g);
  ddl.join();
  deps.Extend(g);
  DerivationDepGraph fresh;
  fresh.Rebuild(g);
  ExpectSameGraph(g, deps, fresh, "after the DDL thread");
  EXPECT_EQ(deps.Dependents(base).size(), 200u);
}

TEST(DerivationDepGraphTest, ExtendIsANoOpWithoutSchemaChanges) {
  SchemaGraph g;
  ClassId base =
      g.AddBaseClass("B", {}, {PropertySpec::Attribute("a0", ValueType::kInt)})
          .value();
  Derivation d;
  d.op = DerivationOp::kSelect;
  d.sources = {base};
  d.predicate = MethodExpr::Ge(MethodExpr::Attr("a0"),
                               MethodExpr::Lit(Value::Int(1)));
  ClassId sel = g.AddVirtualClass("S", std::move(d)).value();
  DerivationDepGraph deps;
  deps.Extend(g);
  deps.Extend(g);
  EXPECT_EQ(deps.Dependents(base), std::vector<ClassId>{sel});
  EXPECT_EQ(deps.SelectsOnName("a0"), std::vector<ClassId>{sel});
  EXPECT_EQ(deps.BaseUps(base), (std::vector<ClassId>{g.root(), base}));
}

}  // namespace
}  // namespace tse::algebra
