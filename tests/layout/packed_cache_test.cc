#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algebra/extent_eval.h"
#include "algebra/object_accessor.h"
#include "algebra/planner.h"
#include "layout/layout_advisor.h"
#include "layout/packed_record_cache.h"
#include "objmodel/slicing_store.h"
#include "obs/metrics.h"
#include "schema/schema_graph.h"

namespace tse::layout {
namespace {

using algebra::ExtentEvaluator;
using algebra::ObjectAccessor;
using algebra::PlanArm;
using algebra::PlannerMode;
using objmodel::MethodExpr;
using objmodel::SlicingStore;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;
using schema::SchemaGraph;

// --- LayoutAdvisor policy surface ----------------------------------------

TEST(LayoutAdvisorTest, PromotesHottestEligibleUpToBudget) {
  AdvisorOptions options;
  options.hot_point_reads = 10;
  options.hot_scans = 2;
  options.max_auto_promotions = 2;
  LayoutAdvisor advisor(options);

  std::vector<ClassActivity> window;
  auto add = [&](uint64_t cls, uint64_t reads, uint64_t scans, bool promoted,
                 bool pinned, bool eligible) {
    ClassActivity a;
    a.cls = ClassId(cls);
    a.point_reads = reads;
    a.scans = scans;
    a.promoted = promoted;
    a.pinned = pinned;
    a.eligible = eligible;
    window.push_back(a);
  };
  add(1, 100, 0, false, false, true);   // hottest candidate
  add(2, 50, 0, false, false, true);    // second
  add(3, 200, 0, false, false, false);  // ineligible: never promoted
  add(4, 5, 1, false, false, true);     // below both thresholds
  add(5, 0, 3, false, false, true);     // hot by scans

  LayoutAdvisor::Decision d = advisor.Decide(window);
  EXPECT_TRUE(d.demote.empty());
  ASSERT_EQ(d.promote.size(), 2u);
  EXPECT_EQ(d.promote[0], ClassId(1));  // activity-descending order
  EXPECT_EQ(d.promote[1], ClassId(2));
}

TEST(LayoutAdvisorTest, DemotesColdAutoPromotionsButNeverPins) {
  AdvisorOptions options;
  LayoutAdvisor advisor(options);
  std::vector<ClassActivity> window;
  ClassActivity cold_auto;
  cold_auto.cls = ClassId(1);
  cold_auto.promoted = true;
  window.push_back(cold_auto);
  ClassActivity cold_pin = cold_auto;
  cold_pin.cls = ClassId(2);
  cold_pin.pinned = true;
  window.push_back(cold_pin);

  LayoutAdvisor::Decision d = advisor.Decide(window);
  ASSERT_EQ(d.demote.size(), 1u);
  EXPECT_EQ(d.demote[0], ClassId(1));
  EXPECT_TRUE(d.promote.empty());

  options.enabled = false;
  LayoutAdvisor off(options);
  d = off.Decide(window);
  EXPECT_TRUE(d.demote.empty());
  EXPECT_TRUE(d.promote.empty());
}

// --- PackedRecordCache over a live store ---------------------------------

class PackedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    item_ = graph_
                .AddBaseClass(
                    "Item", {},
                    {PropertySpec::Attribute("n", ValueType::kInt),
                     PropertySpec::Attribute("tag", ValueType::kString),
                     PropertySpec::Method(
                         "twice",
                         MethodExpr::Mul(MethodExpr::Attr("n"),
                                         MethodExpr::Lit(Value::Int(2))),
                         ValueType::kInt)})
                .value();
    gadget_ = graph_
                  .AddBaseClass(
                      "Gadget", {item_},
                      {PropertySpec::Attribute("w", ValueType::kInt)})
                  .value();
    n_def_ = graph_.ResolveProperty(item_, "n").value()->id;
    tag_def_ = graph_.ResolveProperty(item_, "tag").value()->id;
    w_def_ = graph_.ResolveProperty(gadget_, "w").value()->id;
  }

  Oid MakeMember(ClassId cls, int64_t n) {
    Oid o = store_.CreateObject();
    EXPECT_TRUE(store_.AddMembership(o, cls).ok());
    ObjectAccessor acc(&graph_, &store_);
    EXPECT_TRUE(acc.Write(o, cls, "n", Value::Int(n)).ok());
    return o;
  }

  const schema::PropertyDef& Def(PropertyDefId id) {
    return *graph_.GetProperty(id).value();
  }

  /// Advisor disabled: promotion happens only through Pin.
  AdvisorOptions ManualOnly() {
    AdvisorOptions options;
    options.enabled = false;
    return options;
  }

  SchemaGraph graph_;
  SlicingStore store_;
  ClassId item_, gadget_;
  PropertyDefId n_def_, tag_def_, w_def_;
};

TEST_F(PackedCacheTest, PinBuildsRowsAndServesPointReads) {
  Oid a = MakeMember(item_, 1);
  Oid b = MakeMember(item_, 2);
  Oid g = MakeMember(gadget_, 3);  // Gadget is-a Item: subsumed row

  PackedRecordCache cache(&graph_, &store_, ManualOnly());
  ASSERT_TRUE(cache.Pin(item_).ok());
  EXPECT_TRUE(cache.IsPromoted(item_));
  EXPECT_EQ(cache.promoted_count(), 1u);

  Value v;
  ASSERT_TRUE(cache.TryGetPacked(a, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(1));
  ASSERT_TRUE(cache.TryGetPacked(b, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(2));
  // The gadget's slice of Item packs into Item's layout too.
  ASSERT_TRUE(cache.TryGetPacked(g, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(3));
  // Unwritten attribute: the packed cell holds Null, same as the slice.
  ASSERT_TRUE(cache.TryGetPacked(a, Def(tag_def_), &v));
  EXPECT_EQ(v, Value::Null());
  // Gadget itself is not promoted: its local attribute misses.
  EXPECT_FALSE(cache.TryGetPacked(g, Def(w_def_), &v));

  auto stats = cache.Explain(item_).value();
  EXPECT_EQ(stats.state, "pinned");
  EXPECT_TRUE(stats.scan_complete);
  EXPECT_EQ(stats.rows, 3u);
  EXPECT_EQ(stats.columns, 2u);  // n + tag; the method packs no column
  EXPECT_GE(stats.hits, 4u);
}

TEST_F(PackedCacheTest, PinValidationAndIdempotence) {
  PackedRecordCache cache(&graph_, &store_, ManualOnly());
  EXPECT_TRUE(cache.Pin(ClassId(999999)).IsNotFound());

  // A class whose effective type packs no stored attribute is
  // unpinnable (there would be nothing to co-locate).
  ClassId pure =
      graph_
          .AddBaseClass("Pure", {},
                        {PropertySpec::Method("one", MethodExpr::Lit(
                                                         Value::Int(1)),
                                              ValueType::kInt)})
          .value();
  EXPECT_FALSE(cache.Pin(pure).ok());

  ASSERT_TRUE(cache.Pin(item_).ok());
  ASSERT_TRUE(cache.Pin(item_).ok());  // idempotent
  EXPECT_EQ(cache.Pinned(), std::vector<ClassId>({item_}));

  EXPECT_TRUE(cache.Unpin(gadget_).IsNotFound());
  ASSERT_TRUE(cache.Unpin(item_).ok());
  EXPECT_FALSE(cache.IsPromoted(item_));
  EXPECT_TRUE(cache.Unpin(item_).IsNotFound());
  EXPECT_EQ(cache.Explain(item_).value().state, "cold");
}

TEST_F(PackedCacheTest, MaintainsRowsAndCellsFromJournal) {
  PackedRecordCache cache(&graph_, &store_, ManualOnly());
  ASSERT_TRUE(cache.Pin(item_).ok());

  // Rows key on journaled memberships: objects created after the pin
  // appear on the next probe.
  Oid a = MakeMember(item_, 7);
  Value v;
  ASSERT_TRUE(cache.TryGetPacked(a, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(7));

  // Value change rewrites the cell.
  ObjectAccessor acc(&graph_, &store_);
  ASSERT_TRUE(acc.Write(a, item_, "n", Value::Int(8)).ok());
  ASSERT_TRUE(cache.TryGetPacked(a, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(8));
  // Writing Null reads Null, exactly like the slice.
  ASSERT_TRUE(acc.Write(a, item_, "n", Value::Null()).ok());
  ASSERT_TRUE(cache.TryGetPacked(a, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Null());

  // Membership removal drops the row; destruction too.
  Oid b = MakeMember(item_, 9);
  ASSERT_TRUE(store_.RemoveMembership(b, item_).ok());
  EXPECT_FALSE(cache.TryGetPacked(b, Def(n_def_), &v));
  ASSERT_TRUE(store_.DestroyObject(a).ok());
  EXPECT_FALSE(cache.TryGetPacked(a, Def(n_def_), &v));
  EXPECT_EQ(cache.Explain(item_).value().rows, 0u);
}

TEST_F(PackedCacheTest, JournalGapTriggersConsistentRebuild) {
  PackedRecordCache cache(&graph_, &store_, ManualOnly());
  ASSERT_TRUE(cache.Pin(item_).ok());
  Oid keeper = MakeMember(item_, 7);
  Value v;
  ASSERT_TRUE(cache.TryGetPacked(keeper, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(7));

  // Overflow the bounded journal between probes so ChangesSince reports
  // a gap and the cache must rebuild from a store scan.
  ObjectAccessor acc(&graph_, &store_);
  Oid churn = MakeMember(item_, 0);
  for (size_t i = 0; i < SlicingStore::kJournalCapacity + 50; ++i) {
    ASSERT_TRUE(
        acc.Write(churn, item_, "n", Value::Int(static_cast<int64_t>(i)))
            .ok());
  }
  ASSERT_TRUE(acc.Write(churn, item_, "n", Value::Int(7)).ok());

  ASSERT_TRUE(cache.TryGetPacked(churn, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(7));
  ASSERT_TRUE(cache.TryGetPacked(keeper, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(7));
  EXPECT_EQ(cache.Explain(item_).value().rows, 2u);
}

TEST_F(PackedCacheTest, SchemaChangeMigratesPackedLayout) {
  Oid a = MakeMember(item_, 1);
  PackedRecordCache cache(&graph_, &store_, ManualOnly());
  ASSERT_TRUE(cache.Pin(item_).ok());
  EXPECT_EQ(cache.Explain(item_).value().columns, 2u);

  // A new base class beneath Item bumps Item's class_version (its
  // extent-defining surroundings changed): the next probe migrates the
  // layout and the new class's members pack in.
  ClassId widget =
      graph_
          .AddBaseClass("Widget", {item_},
                        {PropertySpec::Attribute("z", ValueType::kInt)})
          .value();
  Oid w = MakeMember(widget, 5);
  Value v;
  ASSERT_TRUE(cache.TryGetPacked(w, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(5));
  EXPECT_EQ(cache.Explain(item_).value().rows, 2u);

  // A local property addition moves the invalidate floor: the migrated
  // layout packs the new column.
  auto extra = graph_.DefineProperty(
      PropertySpec::Attribute("extra", ValueType::kInt), item_);
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(graph_.AddLocalProperty(item_, extra.value()).ok());
  EXPECT_EQ(cache.Explain(item_).value().columns, 3u);
  ASSERT_TRUE(cache.TryGetPacked(a, Def(extra.value()), &v));
  EXPECT_EQ(v, Value::Null());
}

TEST_F(PackedCacheTest, PinnedVirtualClassServesPointReadsOnly) {
  Oid a = MakeMember(item_, 1);
  schema::Derivation sel;
  sel.op = schema::DerivationOp::kSelect;
  sel.sources = {item_};
  sel.predicate = MethodExpr::Eq(MethodExpr::Attr("n"),
                                 MethodExpr::Lit(Value::Int(1)));
  ClassId hot = graph_.AddVirtualClass("Hot", std::move(sel)).value();

  PackedRecordCache cache(&graph_, &store_, ManualOnly());
  ASSERT_TRUE(cache.Pin(hot).ok());
  auto stats = cache.Explain(hot).value();
  EXPECT_TRUE(stats.promoted);
  // Derived rows may under-cover the true extent, so column blocks are
  // never handed to batch scans.
  EXPECT_FALSE(stats.scan_complete);
  bool called = false;
  PropertyDefId n = n_def_;
  EXPECT_FALSE(cache.WithColumn(
      hot, n, [&](const auto&, const auto&) { called = true; }));
  EXPECT_FALSE(called);
  (void)a;
}

TEST_F(PackedCacheTest, WithColumnHandsScanCompleteBlocks) {
  Oid a = MakeMember(item_, 1);
  Oid b = MakeMember(item_, 2);
  PackedRecordCache cache(&graph_, &store_, ManualOnly());
  ASSERT_TRUE(cache.Pin(item_).ok());

  bool called = false;
  ASSERT_TRUE(cache.WithColumn(
      item_, n_def_,
      [&](const std::unordered_map<uint64_t, size_t>& row_of,
          const std::vector<Value>& cells) {
        called = true;
        ASSERT_EQ(row_of.size(), 2u);
        ASSERT_EQ(cells.size(), 2u);
        EXPECT_EQ(cells[row_of.at(a.value())], Value::Int(1));
        EXPECT_EQ(cells[row_of.at(b.value())], Value::Int(2));
      }));
  EXPECT_TRUE(called);

  // No column for an unpacked def; no block for an unpromoted class.
  EXPECT_FALSE(cache.WithColumn(item_, w_def_, [](const auto&, const auto&) {}));
  EXPECT_FALSE(
      cache.WithColumn(gadget_, w_def_, [](const auto&, const auto&) {}));
}

TEST_F(PackedCacheTest, AdvisorAutoPromotesHotAndDemotesCold) {
  Oid a = MakeMember(item_, 1);
  Oid g = MakeMember(gadget_, 2);
  ObjectAccessor acc(&graph_, &store_);
  ASSERT_TRUE(acc.Write(g, gadget_, "w", Value::Int(3)).ok());

  AdvisorOptions options;
  options.decision_interval = 8;
  options.hot_point_reads = 4;
  options.hot_scans = 2;
  options.max_auto_promotions = 1;
  PackedRecordCache cache(&graph_, &store_, options);

  // Eight point reads of Item cross the threshold at the window tick;
  // the probe after the tick hits the fresh layout.
  Value v;
  for (int i = 0; i < 8; ++i) (void)cache.TryGetPacked(a, Def(n_def_), &v);
  EXPECT_TRUE(cache.IsPromoted(item_));
  EXPECT_EQ(cache.Explain(item_).value().state, "auto");
  ASSERT_TRUE(cache.TryGetPacked(a, Def(n_def_), &v));
  EXPECT_EQ(v, Value::Int(1));

  // Gadget-only traffic from here on. The hit above opened the new
  // window with one Item read, so the first tick (7 more events) keeps
  // Item warm; the window after that sees Item fully cold, demotes it,
  // and promotes the hot Gadget into the freed auto slot (budget 1).
  for (int i = 0; i < 15; ++i) (void)cache.TryGetPacked(g, Def(w_def_), &v);
  EXPECT_FALSE(cache.IsPromoted(item_));
  EXPECT_TRUE(cache.IsPromoted(gadget_));

  // Pinning wins over the advisor: a pinned class survives cold windows.
  ASSERT_TRUE(cache.Pin(item_).ok());
  for (int i = 0; i < 20; ++i) (void)cache.TryGetPacked(g, Def(w_def_), &v);
  EXPECT_TRUE(cache.IsPromoted(item_));
  EXPECT_EQ(cache.Explain(item_).value().state, "pinned");
}


// --- A deep is-a chain: one packed row instead of six slices -------------

TEST(PackedChainTest, PinnedChainServesEveryCellAndBatchScansMatchClassic) {
  constexpr size_t kDepth = 6;  // is-a chain length == slices per object
  constexpr size_t kObjects = 3000;
  constexpr size_t kAccesses = 2000;
  SchemaGraph graph;
  SlicingStore store;
  std::vector<ClassId> chain;
  std::vector<std::string> attrs;
  for (size_t d = 0; d < kDepth; ++d) {
    attrs.push_back("a" + std::to_string(d));
    std::vector<ClassId> supers;
    if (d > 0) supers.push_back(chain.back());
    chain.push_back(graph
                        .AddBaseClass("C" + std::to_string(d), supers,
                                      {PropertySpec::Attribute(
                                          attrs[d], ValueType::kInt)})
                        .value());
  }
  const ClassId leaf = chain.back();
  ObjectAccessor sliced(&graph, &store);
  std::vector<Oid> oids;
  for (size_t i = 0; i < kObjects; ++i) {
    Oid o = store.CreateObject();
    ASSERT_TRUE(store.AddMembership(o, leaf).ok());
    for (size_t d = 0; d < kDepth; ++d) {
      // One write per slice: each attribute stores at its definer.
      ASSERT_TRUE(sliced
                      .Write(o, leaf, attrs[d],
                             Value::Int(static_cast<int64_t>(i * kDepth + d)))
                      .ok());
    }
    oids.push_back(o);
  }

  AdvisorOptions manual;
  manual.enabled = false;
  PackedRecordCache cache(&graph, &store, manual);
  ASSERT_TRUE(cache.Pin(leaf).ok());
  ObjectAccessor packed(&graph, &store);
  packed.set_layout(&cache);

  // Every point read of every attribute is served from packed cells,
  // and answers what the slices hold.
  const uint64_t hits_before = cache.Explain(leaf).value().hits;
#ifndef TSE_OBS_DISABLE
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Instance().Snapshot();
#endif
  uint64_t rng = 42;
  for (size_t i = 0; i < kAccesses; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    Oid o = oids[(rng >> 33) % oids.size()];
    for (size_t d = 0; d < kDepth; ++d) {
      auto got = packed.Read(o, leaf, attrs[d]);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got.value(), sliced.Read(o, leaf, attrs[d]).value());
    }
  }
  EXPECT_EQ(cache.Explain(leaf).value().hits - hits_before,
            kAccesses * kDepth);
#ifndef TSE_OBS_DISABLE
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Instance().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("layout.packed.hits"), kAccesses * kDepth);
#endif

  // A select over the promoted chain class runs on the packed column
  // block and returns exactly the classic scan's extent.
  schema::Derivation sel;
  sel.op = schema::DerivationOp::kSelect;
  sel.sources = {leaf};
  sel.predicate = MethodExpr::Lt(
      MethodExpr::Attr(attrs[0]),
      MethodExpr::Lit(Value::Int(static_cast<int64_t>(kObjects))));
  ClassId low = graph.AddVirtualClass("Low", std::move(sel)).value();
  ExtentEvaluator classic(&graph, &store);
  classic.set_planner_mode(PlannerMode::kForceClassic);
  ExtentEvaluator batch(&graph, &store);
  batch.set_layout(&cache);
  auto plan = batch.ExplainSelect(low);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().arm, PlanArm::kBatch);
  auto expected = classic.Extent(low);
  auto got = batch.Extent(low);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_EQ(got.value()->size(), kObjects / kDepth);
  EXPECT_EQ(*got.value(), *expected.value());
}

}  // namespace
}  // namespace tse::layout
