// docs/METRICS.md completeness check: run a broad full-pipeline
// workload (schema evolution, classification, extent maintenance,
// object updates, transactions, WAL, pager, locks), then require every
// metric name the run registered to appear in the reference table.
// A new TSE_COUNT/TSE_LATENCY_US call site without a docs row fails
// here, so the table cannot silently rot.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "algebra/extent_eval.h"
#include "algebra/object_accessor.h"
#include "algebra/processor.h"
#include "algebra/query.h"
#include "index/index_manager.h"
#include "layout/packed_record_cache.h"
#include "db/db.h"
#include "db/session.h"
#include "db/snapshot.h"
#include "evolution/change_parser.h"
#include "evolution/tse_manager.h"
#include "cluster/backend.h"
#include "cluster/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "storage/lock_manager.h"
#include "storage/pager.h"
#include "storage/record_store.h"
#include "storage/wal.h"
#include "update/transaction.h"
#include "update/update_engine.h"

namespace tse {
namespace {

#ifndef TSE_OBS_DISABLE

using evolution::ParseChange;
using evolution::TseManager;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

void RunEvolutionPipeline() {
  schema::SchemaGraph schema;
  objmodel::SlicingStore store;
  view::ViewManager views(&schema);
  TseManager tse(&schema, &store, &views);

  ClassId person =
      schema
          .AddBaseClass("Person", {},
                        {PropertySpec::Attribute("name", ValueType::kString),
                         PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  ClassId student = schema.AddBaseClass("Student", {person}, {}).value();

  update::UpdateEngine db(&schema, &store, update::ValueClosurePolicy::kAllow);
  Oid alice = db.Create(student, {{"name", Value::Str("alice")},
                                  {"age", Value::Int(20)}})
                  .value();

  ViewId v1 = tse.CreateView("Docs", {{person, ""}, {student, ""}}).value();
  ViewId v2 =
      tse.ApplyChange(v1, ParseChange("add_attribute gpa:real to Student")
                              .value())
          .value();
  ViewId v3 =
      tse.ApplyChange(v2, ParseChange("add_method is_adult = age >= 18 "
                                      "to Person")
                              .value())
          .value();
  // A rejected change registers the rejection counter.
  ASSERT_FALSE(tse.ApplyChange(v3, ParseChange("delete_attribute nope "
                                               "from Person")
                                       .value())
                   .ok());
  ASSERT_TRUE(tse.MergeVersions(v2, v3, "DocsMerged").ok());

  // Extent machinery: a select VC over a stored attribute, queried
  // across value updates in both maintenance modes.
  algebra::AlgebraProcessor proc(&schema);
  ClassId adults =
      proc.DefineVC("Adults",
                    algebra::Query::Select(
                        algebra::Query::Class("Person"),
                        objmodel::MethodExpr::Ge(
                            objmodel::MethodExpr::Attr("age"),
                            objmodel::MethodExpr::Lit(Value::Int(18)))))
          .value();
  algebra::ExtentEvaluator& extents = db.extents();
  extents.set_incremental(true);
  ASSERT_TRUE(extents.Extent(adults).ok());
  ASSERT_TRUE(db.Set(alice, student, "age", Value::Int(17)).ok());
  ASSERT_TRUE(extents.Extent(adults).ok());      // delta patch
  ASSERT_TRUE(extents.Extent(adults).ok());      // cache hit
  extents.set_incremental(false);
  ASSERT_TRUE(db.Set(alice, student, "age", Value::Int(30)).ok());
  ASSERT_TRUE(extents.Extent(adults).ok());      // full rebuild path
  ASSERT_TRUE(extents.IsMember(alice, adults).ok());

  // Membership + deletion paths, and a value-closure rejection.
  ASSERT_TRUE(db.Add(alice, person).ok());
  ASSERT_TRUE(db.Remove(alice, student).ok());
  Oid bob = db.Create(person, {{"age", Value::Int(40)}}).value();
  ASSERT_TRUE(db.Delete(bob).ok());
  update::UpdateEngine strict(&schema, &store,
                              update::ValueClosurePolicy::kReject);
  ASSERT_FALSE(
      strict.Create(adults, {{"age", Value::Int(2)}}).ok());

  // Transactions: one commit, one abort.
  storage::LockManager txn_locks;
  update::TransactionManager txns(&db, &txn_locks);
  auto committed = txns.Begin();
  ASSERT_TRUE(committed->Set(alice, person, "age", Value::Int(31)).ok());
  ASSERT_TRUE(committed->Commit().ok());
  auto aborted = txns.Begin();
  ASSERT_TRUE(aborted->Set(alice, person, "age", Value::Int(99)).ok());
  ASSERT_TRUE(aborted->Abort().ok());
}

void RunIndexPlannerWorkload() {
  // Secondary indexes + the select planner (DESIGN.md §11): index
  // lifecycle, journal maintenance, gap rebuild, every plan arm, the
  // delta-abandon cutover, and the delta-eval-error fallback.
  schema::SchemaGraph schema;
  objmodel::SlicingStore store;
  ClassId q = schema
                  .AddBaseClass("Q", {},
                                {PropertySpec::Attribute("n", ValueType::kInt)})
                  .value();
  PropertyDefId n_def = schema.ResolveProperty(q, "n").value()->id;
  algebra::ObjectAccessor acc(&schema, &store);
  std::vector<Oid> oids;
  for (int i = 0; i < 100; ++i) {
    Oid o = store.CreateObject();
    ASSERT_TRUE(store.AddMembership(o, q).ok());
    ASSERT_TRUE(acc.Write(o, q, "n", Value::Int(i)).ok());
    oids.push_back(o);
  }
  index::IndexManager indexes(&schema, &store);
  ASSERT_TRUE(indexes.CreateIndex(n_def, index::IndexKind::kOrdered).ok());
  std::vector<Oid> hits;
  ASSERT_TRUE(indexes.LookupEq(n_def, Value::Int(7), &hits));     // lookups
  ASSERT_TRUE(acc.Write(oids[0], q, "n", Value::Int(0)).ok());
  ASSERT_TRUE(indexes.Probe(n_def).has_value());        // maintain_records

  auto add_select = [&](const std::string& name, int64_t below) {
    schema::Derivation d;
    d.op = schema::DerivationOp::kSelect;
    d.sources = {q};
    d.predicate = objmodel::MethodExpr::Lt(objmodel::MethodExpr::Attr("n"),
                                           objmodel::MethodExpr::Lit(
                                               Value::Int(below)));
    return schema.AddVirtualClass(name, std::move(d)).value();
  };
  ClassId narrow = add_select("QNarrow", 5);   // ~5%  -> index arm
  ClassId wide = add_select("QWide", 80);      // ~80% -> batch arm

  algebra::ExtentEvaluator eval(&schema, &store);
  eval.set_index_manager(&indexes);
  ASSERT_TRUE(eval.Extent(narrow).ok());                // plan.index_scan
  ASSERT_TRUE(eval.Extent(wide).ok());                  // plan.batch_scan
  eval.set_planner_mode(algebra::PlannerMode::kForceClassic);
  eval.Invalidate(wide);
  ASSERT_TRUE(eval.Extent(wide).ok());                  // plan.full_scan
  eval.set_planner_mode(algebra::PlannerMode::kAuto);
  ASSERT_TRUE(eval.ExplainSelect(narrow).ok());

  // One small journal batch -> delta maintenance; a giant one -> the
  // abandon cutover; an overflowing one -> index gap + rebuild.
  ASSERT_TRUE(acc.Write(oids[1], q, "n", Value::Int(1)).ok());
  ASSERT_TRUE(eval.Extent(narrow).ok());                // plan.delta_maintain
  for (size_t i = 0; i < algebra::ExtentEvaluator::kDeltaAbandonThreshold;
       ++i) {
    ASSERT_TRUE(acc.Write(oids[2], q, "n", Value::Int(2)).ok());
  }
  ASSERT_TRUE(eval.Extent(narrow).ok());                // plan.delta_abandoned
  for (size_t i = 0; i < objmodel::SlicingStore::kJournalCapacity + 10; ++i) {
    ASSERT_TRUE(acc.Write(oids[3], q, "n", Value::Int(3)).ok());
  }
  ASSERT_TRUE(indexes.Probe(n_def).has_value());  // journal_gaps + rebuilds

  // A member whose `n` reads Null: delta application cannot evaluate
  // the predicate -> counted error + fallback rebuild.
  ASSERT_TRUE(eval.Extent(narrow).ok());
  Oid hole = store.CreateObject();
  ASSERT_TRUE(store.AddMembership(hole, q).ok());
  ASSERT_FALSE(eval.Extent(narrow).ok());     // extent.delta_eval_errors
  ASSERT_TRUE(indexes.DropIndex(n_def).ok());           // index.drops

  // The Db-facade index DDL surface.
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  auto db = Db::Open(options).value();
  ClassId c = db->AddBaseClass(
                    "IxDoc", {},
                    {PropertySpec::Attribute("a", ValueType::kInt)})
                  .value();
  ASSERT_TRUE(db->CreateView("IxDocs", {{c, ""}}).ok());
  PropertyDefId a_def =
      db->CreateIndex("IxDoc", "a", index::IndexKind::kHash).value();
  ASSERT_TRUE(db->DropIndex(a_def).ok());
}

void RunLayoutWorkload() {
  // Adaptive physical layout (DESIGN.md §12): pin/unpin lifecycle,
  // packed point reads and column scans, journal maintenance, the gap
  // rebuild, and a schema-change migration.
  schema::SchemaGraph schema;
  objmodel::SlicingStore store;
  ClassId hot =
      schema
          .AddBaseClass("LHot", {},
                        {PropertySpec::Attribute("n", ValueType::kInt)})
          .value();
  PropertyDefId n_def = schema.ResolveProperty(hot, "n").value()->id;
  const schema::PropertyDef& n = *schema.GetProperty(n_def).value();
  algebra::ObjectAccessor acc(&schema, &store);
  std::vector<Oid> oids;
  for (int i = 0; i < 10; ++i) {
    Oid o = store.CreateObject();
    ASSERT_TRUE(store.AddMembership(o, hot).ok());
    ASSERT_TRUE(acc.Write(o, hot, "n", Value::Int(i)).ok());
    oids.push_back(o);
  }

  layout::AdvisorOptions manual;
  manual.enabled = false;
  layout::PackedRecordCache cache(&schema, &store, manual);
  Value v;
  ASSERT_FALSE(cache.TryGetPacked(oids[0], n, &v));       // packed.misses
  ASSERT_TRUE(cache.Pin(hot).ok());                       // pins + promotions
  ASSERT_TRUE(cache.TryGetPacked(oids[0], n, &v));        // packed.hits
  ASSERT_TRUE(cache.WithColumn(                           // packed.scan_hits
      hot, n_def, [](const auto&, const auto&) {}));
  ASSERT_FALSE(cache.WithColumn(                          // packed.scan_misses
      hot, PropertyDefId(999999), [](const auto&, const auto&) {}));
  ASSERT_TRUE(acc.Write(oids[1], hot, "n", Value::Int(42)).ok());
  ASSERT_TRUE(cache.TryGetPacked(oids[1], n, &v));        // maintain_records
  for (size_t i = 0; i < objmodel::SlicingStore::kJournalCapacity + 10; ++i) {
    ASSERT_TRUE(acc.Write(oids[2], hot, "n", Value::Int(0)).ok());
  }
  ASSERT_TRUE(cache.TryGetPacked(oids[2], n, &v));  // journal_gaps + rebuilds
  ASSERT_TRUE(schema
                  .AddBaseClass("LSub", {hot},
                                {PropertySpec::Attribute("m",
                                                         ValueType::kInt)})
                  .ok());
  ASSERT_TRUE(cache.TryGetPacked(oids[0], n, &v));        // migrations
  ASSERT_TRUE(cache.Unpin(hot).ok());                     // unpins + demotions
}

void RunDbFacadeWorkload(const std::string& dir) {
  // Every session-facing path: open/read/update, a transaction commit
  // and rollback, a schema change + refresh, durable group commit.
  DbOptions options;
  options.data_dir = dir + "/metrics_docs_db";
  // TempDir persists across runs; a stale catalog would make the DDL
  // below collide with its restored namesakes.
  std::filesystem::remove_all(options.data_dir);
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  auto db = Db::Open(options).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  ASSERT_TRUE(db->CreateView("Facade", {{person, ""}}).ok());

  auto session = db->OpenSession("Facade").value();
  Oid p = session->Create("Person", {{"age", Value::Int(3)}}).value();
  ASSERT_TRUE(session->Set(p, "Person", "age", Value::Int(4)).ok());
  ASSERT_TRUE(session->Get(p, "Person", "age").ok());
  ASSERT_TRUE(session->Extent("Person").ok());
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Set(p, "Person", "age", Value::Int(5)).ok());
  ASSERT_TRUE(session->Commit().ok());
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Rollback().ok());
  ASSERT_TRUE(session->Apply("add_attribute facade_x:int to Person").ok());
  auto lagging = db->OpenSession("Facade").value();
  ASSERT_TRUE(lagging->Refresh().ok());
}

void RunSnapshotWorkload() {
  // MVCC snapshot reads: open, epoch-pinned Get/Extent (db.snapshot.*),
  // version-chain growth (storage.version_chain_len), and an explicit
  // vacuum reclaiming trimmed entries (db.snapshot.vacuumed_versions).
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  options.vacuum_every = 0;  // explicit vacuum below, deterministically
  auto db = Db::Open(options).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  ASSERT_TRUE(db->CreateView("Snap", {{person, ""}}).ok());
  auto session = db->OpenSession("Snap").value();
  Oid p = session->Create("Person", {{"age", Value::Int(1)}}).value();
  auto snap = session->GetSnapshot().value();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(session->Set(p, "Person", "age", Value::Int(10 + i)).ok());
  }
  ASSERT_TRUE(snap->Get(p, "Person", "age").ok());
  ASSERT_TRUE(snap->Extent("Person").ok());
  snap.reset();
  ASSERT_GT(db->VacuumVersions(), 0u);
}

void RunNetWorkload() {
  // Wire protocol: loopback server + client covering accept, session
  // bind, request dispatch, a schema change over the wire, and close.
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  auto db = Db::Open(options).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  ASSERT_TRUE(db->CreateView("Wire", {{person, ""}}).ok());

  net::ServerOptions server_options;
  net::Server server(db.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  {
    auto client = Client::Connect("127.0.0.1", server.port()).value();
    ASSERT_TRUE(client->Ping().ok());
    ASSERT_TRUE(client->OpenSession("Wire").ok());
    Oid p = client->Create("Person", {{"age", Value::Int(9)}}).value();
    ASSERT_TRUE(client->Set(p, "Person", "age", Value::Int(10)).ok());
    ASSERT_TRUE(client->Get(p, "Person", "age").ok());
    ASSERT_TRUE(client->Apply("add_attribute wired:int to Person").ok());
  }
  server.Stop();
}

void RunClusterWorkload() {
  // The sharded access layer: routed point ops, fan-outs, and a
  // fleet-wide two-phase schema change through tse::Cluster (a
  // one-shard fleet exercises every cluster.* call site).
  DbOptions options;
  options.closure_policy = update::ValueClosurePolicy::kAllow;
  auto db = Db::Open(options).value();
  ClassId person =
      db->AddBaseClass("Person", {},
                       {PropertySpec::Attribute("age", ValueType::kInt)})
          .value();
  ASSERT_TRUE(db->CreateView("Fleet", {{person, ""}}).ok());

  net::Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  {
    auto fleet = Connect("cluster:127.0.0.1:" +
                         std::to_string(server.port()))
                     .value();
    ASSERT_TRUE(fleet->OpenSession("Fleet").ok());
    Oid p = fleet->Create("Person", {{"age", Value::Int(1)}}).value();
    ASSERT_TRUE(fleet->Set(p, "Person", "age", Value::Int(2)).ok());
    ASSERT_TRUE(fleet->Get(p, "Person", "age").ok());
    ASSERT_TRUE(fleet->Extent("Person").ok());
    ASSERT_TRUE(fleet->Apply("add_attribute fleet_x:int to Person").ok());
  }
  server.Stop();
}

void RunStorageWorkload(const std::string& dir) {
  // WAL: append, fsync on commit, replay.
  auto wal = storage::Wal::Open(dir + "/metrics_docs.wal").value();
  storage::WalRecord put;
  put.type = storage::WalRecordType::kPut;
  put.key = 1;
  put.payload = "payload";
  ASSERT_TRUE(wal->Append(put).ok());
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(
      wal->Replay([](const storage::WalRecord&) { return Status::OK(); })
          .ok());

  // Pager: a tiny cache forces misses and evictions alongside hits.
  storage::PagerOptions options;
  options.cache_capacity = 2;
  auto pager =
      storage::Pager::Open(dir + "/metrics_docs.pages", options).value();
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(pager->Allocate().value());
  ASSERT_TRUE(pager->Flush().ok());
  for (PageId page : pages) ASSERT_TRUE(pager->Get(page).ok());
  ASSERT_TRUE(pager->Get(pages.back()).ok());  // recency hit
  ASSERT_TRUE(pager->Free(pages.front()).ok());
  ASSERT_TRUE(pager->Flush().ok());

  // RecordStore: one Get = one attributed logical access, recorded into
  // the storage.pager.reads_per_access histogram.
  storage::RecordStoreOptions rs_options;
  auto rs =
      storage::RecordStore::Open(dir + "/metrics_docs_rs", rs_options).value();
  ASSERT_TRUE(rs->Put(1, "payload").ok());
  ASSERT_TRUE(rs->Get(1).ok());

  // Locks: grant, contended wait, timeout.
  storage::LockManager locks(std::chrono::milliseconds(20));
  ASSERT_TRUE(
      locks.Acquire(TxnId(1), 7, storage::LockMode::kExclusive).ok());
  Status contended =
      locks.Acquire(TxnId(2), 7, storage::LockMode::kShared);
  EXPECT_TRUE(contended.IsAborted());
  locks.ReleaseAll(TxnId(1));
}

TEST(MetricsDocs, EveryRegisteredMetricIsDocumented) {
  RunEvolutionPipeline();
  RunIndexPlannerWorkload();
  RunLayoutWorkload();
  RunDbFacadeWorkload(::testing::TempDir());
  RunSnapshotWorkload();
  RunNetWorkload();
  RunClusterWorkload();
  RunStorageWorkload(::testing::TempDir());

  std::ifstream doc(TSE_METRICS_DOC);
  ASSERT_TRUE(doc.good()) << "cannot open " << TSE_METRICS_DOC;
  std::stringstream buffer;
  buffer << doc.rdbuf();
  const std::string text = buffer.str();

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  EXPECT_GE(snap.counters.size(), 20u)
      << "workload no longer exercises the pipeline broadly";
  EXPECT_GE(snap.histograms.size(), 2u);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(text.find("`" + name + "`"), std::string::npos)
        << "counter " << name << " is not documented in docs/METRICS.md";
  }
  for (const auto& [name, stats] : snap.histograms) {
    EXPECT_NE(text.find("`" + name + "`"), std::string::npos)
        << "histogram " << name << " is not documented in docs/METRICS.md";
  }
}

#else  // TSE_OBS_DISABLE

TEST(MetricsDocs, DisabledBuildRegistersNothing) {
  EXPECT_TRUE(obs::MetricsRegistry::Instance().Snapshot().counters.empty());
}

#endif  // TSE_OBS_DISABLE

}  // namespace
}  // namespace tse
