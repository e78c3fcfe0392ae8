#ifndef TSE_DB_DB_H_
#define TSE_DB_DB_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "algebra/extent_eval.h"
#include "algebra/processor.h"
#include "classifier/classifier.h"
#include "common/ids.h"
#include "common/result.h"
#include "db/catalog.h"
#include "db/group_commit.h"
#include "evolution/tse_manager.h"
#include "index/index_manager.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"
#include "update/transaction.h"
#include "update/update_engine.h"
#include "view/view_manager.h"

namespace tse {

class Session;
class Snapshot;

/// Configuration for Db::Open.
struct DbOptions {
  /// Section 3.4 value-closure handling for updates through select
  /// classes (reject by default, per the paper's updatability rules).
  update::ValueClosurePolicy closure_policy = update::ValueClosurePolicy::kReject;

  /// When non-empty, the database is durable: the object store and the
  /// schema catalog persist under this directory ("objects.*" and
  /// "catalog.*" record stores), and Open() restores any previous
  /// state. Empty = fully in-memory.
  std::string data_dir;

  /// With a data_dir, every auto-commit mutation (and every transaction
  /// commit) is made durable before returning, batched across sessions
  /// by the group committer. When false, data reaches disk only at
  /// explicit Save()/Checkpoint() calls.
  bool durable_updates = true;

  /// How long a transaction waits for a contended object lock before
  /// giving up with Aborted (timeout-based deadlock resolution).
  std::chrono::milliseconds lock_timeout{200};

  /// Write epochs between amortized in-line vacuum passes (version
  /// chains are additionally vacuumed by a background heartbeat thread
  /// and by explicit VacuumVersions() calls). 0 disables all automatic
  /// vacuuming, the heartbeat thread included — chains then trim only
  /// on explicit calls, which tests use to make reclamation
  /// deterministic.
  uint64_t vacuum_every = 256;

  /// Shard identity when this store is one partition of a cluster
  /// (src/cluster/): conceptual oids are allocated on the residue
  /// lattice `oid % shard_count == shard_id`, so a client can route any
  /// point op from the oid alone. The defaults (0 of 1) are a
  /// standalone store with the historic dense allocation.
  uint32_t shard_id = 0;
  uint32_t shard_count = 1;
};

/// The embedding facade over the whole TSE engine (Figure 6 in one
/// object): owns and wires the global schema graph, the slicing object
/// store, the view manager + history, the TSEM, the update engine, a
/// shared incremental extent evaluator, the transaction manager, the
/// versioned catalog of the online schema-change path, and (when
/// durable) the WAL/pager record stores.
///
/// ## Concurrency model (DESIGN.md §8, §10)
///
/// Many sessions share one Db from many threads:
///
///   - *Reads* (resolve/get/extent) and *object updates* run in
///     parallel: both hold `schema_mu_` shared; updates additionally
///     hold `data_mu_` exclusive while mutating the store (reads hold
///     it shared).
///   - *Schema changes* are serialized by `ddl_mu_` and hold **no**
///     session-visible latch: the SchemaGraph and ViewManager are
///     internally synchronized, the change only ever *adds* invisible
///     classes, and the new view version becomes visible with the
///     single atomic epoch flip of `VersionedCatalog::Publish`.
///     In-flight sessions finish untouched on their pinned version; no
///     session is ever aborted or even stalled by a schema change.
///   - A schema change touches no object. A capacity-augmenting class's
///     implementation object attaches when a value is first written
///     through it (`SlicingStore::SetValue`); until then its attributes
///     read Null.
///   - Durability waits (group-commit fsync) happen with no latch
///     held, so one session's fsync never blocks another's reads.
///
/// Lock order: ddl_mu_ → schema_mu_ → data_mu_ → (component-internal
/// locks).
class Db {
 public:
  /// Opens a database. With options.data_dir set, restores persisted
  /// catalog + objects from a previous run.
  static Result<std::unique_ptr<Db>> Open(DbOptions options = {});

  ~Db();
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  // --- Global DDL (serialized; epoch-bumping) ---------------------------

  /// Defines a base class with declared is-a supers and local props.
  Result<ClassId> AddBaseClass(const std::string& name,
                               const std::vector<ClassId>& supers,
                               const std::vector<schema::PropertySpec>& props);

  /// `defineVC name as query`: materializes the virtual class(es) and
  /// classifies each into the global DAG as it is created, nested
  /// `<name>$<n>` auxiliaries first. Returns the representative class
  /// (an existing duplicate when one is found).
  Result<ClassId> DefineVirtualClass(const std::string& name,
                                     const algebra::Query::Ptr& query);

  /// Creates version 1 of a user view (type closure completed
  /// automatically).
  Result<ViewId> CreateView(const std::string& logical_name,
                            const std::vector<view::ViewClassSpec>& classes);

  /// Section 7: merges two view versions into a new logical view.
  Result<ViewId> MergeViews(ViewId a, ViewId b,
                            const std::string& merged_logical_name);

  // --- Secondary indexes (serialized with DDL; catalog-persisted) -------

  /// Declares and builds a secondary index over the stored attribute
  /// `attr_name` of global class `class_name` (kHash answers equality
  /// probes, kOrdered adds ranges). Transparent to sessions: the select
  /// planner picks it up when profitable; results never change. Returns
  /// the indexed PropertyDefId.
  Result<PropertyDefId> CreateIndex(const std::string& class_name,
                                    const std::string& attr_name,
                                    index::IndexKind kind);

  /// Same, for an already-resolved property definition.
  Result<PropertyDefId> CreateIndexOn(PropertyDefId def,
                                      index::IndexKind kind);

  Status DropIndex(PropertyDefId def);

  /// Every declared index.
  [[nodiscard]] std::vector<index::IndexSpec> ListIndexes() const {
    return indexes_->List();
  }

  // --- Sessions ---------------------------------------------------------

  /// A new session borrowing this Db, bound with
  /// Session::OpenSession to the *current* version of `view_name`
  /// (NotFound when no such logical view exists). The session stays
  /// pinned to that version until it evolves the view itself or calls
  /// Refresh(). Sessions must not outlive the Db.
  Result<std::unique_ptr<Session>> OpenSession(const std::string& view_name);

  /// Binds to an explicit (possibly historical) view version.
  Result<std::unique_ptr<Session>> OpenSessionAt(ViewId view_id);

  /// Monotone schema-change counter: bumped by every DDL call and every
  /// session schema change. A session records the epoch it bound at.
  [[nodiscard]] uint64_t epoch() const { return catalog_->head_epoch(); }

  /// The options this database was opened with (shard identity, etc).
  [[nodiscard]] const DbOptions& options() const { return options_; }

  /// The versioned catalog: publication log + head epoch.
  [[nodiscard]] const db::VersionedCatalog& catalog() const {
    return *catalog_;
  }

  // --- Snapshots (MVCC lock-free reads; DESIGN.md §13) -------------------

  /// Opens a read-only snapshot of the *current* version of `view_name`
  /// at the newest committed data epoch. The snapshot's reads are
  /// repeatable and take no object locks; its epoch stays safe from the
  /// vacuum until the handle is destroyed.
  [[nodiscard]] Result<std::unique_ptr<Snapshot>> OpenSnapshot(
      const std::string& view_name);

  /// Opens a snapshot of an explicit view version at an explicit data
  /// epoch. InvalidArgument when `epoch` is in the future;
  /// FailedPrecondition when it has already been vacuumed away.
  [[nodiscard]] Result<std::unique_ptr<Snapshot>> OpenSnapshotAt(
      ViewId view_id, uint64_t epoch);

  /// The newest committed data epoch (what a snapshot opened now would
  /// read at). Distinct from epoch(): that counts schema publications,
  /// this counts data commits.
  [[nodiscard]] uint64_t visible_epoch() const {
    return visible_epoch_.load(std::memory_order_acquire);
  }

  /// Trims version-chain entries below the oldest live snapshot epoch.
  /// Runs automatically (amortized in the write path and from the
  /// background heartbeat); exposed for deterministic tests. Returns the
  /// number of version entries reclaimed.
  size_t VacuumVersions();

  // --- Durability -------------------------------------------------------

  [[nodiscard]] bool durable() const { return objects_db_ != nullptr; }

  /// Persists the full catalog + object snapshot (no-op when
  /// in-memory).
  Status Save();

  /// Save() + page-file checkpoint + WAL truncation on both stores.
  Status Checkpoint();

  // --- Component escape hatch -------------------------------------------
  // Direct component access for tools and tests. These bypass the
  // session latches: do not mutate through them while concurrent
  // sessions are live. docs/API.md lists what is supported.

  schema::SchemaGraph& schema() { return *schema_; }
  objmodel::SlicingStore& store() { return *store_; }
  view::ViewManager& views() { return *views_; }
  evolution::TseManager& tsem() { return *tse_; }
  update::UpdateEngine& engine() { return *engine_; }
  algebra::ExtentEvaluator& extents() { return *extents_; }
  index::IndexManager& indexes() { return *indexes_; }

 private:
  friend class Session;
  friend class Snapshot;

  Db() = default;

  /// The newest *published* version of `view_name`, resolved through
  /// the catalog's publication log — never through the ViewManager's
  /// latest version, which also holds versions assembled by an
  /// in-flight two-phase prepare (Session::Prepare) that must stay
  /// unreachable until their flip. Requires schema_mu_ shared.
  Result<const view::ViewSchema*> CurrentPublished(
      const std::string& view_name) const;

  /// Snapshot registry bookkeeping (snap_mu_ is the innermost lock:
  /// taken with any combination of the latches above held, never the
  /// other way around).
  void UnregisterSnapshot(uint64_t epoch);
  /// Oldest epoch any live snapshot reads at (visible epoch when none).
  uint64_t SnapshotHorizon() const;
  /// VacuumVersions body; requires data_mu_ exclusive.
  size_t VacuumLocked();
  /// Amortized write-path vacuum: a full pass every
  /// DbOptions::vacuum_every data epochs. No latch may be held.
  void MaybeVacuum();

  /// Wires components; with a data_dir, opens the record stores and
  /// restores persisted state.
  Status Bootstrap(DbOptions options);

  /// Writes the catalog through CatalogIO (commits internally).
  /// Requires ddl_mu_ (DDL serialization keeps the snapshot
  /// consistent; the component-internal locks cover concurrent
  /// readers).
  Status PersistCatalog();

  /// The background heartbeat: a vacuum pass every 100 ms until
  /// StopHeartbeat. Started by Bootstrap when vacuum_every != 0.
  void HeartbeatLoop();
  void StopHeartbeat();

  DbOptions options_;
  std::unique_ptr<schema::SchemaGraph> schema_;
  std::unique_ptr<objmodel::SlicingStore> store_;
  std::unique_ptr<view::ViewManager> views_;
  std::unique_ptr<evolution::TseManager> tse_;
  std::unique_ptr<algebra::AlgebraProcessor> algebra_;
  std::unique_ptr<classifier::Classifier> classifier_;
  std::unique_ptr<algebra::ExtentEvaluator> extents_;
  std::unique_ptr<index::IndexManager> indexes_;
  std::unique_ptr<update::UpdateEngine> engine_;
  std::unique_ptr<storage::LockManager> locks_;
  std::unique_ptr<update::TransactionManager> txns_;
  std::unique_ptr<db::VersionedCatalog> catalog_;
  std::unique_ptr<storage::RecordStore> objects_db_;  ///< null when in-memory
  std::unique_ptr<storage::RecordStore> catalog_db_;  ///< null when in-memory
  std::unique_ptr<db::GroupCommitter> committer_;

  /// Serializes schema changes (and catalog persistence) against each
  /// other. Never touched by session read/update paths.
  std::mutex ddl_mu_;
  /// Schema latch: session ops shared; Save/Checkpoint exclusive
  /// (schema changes never take it).
  mutable std::shared_mutex schema_mu_;
  /// Data latch: object reads shared, object mutations exclusive.
  mutable std::shared_mutex data_mu_;

  /// Newest committed data epoch: bumped (release) by every auto-commit
  /// mutation and every transaction commit, with data_mu_ held
  /// exclusive, after the store captured that epoch's pre-images.
  std::atomic<uint64_t> visible_epoch_{0};
  /// Epochs at or below this may have had their versions vacuumed:
  /// OpenSnapshotAt rejects them.
  std::atomic<uint64_t> vacuum_floor_{0};
  /// Guards live_snapshots_ (innermost lock; see UnregisterSnapshot).
  mutable std::mutex snap_mu_;
  /// Epochs of live Snapshot handles (multiset: many per epoch).
  std::multiset<uint64_t> live_snapshots_;

  /// Background heartbeat state (the thread is declared last: it uses
  /// the members above).
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  std::thread heartbeat_;
};

}  // namespace tse

#endif  // TSE_DB_DB_H_
