#ifndef TSE_DB_SESSION_H_
#define TSE_DB_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "db/backend.h"
#include "evolution/schema_change.h"
#include "objmodel/value.h"
#include "update/transaction.h"
#include "update/update_engine.h"
#include "view/view_schema.h"

namespace tse {

class Db;

/// An assembled-but-unpublished schema change: the first half of the
/// two-phase schema change used by cluster coordinators
/// (Session::Prepare / CommitPrepared / AbortPrepared). The successor
/// view version and its classes exist in the schema graph but are
/// unreachable — no session can observe them — until CommitPrepared
/// publishes the version with the usual single atomic epoch flip.
/// Dropping the token without committing (AbortPrepared, a server
/// disconnect, or a crash) is a clean rollback: the invisible classes
/// are unreferenced garbage, exactly as after a mid-DDL crash.
struct PreparedSchemaChange {
  ViewId new_view;
  const view::ViewSchema* schema = nullptr;
  /// Catalog epoch observed at prepare time: CommitPrepared fails with
  /// FailedPrecondition when another schema change published since.
  uint64_t expected_epoch = 0;
};

/// A client's handle on the database, bound to one view version — the
/// paper's unit of user isolation (Section 7): every name the session
/// speaks is a *display name in its view*, and the session keeps
/// working against its version no matter what schema changes other
/// sessions apply. Evolving the view (Apply) transparently rebinds the
/// session to the new version it requested; Refresh() opts in to the
/// newest version of the logical view.
///
/// Session is the embedded tse::Backend: `Connect("embedded:…")`
/// returns one that owns its Db, and Clone() hands out further unbound
/// sessions sharing that ownership. Db::OpenSession returns one already
/// bound that borrows the Db (it must not outlive it). Until
/// OpenSession/OpenSessionAt succeeds a session is unbound: every
/// method that needs a view returns FailedPrecondition.
///
/// Thread safety: a Session is a single-client handle — one thread at
/// a time per session. Any number of *sessions* may operate on the
/// shared Db concurrently (see Db's concurrency model).
///
/// Updates run in auto-commit mode (each op durable per
/// DbOptions::durable_updates) unless bracketed by Begin()/Commit(),
/// which provides strict-2PL isolation with rollback. Rebinding or
/// destroying a session with an open transaction rolls it back.
class Session final : public Backend {
 public:
  /// An unbound session on `db`, sharing its ownership.
  explicit Session(std::shared_ptr<Db> db);
  /// An unbound session borrowing `db`, which must outlive it.
  explicit Session(Db* db);
  ~Session() override;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- Backend ----------------------------------------------------------
  // Documented on tse::Backend; only embedded specifics are noted here.

  /// "embedded:" followed by the Db's data_dir (empty when in-memory).
  std::string Where() const override;
  std::string view_name() const override;
  ViewId view_id() const override;
  int view_version() const override;
  [[nodiscard]] bool bound() const { return view_ != nullptr; }
  /// The Db epoch when this session last (re)bound its view.
  [[nodiscard]] uint64_t bound_epoch() const { return bound_epoch_; }

  /// Another unbound session on the same Db (same ownership).
  Result<std::unique_ptr<Backend>> Clone() override;
  /// NotFound for an unknown view; on failure the previous binding (and
  /// its transaction) is kept.
  Status OpenSession(const std::string& view_name) override;
  Status OpenSessionAt(ViewId view_id) override;
  Status Refresh() override;

  /// A tse::Snapshot of the bound view version at the newest committed
  /// data epoch (DESIGN.md §13). Inside an open transaction it sees only
  /// *committed* state — use the locked Get for read-your-writes.
  [[nodiscard]] Result<std::unique_ptr<SnapshotHandle>> GetSnapshot() override;

  [[nodiscard]] Result<ClassId> Resolve(
      const std::string& display_name) override;
  /// Reads live state; inside a transaction it takes a shared object
  /// lock. Prefer `GetSnapshot()->Get(...)` outside transactions: it
  /// never blocks on writers and repeats (docs/API.md §Snapshot reads).
  [[nodiscard]] Result<objmodel::Value> Get(
      Oid oid, const std::string& class_name,
      const std::string& path) override;
  /// Live state, in oid order. Prefer `GetSnapshot()->Extent(...)` when
  /// iterating with value reads — one epoch for the whole scan.
  [[nodiscard]] Result<std::vector<Oid>> Extent(
      const std::string& class_name) override;
  /// Live state, planned like a select class (ExtentEvaluator::Select):
  /// an `attr op literal` predicate gets the index or arena pass.
  [[nodiscard]] Result<std::vector<Oid>> Select(
      const std::string& class_name,
      const std::string& predicate_text) override;
  [[nodiscard]] Result<std::string> ViewToString() override;
  [[nodiscard]] Result<std::vector<std::string>> ListClasses() override;

  Result<Oid> Create(
      const std::string& class_name,
      const std::vector<update::Assignment>& assignments) override;
  Status Set(Oid oid, const std::string& class_name, const std::string& name,
             objmodel::Value value) override;
  /// Evaluates the full expression language against the target object.
  Status SetFromText(Oid oid, const std::string& class_name,
                     const std::string& attr,
                     const std::string& expr_text) override;
  Status Add(Oid oid, const std::string& class_name) override;
  Status Remove(Oid oid, const std::string& class_name) override;
  Status Delete(Oid oid) override;

  /// Strict 2PL; FailedPrecondition when a transaction is already open.
  Status Begin() override;
  /// Commits and (when durable) group-commits the touched objects.
  Status Commit() override;
  Status Rollback() override;
  [[nodiscard]] bool in_transaction() const {
    return txn_ != nullptr && txn_->active();
  }

  /// Applies a schema change to the bound view and rebinds this session
  /// to the new version. The change runs without draining any in-flight
  /// session operation: new classes are assembled invisibly and the
  /// version becomes visible with one atomic catalog publish. It
  /// touches no object: a capacity-augmenting class's implementation
  /// object attaches on the first write through it. Other sessions —
  /// including ones on older versions of the same logical view — are
  /// untouched. Rejected inside an open transaction.
  Result<ViewId> Apply(const evolution::SchemaChange& change);
  /// Parses `change_text` ("add_attribute x:int to C", …) and applies.
  Result<ViewId> Apply(const std::string& change_text) override;
  /// Applies a script in order; returns the final version.
  Result<ViewId> ApplyScript(const std::vector<evolution::SchemaChange>& script);

  // These need no binding.
  Result<ClassId> AddBaseClass(
      const std::string& name, const std::vector<ClassId>& supers,
      const std::vector<schema::PropertySpec>& props) override;
  Result<ViewId> CreateView(
      const std::string& logical_name,
      const std::vector<view::ViewClassSpec>& classes) override;
  /// The process-wide metrics registry.
  Result<std::string> Stats(bool as_json = false) override;
  Status ResetStats() override;
  Result<std::string> History() override;
  Result<std::string> Explain(const std::string& class_name) override;
  Db* db() override { return db_.get(); }

  // --- Two-phase schema change (cluster coordination) -------------------

  /// Phase one: assembles the successor version of the bound view
  /// without publishing it. No session (including this one) can observe
  /// the new version until CommitPrepared. Requires no open
  /// transaction.
  Result<PreparedSchemaChange> Prepare(const evolution::SchemaChange& change);
  Result<PreparedSchemaChange> Prepare(const std::string& change_text);

  /// Phase two: publishes a prepared change with the single atomic
  /// epoch flip and rebinds this session to the new version.
  /// FailedPrecondition when any other schema change published since
  /// the prepare (the coordinator then aborts and retries) — so a fleet
  /// of shards either all flip from the same epoch or none do.
  Result<ViewId> CommitPrepared(const PreparedSchemaChange& prepared);

  /// Drops a prepared change without publishing. The assembled classes
  /// stay unreachable garbage — the same harmless residue as a crash
  /// between prepare and flip.
  Status AbortPrepared(const PreparedSchemaChange& prepared);

 private:
  /// FailedPrecondition while unbound.
  Status RequireSession() const;

  /// Replaces the binding, counting the close of the old one (if any)
  /// and the open of the new one.
  Status Bind(const view::ViewSchema* view);
  /// Rolls back any open transaction and counts a close; no-op while
  /// unbound.
  void Unbind();

  /// Auto-commit tail for a durable mutation: persist `oid` under the
  /// data latch, then group-commit with no latch held.
  Status PersistAndCommit(Oid oid);

  /// The skeleton every write shares: the 2PL lock on `oid` (invalid
  /// for Create: nothing to lock yet), the schema latch shared, the
  /// resolve of `class_name` (null for Delete), the data latch
  /// exclusive, MVCC stamping, then `op` on the
  /// open transaction or on the engine (auto-commit: vacuum and durable
  /// commit follow). `op(writer, cls)` returns the written oid.
  template <typename Op>
  Result<Oid> Write(Oid oid, const std::string* class_name, Op op);

  /// Inside a transaction, takes the 2PL lock on `oid` before any latch
  /// is held, so a lock wait never blocks other sessions' latched work
  /// (including the holder's Commit). No-op outside a transaction.
  Status LockForTxn(Oid oid, bool exclusive);

  /// Two-phase bodies; both require ddl_mu_ held. FlipLocked publishes
  /// and rebinds; with `check_epoch` it first verifies no other change
  /// published since the prepare.
  Result<PreparedSchemaChange> PrepareLocked(
      const evolution::SchemaChange& change);
  Result<ViewId> FlipLocked(const PreparedSchemaChange& prepared,
                            bool check_epoch);

  /// Owning (Connect/Clone) or non-owning (Db::OpenSession, the server).
  std::shared_ptr<Db> db_;
  /// Null while unbound. Stable pointer: ViewManager never erases
  /// registered versions.
  const view::ViewSchema* view_ = nullptr;
  std::unique_ptr<update::Transaction> txn_;
  /// Objects mutated inside the open transaction (persisted on commit).
  std::vector<Oid> txn_touched_;
  uint64_t bound_epoch_ = 0;
};

}  // namespace tse

#endif  // TSE_DB_SESSION_H_
