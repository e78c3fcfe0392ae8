#include "db/session.h"

#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "db/db.h"
#include "db/snapshot.h"
#include "evolution/change_parser.h"
#include "obs/metrics.h"
#include "objmodel/expr_parser.h"
#include "objmodel/persistence.h"

namespace tse {

namespace {

/// Arms MVCC pre-image capture around one engine mutation executed
/// under the exclusive data latch. Auto-commit ops stamp the next data
/// epoch directly and publish it on scope exit (even when the engine
/// call failed — the epoch is consumed so any partially captured
/// pre-images stay consistent with the live state); transactional ops
/// stamp kPendingEpoch tagged with the txn id, resolved at
/// Commit/Rollback.
class MvccWriteGuard {
 public:
  MvccWriteGuard(objmodel::SlicingStore* store,
                 std::atomic<uint64_t>* visible_epoch, uint64_t txn_marker)
      : store_(store), visible_epoch_(visible_epoch) {
    if (txn_marker != 0) {
      pending_ = true;
      store_->BeginMvccPending(txn_marker);
    } else {
      next_ = visible_epoch_->load(std::memory_order_relaxed) + 1;
      store_->BeginMvccOp(next_);
    }
  }
  ~MvccWriteGuard() {
    store_->EndMvccOp();
    if (!pending_) {
      visible_epoch_->store(next_, std::memory_order_release);
    }
  }
  MvccWriteGuard(const MvccWriteGuard&) = delete;
  MvccWriteGuard& operator=(const MvccWriteGuard&) = delete;

 private:
  objmodel::SlicingStore* store_;
  std::atomic<uint64_t>* visible_epoch_;
  bool pending_ = false;
  uint64_t next_ = 0;
};

}  // namespace

Session::Session(std::shared_ptr<Db> db) : db_(std::move(db)) {}

// The aliasing constructor with an empty owner: a non-owning pointer.
Session::Session(Db* db)
    : Session(std::shared_ptr<Db>(std::shared_ptr<Db>(), db)) {}

Session::~Session() { Unbind(); }

void Session::Unbind() {
  if (!bound()) return;
  if (in_transaction()) {
    Status rollback = Rollback();
    (void)rollback;
  }
  TSE_COUNT("db.session.closes");
}

Status Session::RequireSession() const {
  if (!bound()) {
    return Status::FailedPrecondition("no session open; call OpenSession");
  }
  return Status::OK();
}

std::string Session::Where() const {
  return "embedded:" + db_->options().data_dir;
}
std::string Session::view_name() const {
  return bound() ? view_->logical_name() : std::string();
}
ViewId Session::view_id() const { return bound() ? view_->id() : ViewId(); }
int Session::view_version() const { return bound() ? view_->version() : 0; }

// --- Binding ---------------------------------------------------------------

Result<std::unique_ptr<Backend>> Session::Clone() {
  return std::unique_ptr<Backend>(new Session(db_));
}

Status Session::Bind(const view::ViewSchema* view) {
  Unbind();
  view_ = view;
  bound_epoch_ = db_->epoch();
  TSE_COUNT("db.session.opens");
  return Status::OK();
}

Status Session::OpenSession(const std::string& view_name) {
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_ASSIGN_OR_RETURN(const view::ViewSchema* view,
                       db_->CurrentPublished(view_name));
  schema_lock.unlock();  // Bind's rollback takes the latch itself
  return Bind(view);
}

Status Session::OpenSessionAt(ViewId view_id) {
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_ASSIGN_OR_RETURN(const view::ViewSchema* view,
                       db_->views_->GetView(view_id));
  schema_lock.unlock();
  return Bind(view);
}

Status Session::Refresh() {
  TSE_RETURN_IF_ERROR(RequireSession());
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_ASSIGN_OR_RETURN(const view::ViewSchema* current,
                       db_->CurrentPublished(view_->logical_name()));
  view_ = current;
  bound_epoch_ = db_->epoch();
  TSE_COUNT("db.session.refreshes");
  return Status::OK();
}

// --- Reads -----------------------------------------------------------------

Result<ClassId> Session::Resolve(const std::string& display_name) {
  TSE_RETURN_IF_ERROR(RequireSession());
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  return view_->Resolve(display_name);
}

Result<std::unique_ptr<SnapshotHandle>> Session::GetSnapshot() {
  TSE_RETURN_IF_ERROR(RequireSession());
  TSE_ASSIGN_OR_RETURN(std::unique_ptr<Snapshot> snap,
                       db_->OpenSnapshotAt(view_->id(), db_->visible_epoch()));
  return std::unique_ptr<SnapshotHandle>(std::move(snap));
}

Status Session::LockForTxn(Oid oid, bool exclusive) {
  if (!in_transaction()) return Status::OK();
  return exclusive ? txn_->LockExclusive(oid) : txn_->LockShared(oid);
}

Result<objmodel::Value> Session::Get(Oid oid, const std::string& class_name,
                                     const std::string& path) {
  TSE_RETURN_IF_ERROR(RequireSession());
  TSE_LATENCY_US("db.session.read_us");
  TSE_RETURN_IF_ERROR(LockForTxn(oid, /*exclusive=*/false));
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_COUNT("db.session.reads");
  TSE_ASSIGN_OR_RETURN(ClassId cls, view_->Resolve(class_name));
  std::shared_lock<std::shared_mutex> data_lock(db_->data_mu_);
  if (in_transaction()) return txn_->Read(oid, cls, path);
  return db_->engine_->accessor().Read(oid, cls, path);
}

Result<std::vector<Oid>> Session::Extent(const std::string& class_name) {
  TSE_RETURN_IF_ERROR(RequireSession());
  TSE_LATENCY_US("db.session.read_us");
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_COUNT("db.session.reads");
  TSE_ASSIGN_OR_RETURN(ClassId cls, view_->Resolve(class_name));
  std::shared_lock<std::shared_mutex> data_lock(db_->data_mu_);
  return db_->extents_->ExtentVector(cls);
}

Result<std::vector<Oid>> Session::Select(const std::string& class_name,
                                         const std::string& predicate_text) {
  TSE_RETURN_IF_ERROR(RequireSession());
  TSE_LATENCY_US("db.session.read_us");
  TSE_ASSIGN_OR_RETURN(objmodel::MethodExpr::Ptr predicate,
                       objmodel::ParseExpr(predicate_text));
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_COUNT("db.session.reads");
  TSE_ASSIGN_OR_RETURN(ClassId cls, view_->Resolve(class_name));
  std::shared_lock<std::shared_mutex> data_lock(db_->data_mu_);
  return db_->extents_->Select(cls, *predicate);
}

Result<std::string> Session::ViewToString() {
  TSE_RETURN_IF_ERROR(RequireSession());
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  return view_->ToString();
}

Result<std::vector<std::string>> Session::ListClasses() {
  TSE_RETURN_IF_ERROR(RequireSession());
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  std::vector<std::string> names;
  for (ClassId cls : view_->classes()) {
    TSE_ASSIGN_OR_RETURN(std::string name, view_->DisplayName(cls));
    names.push_back(std::move(name));
  }
  return names;
}

// --- Updates ---------------------------------------------------------------

Status Session::PersistAndCommit(Oid oid) {
  if (!db_->objects_db_ || !db_->options_.durable_updates) return Status::OK();
  {
    std::unique_lock<std::shared_mutex> data_lock(db_->data_mu_);
    TSE_RETURN_IF_ERROR(objmodel::PersistenceBridge::SaveObject(
        *db_->store_, oid, db_->objects_db_.get()));
  }
  // Group-commit with no latch held: the fsync batches with every other
  // session currently committing.
  return db_->committer_->CommitDurable();
}

template <typename Op>
Result<Oid> Session::Write(Oid oid, const std::string* class_name, Op op) {
  TSE_RETURN_IF_ERROR(RequireSession());
  TSE_LATENCY_US("db.session.update_us");
  if (oid.valid()) TSE_RETURN_IF_ERROR(LockForTxn(oid, /*exclusive=*/true));
  {
    std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
    TSE_COUNT("db.session.updates");
    ClassId cls;
    if (class_name != nullptr) {
      TSE_ASSIGN_OR_RETURN(cls, view_->Resolve(*class_name));
    }
    std::unique_lock<std::shared_mutex> data_lock(db_->data_mu_);
    MvccWriteGuard mvcc(db_->store_.get(), &db_->visible_epoch_,
                        in_transaction() ? txn_->id().value() : 0);
    if (in_transaction()) {
      TSE_ASSIGN_OR_RETURN(oid, op(*txn_, cls));
      txn_touched_.push_back(oid);
      return oid;
    }
    TSE_ASSIGN_OR_RETURN(oid, op(*db_->engine_, cls));
  }
  db_->MaybeVacuum();
  TSE_RETURN_IF_ERROR(PersistAndCommit(oid));
  return oid;
}

Result<Oid> Session::Create(const std::string& class_name,
                            const std::vector<update::Assignment>& assignments) {
  return Write(Oid(), &class_name, [&](auto& writer, ClassId cls) {
    return writer.Create(cls, assignments);
  });
}

Status Session::Set(Oid oid, const std::string& class_name,
                    const std::string& name, objmodel::Value value) {
  return Write(oid, &class_name,
               [&](auto& writer, ClassId cls) -> Result<Oid> {
                 TSE_RETURN_IF_ERROR(
                     writer.Set(oid, cls, name, std::move(value)));
                 return oid;
               })
      .status();
}

Status Session::SetFromText(Oid oid, const std::string& class_name,
                            const std::string& attr,
                            const std::string& expr_text) {
  TSE_RETURN_IF_ERROR(RequireSession());
  TSE_ASSIGN_OR_RETURN(objmodel::MethodExpr::Ptr expr,
                       objmodel::ParseExpr(expr_text));
  objmodel::Value value;
  {
    std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
    TSE_ASSIGN_OR_RETURN(ClassId cls, view_->Resolve(class_name));
    std::shared_lock<std::shared_mutex> data_lock(db_->data_mu_);
    TSE_ASSIGN_OR_RETURN(
        value,
        expr->Evaluate(oid, db_->engine_->accessor().ResolverFor(oid, cls)));
  }
  return Set(oid, class_name, attr, std::move(value));
}

Status Session::Add(Oid oid, const std::string& class_name) {
  return Write(oid, &class_name,
               [&](auto& writer, ClassId cls) -> Result<Oid> {
                 TSE_RETURN_IF_ERROR(writer.Add(oid, cls));
                 return oid;
               })
      .status();
}

Status Session::Remove(Oid oid, const std::string& class_name) {
  return Write(oid, &class_name,
               [&](auto& writer, ClassId cls) -> Result<Oid> {
                 TSE_RETURN_IF_ERROR(writer.Remove(oid, cls));
                 return oid;
               })
      .status();
}

Status Session::Delete(Oid oid) {
  return Write(oid, nullptr,
               [&](auto& writer, ClassId) -> Result<Oid> {
                 TSE_RETURN_IF_ERROR(writer.Delete(oid));
                 return oid;
               })
      .status();
}

// --- Transactions -----------------------------------------------------------

Status Session::Begin() {
  TSE_RETURN_IF_ERROR(RequireSession());
  if (in_transaction()) {
    return Status::FailedPrecondition("session already has an open transaction");
  }
  txn_ = db_->txns_->Begin();
  txn_touched_.clear();
  TSE_COUNT("db.session.txn_begins");
  return Status::OK();
}

Status Session::Commit() {
  TSE_RETURN_IF_ERROR(RequireSession());
  if (!in_transaction()) {
    return Status::FailedPrecondition("no open transaction");
  }
  {
    // The commit point for snapshot readers: stamp every pending
    // pre-image this transaction captured with the next data epoch and
    // publish it, under the exclusive data latch and *before* the 2PL
    // locks release — new snapshots see all of the transaction or none.
    std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
    std::unique_lock<std::shared_mutex> data_lock(db_->data_mu_);
    uint64_t next = db_->visible_epoch_.load(std::memory_order_relaxed) + 1;
    db_->store_->StampPending(txn_->id().value(), next);
    db_->visible_epoch_.store(next, std::memory_order_release);
  }
  TSE_RETURN_IF_ERROR(txn_->Commit());
  txn_.reset();
  TSE_COUNT("db.session.txn_commits");
  if (db_->objects_db_ && db_->options_.durable_updates &&
      !txn_touched_.empty()) {
    {
      std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
      std::unique_lock<std::shared_mutex> data_lock(db_->data_mu_);
      for (Oid oid : txn_touched_) {
        TSE_RETURN_IF_ERROR(objmodel::PersistenceBridge::SaveObject(
            *db_->store_, oid, db_->objects_db_.get()));
      }
    }
    txn_touched_.clear();
    return db_->committer_->CommitDurable();
  }
  txn_touched_.clear();
  return Status::OK();
}

Status Session::Rollback() {
  TSE_RETURN_IF_ERROR(RequireSession());
  if (!in_transaction()) {
    return Status::FailedPrecondition("no open transaction");
  }
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  Status status;
  {
    std::unique_lock<std::shared_mutex> data_lock(db_->data_mu_);
    // The undo replay mutates with no MVCC context armed (it restores
    // pre-change live state, which every snapshot already reads), then
    // the transaction's now-redundant pending pre-images are dropped.
    status = txn_->Abort();
    db_->store_->DropPending(txn_->id().value());
  }
  txn_.reset();
  txn_touched_.clear();
  TSE_COUNT("db.session.txn_rollbacks");
  return status;
}

// --- Schema evolution --------------------------------------------------------

Result<ViewId> Session::Apply(const evolution::SchemaChange& change) {
  TSE_RETURN_IF_ERROR(RequireSession());
  if (in_transaction()) {
    return Status::FailedPrecondition(
        "cannot change the schema inside an open transaction");
  }
  std::lock_guard<std::mutex> ddl_lock(db_->ddl_mu_);
  TSE_ASSIGN_OR_RETURN(PreparedSchemaChange prepared, PrepareLocked(change));
  // One ddl_mu_ hold covers both phases, so concurrent Apply calls
  // serialize and never see each other's epoch bumps as conflicts.
  return FlipLocked(prepared, /*check_epoch=*/false);
}

Result<PreparedSchemaChange> Session::PrepareLocked(
    const evolution::SchemaChange& change) {
  // Assemble the new version invisibly: the TSEM only ever *adds*
  // classes to the internally-synchronized schema graph, and the new
  // view version is unreachable until published — so in-flight session
  // operations keep running throughout.
  PreparedSchemaChange prepared;
  prepared.expected_epoch = db_->catalog_->head_epoch();
  TSE_ASSIGN_OR_RETURN(prepared.new_view,
                       db_->tse_->ApplyChange(view_->id(), change));
  TSE_ASSIGN_OR_RETURN(prepared.schema,
                       db_->views_->GetView(prepared.new_view));
  return prepared;
}

Result<ViewId> Session::FlipLocked(const PreparedSchemaChange& prepared,
                                   bool check_epoch) {
  if (check_epoch &&
      db_->catalog_->head_epoch() != prepared.expected_epoch) {
    return Status::FailedPrecondition(
        "another schema change published since the prepare");
  }
  db_->catalog_->Publish(prepared.new_view,
                         prepared.schema);  // the atomic visibility flip
  view_ = prepared.schema;
  bound_epoch_ = db_->catalog_->head_epoch();
  TSE_COUNT("db.epoch.bumps");
  TSE_COUNT("db.session.schema_changes");
  TSE_RETURN_IF_ERROR(db_->PersistCatalog());
  return prepared.new_view;
}

Result<PreparedSchemaChange> Session::Prepare(
    const evolution::SchemaChange& change) {
  TSE_RETURN_IF_ERROR(RequireSession());
  if (in_transaction()) {
    return Status::FailedPrecondition(
        "cannot change the schema inside an open transaction");
  }
  std::lock_guard<std::mutex> ddl_lock(db_->ddl_mu_);
  TSE_COUNT("db.session.schema_prepares");
  return PrepareLocked(change);
}

Result<PreparedSchemaChange> Session::Prepare(const std::string& change_text) {
  TSE_ASSIGN_OR_RETURN(evolution::SchemaChange change,
                       evolution::ParseChange(change_text));
  return Prepare(change);
}

Result<ViewId> Session::CommitPrepared(const PreparedSchemaChange& prepared) {
  TSE_RETURN_IF_ERROR(RequireSession());
  if (prepared.schema == nullptr) {
    return Status::InvalidArgument("prepared change has no schema");
  }
  std::lock_guard<std::mutex> ddl_lock(db_->ddl_mu_);
  return FlipLocked(prepared, /*check_epoch=*/true);
}

Status Session::AbortPrepared(const PreparedSchemaChange& prepared) {
  // Nothing to undo: the assembled classes and the unpublished view
  // version are unreachable, the same residue a crash between the two
  // phases leaves behind. The token is simply forgotten.
  (void)prepared;
  TSE_COUNT("db.session.schema_aborts");
  return Status::OK();
}

Result<ViewId> Session::Apply(const std::string& change_text) {
  TSE_ASSIGN_OR_RETURN(evolution::SchemaChange change,
                       evolution::ParseChange(change_text));
  return Apply(change);
}

Result<ViewId> Session::ApplyScript(
    const std::vector<evolution::SchemaChange>& script) {
  TSE_RETURN_IF_ERROR(RequireSession());
  ViewId last = view_->id();
  for (const evolution::SchemaChange& change : script) {
    TSE_ASSIGN_OR_RETURN(last, Apply(change));
  }
  return last;
}

// --- Global DDL, observability and diagnostics ------------------------------

Result<ClassId> Session::AddBaseClass(
    const std::string& name, const std::vector<ClassId>& supers,
    const std::vector<schema::PropertySpec>& props) {
  return db_->AddBaseClass(name, supers, props);
}

Result<ViewId> Session::CreateView(
    const std::string& logical_name,
    const std::vector<view::ViewClassSpec>& classes) {
  return db_->CreateView(logical_name, classes);
}

Result<std::string> Session::Stats(bool as_json) {
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Instance().Snapshot();
  return as_json ? snapshot.ToJson() : snapshot.ToText();
}

Status Session::ResetStats() {
  obs::MetricsRegistry::Instance().ResetValues();
  return Status::OK();
}

Result<std::string> Session::History() {
  std::ostringstream out;
  for (const std::string& name : db_->views().ViewNames()) {
    out << name << ": " << db_->views().History(name).size()
        << " version(s)\n";
  }
  return out.str();
}

Result<std::string> Session::Explain(const std::string& class_name) {
  TSE_ASSIGN_OR_RETURN(ClassId cls, Resolve(class_name));
  TSE_ASSIGN_OR_RETURN(algebra::SelectPlan plan,
                       db_->extents().ExplainSelect(cls));
  std::ostringstream out;
  out << class_name << ": arm=" << algebra::PlanArmName(plan.arm)
      << ", est_selectivity=" << plan.est_selectivity
      << ", source_size=" << plan.source_size << "\n  " << plan.reason
      << "\n  epoch: visible=" << db_->visible_epoch() << "\n";
  return out.str();
}

}  // namespace tse
