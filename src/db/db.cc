#include "db/db.h"

#include <filesystem>
#include <utility>

#include "db/session.h"
#include "db/snapshot.h"
#include "obs/metrics.h"
#include "objmodel/persistence.h"
#include "view/catalog_io.h"

namespace tse {

Result<std::unique_ptr<Db>> Db::Open(DbOptions options) {
  std::unique_ptr<Db> db(new Db());
  TSE_RETURN_IF_ERROR(db->Bootstrap(std::move(options)));
  return db;
}

Status Db::Bootstrap(DbOptions options) {
  options_ = std::move(options);
  if (options_.shard_count == 0 || options_.shard_id >= options_.shard_count) {
    return Status::InvalidArgument("shard_id must be < shard_count");
  }
  schema_ = std::make_unique<schema::SchemaGraph>();
  store_ = std::make_unique<objmodel::SlicingStore>();
  if (options_.shard_count > 1) {
    // Lattice allocation: every oid this shard mints satisfies
    // oid % shard_count == shard_id (BumpPast on restore realigns too),
    // so cluster clients route point ops without a directory.
    store_->oid_allocator().ConfigureStride(options_.shard_id,
                                            options_.shard_count);
  }
  views_ = std::make_unique<view::ViewManager>(schema_.get());
  tse_ = std::make_unique<evolution::TseManager>(schema_.get(), store_.get(),
                                                 views_.get());
  algebra_ = std::make_unique<algebra::AlgebraProcessor>(schema_.get());
  classifier_ = std::make_unique<classifier::Classifier>(schema_.get());
  extents_ =
      std::make_unique<algebra::ExtentEvaluator>(schema_.get(), store_.get());
  indexes_ =
      std::make_unique<index::IndexManager>(schema_.get(), store_.get());
  extents_->set_index_manager(indexes_.get());
  engine_ = std::make_unique<update::UpdateEngine>(
      schema_.get(), store_.get(), extents_.get(), options_.closure_policy);
  locks_ = std::make_unique<storage::LockManager>(options_.lock_timeout);
  txns_ =
      std::make_unique<update::TransactionManager>(engine_.get(), locks_.get());
  catalog_ = std::make_unique<db::VersionedCatalog>();

  Status restored = Status::OK();
  if (!options_.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.data_dir, ec);
    if (ec) {
      return Status::IOError("cannot create data dir " + options_.data_dir +
                             ": " + ec.message());
    }
    storage::RecordStoreOptions store_opts;
    TSE_ASSIGN_OR_RETURN(
        catalog_db_,
        storage::RecordStore::Open(options_.data_dir + "/catalog", store_opts));
    TSE_ASSIGN_OR_RETURN(
        objects_db_,
        storage::RecordStore::Open(options_.data_dir + "/objects", store_opts));
    committer_ = std::make_unique<db::GroupCommitter>(objects_db_.get());

    if (catalog_db_->size() > 0) {
      std::vector<index::IndexSpec> index_specs;
      TSE_RETURN_IF_ERROR(view::CatalogIO::Load(
          catalog_db_.get(), schema_.get(), views_.get(), &index_specs));
      TSE_RETURN_IF_ERROR(objmodel::PersistenceBridge::LoadAll(
          objects_db_.get(), store_.get()));
      // Index contents are not persisted: recreate each declared index
      // with a fresh build over the restored store (rebuild-on-replay
      // crash recovery — same consistency story as a journal gap).
      for (const index::IndexSpec& spec : index_specs) {
        TSE_RETURN_IF_ERROR(indexes_->CreateIndex(spec.def, spec.kind));
      }
    }
  }

  if (options_.vacuum_every != 0) {
    heartbeat_ = std::thread([this] { HeartbeatLoop(); });
  }
  return restored;
}

Db::~Db() { StopHeartbeat(); }

void Db::StopHeartbeat() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
}

void Db::HeartbeatLoop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (!bg_cv_.wait_for(lock, std::chrono::milliseconds(100),
                          [this] { return bg_stop_; })) {
    // Trim version chains behind the oldest live snapshot.
    lock.unlock();
    (void)VacuumVersions();
    lock.lock();
  }
}

Status Db::PersistCatalog() {
  if (!catalog_db_) return Status::OK();
  const std::vector<index::IndexSpec> specs = indexes_->List();
  return view::CatalogIO::Save(*schema_, *views_, catalog_db_.get(), &specs);
}

Result<ClassId> Db::AddBaseClass(
    const std::string& name, const std::vector<ClassId>& supers,
    const std::vector<schema::PropertySpec>& props) {
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  TSE_ASSIGN_OR_RETURN(ClassId cls, schema_->AddBaseClass(name, supers, props));
  catalog_->BumpEpoch();
  TSE_COUNT("db.epoch.bumps");
  TSE_RETURN_IF_ERROR(PersistCatalog());
  return cls;
}

Result<ClassId> Db::DefineVirtualClass(const std::string& name,
                                       const algebra::Query::Ptr& query) {
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  TSE_ASSIGN_OR_RETURN(
      ClassId cls,
      algebra_->DefineVC(name, query, [&](ClassId created) -> Result<ClassId> {
        TSE_ASSIGN_OR_RETURN(classifier::ClassifyResult classified,
                             classifier_->Classify(created));
        return classified.cls;
      }));
  catalog_->BumpEpoch();
  TSE_COUNT("db.epoch.bumps");
  TSE_RETURN_IF_ERROR(PersistCatalog());
  return cls;
}

Result<ViewId> Db::CreateView(const std::string& logical_name,
                              const std::vector<view::ViewClassSpec>& classes) {
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  TSE_ASSIGN_OR_RETURN(ViewId id, tse_->CreateView(logical_name, classes));
  TSE_ASSIGN_OR_RETURN(const view::ViewSchema* vs, views_->GetView(id));
  catalog_->Publish(id, vs);
  TSE_COUNT("db.epoch.bumps");
  TSE_RETURN_IF_ERROR(PersistCatalog());
  return id;
}

Result<ViewId> Db::MergeViews(ViewId a, ViewId b,
                              const std::string& merged_logical_name) {
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  TSE_ASSIGN_OR_RETURN(ViewId id,
                       tse_->MergeVersions(a, b, merged_logical_name));
  TSE_ASSIGN_OR_RETURN(const view::ViewSchema* vs, views_->GetView(id));
  catalog_->Publish(id, vs);
  TSE_COUNT("db.epoch.bumps");
  TSE_RETURN_IF_ERROR(PersistCatalog());
  return id;
}

Result<PropertyDefId> Db::CreateIndex(const std::string& class_name,
                                      const std::string& attr_name,
                                      index::IndexKind kind) {
  TSE_ASSIGN_OR_RETURN(ClassId cls, schema_->FindClass(class_name));
  TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                       schema_->ResolveProperty(cls, attr_name));
  return CreateIndexOn(def->id, kind);
}

Result<PropertyDefId> Db::CreateIndexOn(PropertyDefId def,
                                        index::IndexKind kind) {
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  {
    // The build scans the store: hold the data latch shared so no
    // session mutates underneath (readers keep running).
    std::shared_lock<std::shared_mutex> data_lock(data_mu_);
    TSE_RETURN_IF_ERROR(indexes_->CreateIndex(def, kind));
  }
  TSE_COUNT("db.index.creates");
  TSE_RETURN_IF_ERROR(PersistCatalog());
  return def;
}

Status Db::DropIndex(PropertyDefId def) {
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  TSE_RETURN_IF_ERROR(indexes_->DropIndex(def));
  TSE_COUNT("db.index.drops");
  return PersistCatalog();
}

Result<std::unique_ptr<Snapshot>> Db::OpenSnapshot(
    const std::string& view_name) {
  std::shared_lock<std::shared_mutex> lock(schema_mu_);
  TSE_ASSIGN_OR_RETURN(const view::ViewSchema* vs,
                       CurrentPublished(view_name));
  return OpenSnapshotAt(vs->id(), visible_epoch());
}

Result<std::unique_ptr<Snapshot>> Db::OpenSnapshotAt(ViewId view_id,
                                                     uint64_t epoch) {
  const view::ViewSchema* vs = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(schema_mu_);
    TSE_ASSIGN_OR_RETURN(vs, views_->GetView(view_id));
  }
  if (epoch > visible_epoch()) {
    return Status::InvalidArgument("snapshot epoch is in the future");
  }
  {
    // Register under snap_mu_ before the floor check concludes: the
    // vacuum computes its horizon under the same mutex, so an epoch
    // that passes the check here can no longer be reclaimed.
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (epoch < vacuum_floor_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("snapshot epoch has been vacuumed");
    }
    live_snapshots_.insert(epoch);
  }
  TSE_COUNT("db.snapshot.open");
  return std::unique_ptr<Snapshot>(new Snapshot(this, vs, epoch));
}

void Db::UnregisterSnapshot(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(snap_mu_);
  auto it = live_snapshots_.find(epoch);
  if (it != live_snapshots_.end()) live_snapshots_.erase(it);
}

uint64_t Db::SnapshotHorizon() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (live_snapshots_.empty()) return visible_epoch();
  // A snapshot at E still reads pre-images stamped > E, so only entries
  // stamped <= E are reclaimable: horizon = min live epoch.
  return *live_snapshots_.begin();
}

size_t Db::VacuumLocked() {
  uint64_t horizon;
  {
    // One critical section for horizon + floor: a concurrent
    // OpenSnapshotAt either registers first (lowering the horizon) or
    // sees the raised floor and is rejected — no epoch can slip between
    // the two and get reclaimed out from under a fresh snapshot.
    std::lock_guard<std::mutex> lock(snap_mu_);
    horizon = live_snapshots_.empty() ? visible_epoch()
                                      : *live_snapshots_.begin();
    if (horizon > vacuum_floor_.load(std::memory_order_relaxed)) {
      vacuum_floor_.store(horizon, std::memory_order_release);
    }
  }
  size_t reclaimed = store_->VacuumVersions(horizon);
  if (reclaimed > 0) TSE_COUNT_N("db.snapshot.vacuumed_versions", reclaimed);
  return reclaimed;
}

size_t Db::VacuumVersions() {
  std::unique_lock<std::shared_mutex> data_lock(data_mu_);
  return VacuumLocked();
}

void Db::MaybeVacuum() {
  if (options_.vacuum_every == 0) return;
  if (visible_epoch() % options_.vacuum_every != 0) return;
  (void)VacuumVersions();
}

Result<const view::ViewSchema*> Db::CurrentPublished(
    const std::string& view_name) const {
  const auto log = catalog_->Log();
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->schema != nullptr && it->schema->logical_name() == view_name) {
      return it->schema;
    }
  }
  // Not in the publication log (a catalog restored from disk publishes
  // no entries): the ViewManager's latest version is the published one.
  return views_->Current(view_name);
}

Result<std::unique_ptr<Session>> Db::OpenSession(
    const std::string& view_name) {
  auto session = std::make_unique<Session>(this);
  TSE_RETURN_IF_ERROR(session->OpenSession(view_name));
  return session;
}

Result<std::unique_ptr<Session>> Db::OpenSessionAt(ViewId view_id) {
  auto session = std::make_unique<Session>(this);
  TSE_RETURN_IF_ERROR(session->OpenSessionAt(view_id));
  return session;
}

Status Db::Save() {
  if (!durable()) return Status::OK();
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  std::unique_lock<std::shared_mutex> schema_lock(schema_mu_);
  std::unique_lock<std::shared_mutex> data_lock(data_mu_);
  TSE_RETURN_IF_ERROR(PersistCatalog());
  return objmodel::PersistenceBridge::SaveAll(*store_, objects_db_.get());
}

Status Db::Checkpoint() {
  if (!durable()) return Status::OK();
  TSE_RETURN_IF_ERROR(Save());
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  std::unique_lock<std::shared_mutex> schema_lock(schema_mu_);
  std::unique_lock<std::shared_mutex> data_lock(data_mu_);
  TSE_RETURN_IF_ERROR(catalog_db_->Checkpoint());
  return objects_db_->Checkpoint();
}

}  // namespace tse
