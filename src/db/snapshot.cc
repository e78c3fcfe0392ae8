#include "db/snapshot.h"

#include <shared_mutex>
#include <utility>

#include "db/db.h"
#include "objmodel/expr_parser.h"
#include "obs/metrics.h"

namespace tse {

Snapshot::Snapshot(Db* db, const view::ViewSchema* view, uint64_t epoch)
    : db_(db), view_(view), epoch_(epoch) {}

Snapshot::~Snapshot() { db_->UnregisterSnapshot(epoch_); }

std::string Snapshot::view_name() const {
  return view_->logical_name();
}
ViewId Snapshot::view_id() const { return view_->id(); }
int Snapshot::view_version() const { return view_->version(); }

Result<ClassId> Snapshot::Resolve(const std::string& display_name) {
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  return view_->Resolve(display_name);
}

Result<objmodel::Value> Snapshot::Get(Oid oid, const std::string& class_name,
                                      const std::string& path) {
  TSE_LATENCY_US("db.session.read_us");
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_COUNT("db.snapshot.reads");
  TSE_ASSIGN_OR_RETURN(ClassId cls, view_->Resolve(class_name));
  std::shared_lock<std::shared_mutex> data_lock(db_->data_mu_);
  return db_->engine_->accessor().Read(oid, cls, path, epoch_);
}

Result<std::vector<Oid>> Snapshot::Extent(const std::string& class_name) {
  TSE_LATENCY_US("db.session.read_us");
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_COUNT("db.snapshot.reads");
  TSE_ASSIGN_OR_RETURN(ClassId cls, view_->Resolve(class_name));
  std::shared_lock<std::shared_mutex> data_lock(db_->data_mu_);
  TSE_ASSIGN_OR_RETURN(std::set<Oid> extent,
                       db_->extents_->ExtentAt(cls, epoch_));
  return std::vector<Oid>(extent.begin(), extent.end());
}

Result<std::vector<Oid>> Snapshot::Select(const std::string& class_name,
                                          const std::string& predicate_text) {
  TSE_LATENCY_US("db.session.read_us");
  TSE_ASSIGN_OR_RETURN(objmodel::MethodExpr::Ptr predicate,
                       objmodel::ParseExpr(predicate_text));
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mu_);
  TSE_COUNT("db.snapshot.reads");
  TSE_ASSIGN_OR_RETURN(ClassId cls, view_->Resolve(class_name));
  std::shared_lock<std::shared_mutex> data_lock(db_->data_mu_);
  TSE_ASSIGN_OR_RETURN(std::set<Oid> extent,
                       db_->extents_->ExtentAt(cls, epoch_));
  std::vector<Oid> out;
  TSE_RETURN_IF_ERROR(db_->engine_->accessor().Filter(*predicate, cls, extent,
                                                      epoch_, &out));
  return out;
}

}  // namespace tse
