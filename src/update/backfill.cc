#include "update/backfill.h"

#include <algorithm>

#include "algebra/extent_eval.h"
#include "obs/metrics.h"

namespace tse::update {

bool BackfillManager::IsCapacityAugmenting(ClassId cls) const {
  auto node_or = schema_->GetClass(cls);
  if (!node_or.ok()) return false;
  const schema::ClassNode* node = node_or.value();
  if (node->derivation.op != schema::DerivationOp::kRefine) return false;
  for (PropertyDefId def_id : node->derivation.added) {
    auto def = schema_->GetProperty(def_id);
    if (def.ok() && def.value()->definer == cls &&
        def.value()->kind == schema::PropertyKind::kStoredAttribute) {
      return true;
    }
  }
  return false;
}

size_t BackfillManager::RegisterTaskLocked(
    ClassId cls, const algebra::ExtentEvaluator* extents) {
  if (tasks_.count(cls.value())) return 0;
  auto extent = extents->Extent(cls);
  if (!extent.ok()) return 0;
  Task task;
  task.definer = cls;
  for (Oid oid : *extent.value()) {
    if (!store_->HasSlice(oid, cls)) task.pending.insert(oid);
  }
  if (task.pending.empty()) return 0;
  size_t count = task.pending.size();
  tasks_.emplace(cls.value(), std::move(task));
  pending_count_.fetch_add(count, std::memory_order_relaxed);
  TSE_COUNT("db.schema_change.lazy.tasks");
  return count;
}

size_t BackfillManager::RegisterNewClasses(
    uint64_t class_lo, uint64_t class_hi,
    const algebra::ExtentEvaluator* extents) {
  size_t tasks = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t raw = class_lo; raw < class_hi; ++raw) {
    ClassId cls(raw);
    if (!IsCapacityAugmenting(cls)) continue;
    if (RegisterTaskLocked(cls, extents) > 0) ++tasks;
  }
  return tasks;
}

size_t BackfillManager::RecoverPending(
    const algebra::ExtentEvaluator* extents) {
  size_t recovered = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (ClassId cls : schema_->AllClasses()) {
    if (!IsCapacityAugmenting(cls)) continue;
    recovered += RegisterTaskLocked(cls, extents);
  }
  return recovered;
}

bool BackfillManager::MaybePending(Oid oid) const {
  if (!pending_any()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [_, task] : tasks_) {
    if (task.pending.count(oid)) return true;
  }
  return false;
}

size_t BackfillManager::MaterializeObject(Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t created = 0;
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    Task& task = it->second;
    if (task.pending.erase(oid)) {
      // AddSlice is idempotent and journal-silent, so materialization
      // never perturbs extent caches or the mutation count.
      (void)store_->AddSlice(oid, task.definer);
      pending_count_.fetch_sub(1, std::memory_order_release);
      ++created;
    }
    it = task.pending.empty() ? tasks_.erase(it) : std::next(it);
  }
  if (created > 0) TSE_COUNT_N("db.schema_change.lazy.first_touch", created);
  return created;
}

size_t BackfillManager::MaterializeMembers(const std::vector<Oid>& oids) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t created = 0;
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    Task& task = it->second;
    // Intersect the smaller set into the larger.
    for (auto pending_it = task.pending.begin();
         pending_it != task.pending.end();) {
      if (std::binary_search(oids.begin(), oids.end(), *pending_it)) {
        (void)store_->AddSlice(*pending_it, task.definer);
        pending_it = task.pending.erase(pending_it);
        pending_count_.fetch_sub(1, std::memory_order_release);
        ++created;
      } else {
        ++pending_it;
      }
    }
    it = task.pending.empty() ? tasks_.erase(it) : std::next(it);
  }
  if (created > 0) TSE_COUNT_N("db.schema_change.lazy.first_touch", created);
  return created;
}

size_t BackfillManager::RunBudget(size_t budget, std::vector<Oid>* touched) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t created = 0;
  for (auto it = tasks_.begin(); it != tasks_.end() && created < budget;) {
    Task& task = it->second;
    while (!task.pending.empty() && created < budget) {
      Oid oid = *task.pending.begin();
      task.pending.erase(task.pending.begin());
      (void)store_->AddSlice(oid, task.definer);
      pending_count_.fetch_sub(1, std::memory_order_release);
      if (touched) touched->push_back(oid);
      ++created;
    }
    it = task.pending.empty() ? tasks_.erase(it) : std::next(it);
  }
  if (created > 0) TSE_COUNT_N("db.backfill.migrated", created);
  return created;
}

size_t BackfillManager::task_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

}  // namespace tse::update
