#include "index/index_manager.h"

#include "common/str_util.h"
#include "obs/metrics.h"

namespace tse::index {

using objmodel::ChangeRecord;
using objmodel::Value;

Status IndexManager::CreateIndex(PropertyDefId def, IndexKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  if (indexes_.count(def.value()) != 0) {
    return Status::AlreadyExists(
        StrCat("property ", def.ToString(), " is already indexed"));
  }
  TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* prop,
                       schema_->GetProperty(def));
  if (!prop->is_attribute()) {
    return Status::InvalidArgument(
        StrCat("property ", prop->name, " is a method, not an attribute"));
  }
  // Catch existing indexes up first so the shared cursor and the fresh
  // store scan describe the same store state.
  SyncLocked();
  auto [it, _] = indexes_.emplace(
      def.value(), AttrIndex(def, prop->definer, kind));
  RebuildLocked(&it->second);
  TSE_COUNT("algebra.index.creates");
  return Status::OK();
}

Status IndexManager::DropIndex(PropertyDefId def) {
  std::lock_guard<std::mutex> lock(mu_);
  if (indexes_.erase(def.value()) == 0) {
    return Status::NotFound(
        StrCat("property ", def.ToString(), " has no index"));
  }
  TSE_COUNT("algebra.index.drops");
  return Status::OK();
}

bool IndexManager::HasIndex(PropertyDefId def) const {
  std::lock_guard<std::mutex> lock(mu_);
  return indexes_.count(def.value()) != 0;
}

std::vector<IndexSpec> IndexManager::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<IndexSpec> out;
  out.reserve(indexes_.size());
  for (const auto& [_, ix] : indexes_) {
    out.push_back(IndexSpec{ix.def(), ix.kind()});
  }
  return out;
}

std::optional<IndexProbe> IndexManager::Probe(PropertyDefId def) const {
  std::lock_guard<std::mutex> lock(mu_);
  // An unindexed attribute has no stats to catch up: planning a select
  // on it leaves the journal to the next indexed probe.
  auto it = indexes_.find(def.value());
  if (it == indexes_.end()) return std::nullopt;
  SyncLocked();
  IndexProbe probe = it->second.Probe();
  probe.store_objects = store_->object_count();
  return probe;
}

bool IndexManager::LookupEq(PropertyDefId def, const Value& key,
                            std::vector<Oid>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  auto it = indexes_.find(def.value());
  if (it == indexes_.end()) return false;
  TSE_COUNT("algebra.index.lookups");
  it->second.CollectEq(key, out);
  return true;
}

bool IndexManager::LookupRange(PropertyDefId def, objmodel::ExprOp op,
                               const Value& key,
                               std::vector<Oid>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  auto it = indexes_.find(def.value());
  if (it == indexes_.end()) return false;
  if (!it->second.CollectRange(op, key, out)) return false;
  TSE_COUNT("algebra.index.lookups");
  return true;
}

size_t IndexManager::index_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return indexes_.size();
}

size_t IndexManager::total_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  size_t total = 0;
  for (const auto& [_, ix] : indexes_) total += ix.entries();
  return total;
}

void IndexManager::SyncLocked() const {
  store_->DrainJournal(
      &journal_cursor_, !indexes_.empty(),
      [&] {
        // Fell behind the bounded journal: same contract as the extent
        // cache — rebuild from a store scan instead of applying deltas.
        TSE_COUNT("algebra.index.journal_gaps");
        for (auto& [_, ix] : indexes_) {
          RebuildLocked(&ix);
          TSE_COUNT("algebra.index.rebuilds");
        }
      },
      [&](const std::vector<ChangeRecord>& records) {
        for (const ChangeRecord& rec : records) ApplyLocked(rec);
      });
}

void IndexManager::ApplyLocked(const ChangeRecord& rec) const {
  switch (rec.kind) {
    case ChangeRecord::Kind::kValueChanged: {
      auto it = indexes_.find(rec.prop.value());
      if (it == indexes_.end()) break;
      AttrIndex& ix = it->second;
      // Re-read the live value: a later record in this batch may have
      // destroyed the object, in which case it reads as gone (erase;
      // the kObjectDestroyed record will confirm).
      auto value = store_->GetValue(rec.oid, ix.definer(), ix.def());
      if (!value.ok()) {
        ix.Erase(rec.oid);
      } else {
        ix.Set(rec.oid, value.value());  // Null erases
      }
      TSE_COUNT("algebra.index.maintain_records");
      break;
    }
    case ChangeRecord::Kind::kObjectDestroyed:
      for (auto& [_, ix] : indexes_) ix.Erase(rec.oid);
      TSE_COUNT("algebra.index.maintain_records");
      break;
    case ChangeRecord::Kind::kObjectCreated:
    case ChangeRecord::Kind::kMembershipAdded:
    case ChangeRecord::Kind::kMembershipRemoved:
      // Membership moves don't change attribute values; fresh objects
      // have no values until a kValueChanged record arrives.
      break;
  }
}

void IndexManager::RebuildLocked(AttrIndex* ix) const {
  ix->Clear();
  const uint64_t def_raw = ix->def().value();
  store_->ForEachSlice(
      ix->definer(),
      [&](Oid conceptual, const std::unordered_map<uint64_t, Value>& values) {
        auto it = values.find(def_raw);
        if (it != values.end()) ix->Set(conceptual, it->second);
      });
}

}  // namespace tse::index
