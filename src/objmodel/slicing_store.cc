#include "objmodel/slicing_store.h"

#include <algorithm>

#include "common/str_util.h"
#include "obs/metrics.h"

namespace tse::objmodel {

namespace {

/// Chain read rule: the entry with the smallest epoch > `epoch` is the
/// pre-image that was current at `epoch` (earliest-appended wins ties —
/// later captures at the same epoch describe states that never became
/// visible). Returns nullptr when the live state applies. Scans instead
/// of assuming sortedness: pending entries stamped at commit can land
/// out of append order relative to interleaved auto-commit captures.
template <typename Entry>
const Entry* VersionAt(const std::deque<Entry>& chain, uint64_t epoch) {
  const Entry* best = nullptr;
  for (const Entry& e : chain) {
    if (e.epoch > epoch && (best == nullptr || e.epoch < best->epoch)) {
      best = &e;
    }
  }
  return best;
}

}  // namespace

void SlicingStore::Record(ChangeRecord::Kind kind, Oid oid, ClassId cls,
                          PropertyDefId prop) {
  ++mutations_;
  ChangeRecord rec;
  rec.seq = journal_next_seq_++;
  rec.kind = kind;
  rec.oid = oid;
  rec.cls = cls;
  rec.prop = prop;
  journal_.push_back(rec);
  if (journal_.size() > kJournalCapacity) journal_.pop_front();
}

bool SlicingStore::ChangesSince(uint64_t cursor,
                                std::vector<ChangeRecord>* out) const {
  if (cursor >= journal_head()) return true;  // caught up (or ahead)
  if (journal_.empty() || journal_.front().seq > cursor + 1) {
    return false;  // records past the cursor were trimmed
  }
  // Sequence numbers are gap-free, so the first record past the cursor
  // sits at a computed offset: the cost follows the records returned,
  // not the journal's length.
  out->insert(out->end(),
              journal_.begin() + (cursor + 1 - journal_.front().seq),
              journal_.end());
  return true;
}

Oid SlicingStore::CreateObject() {
  Oid oid = oid_alloc_.Allocate();
  ConceptualObject obj;
  obj.oid = oid;
  objects_.emplace(oid.value(), std::move(obj));
  CaptureExistence(oid, false);
  Record(ChangeRecord::Kind::kObjectCreated, oid);
  return oid;
}

Status SlicingStore::CreateObjectWithOid(Oid oid) {
  if (!oid.valid()) return Status::InvalidArgument("invalid oid");
  if (objects_.count(oid.value())) {
    return Status::AlreadyExists(StrCat("object ", oid.ToString()));
  }
  ConceptualObject obj;
  obj.oid = oid;
  objects_.emplace(oid.value(), std::move(obj));
  oid_alloc_.BumpPast(oid);
  CaptureExistence(oid, false);
  Record(ChangeRecord::Kind::kObjectCreated, oid);
  return Status::OK();
}

Result<SlicingStore::ConceptualObject*> SlicingStore::Find(Oid oid) {
  auto it = objects_.find(oid.value());
  if (it == objects_.end()) {
    return Status::NotFound(StrCat("object ", oid.ToString()));
  }
  return &it->second;
}

Result<const SlicingStore::ConceptualObject*> SlicingStore::Find(
    Oid oid) const {
  auto it = objects_.find(oid.value());
  if (it == objects_.end()) {
    return Status::NotFound(StrCat("object ", oid.ToString()));
  }
  return &it->second;
}

Status SlicingStore::DestroyObject(Oid oid) {
  TSE_ASSIGN_OR_RETURN(ConceptualObject * obj, Find(oid));
  if (capture_active()) {
    // Pre-image the whole object before any state is dropped: every
    // stored value (unset properties read Null both live and versioned,
    // so only stored ones need entries), every direct membership, and
    // finally existence itself.
    for (const auto& [cls, index] : obj->slices) {
      for (const auto& [def, val] : arenas_.at(cls)[index].values) {
        CaptureValue(oid, ClassId(cls), PropertyDefId(def), val);
      }
    }
    for (ClassId cls : obj->direct_classes) {
      CaptureMembership(oid, cls, true);
    }
    CaptureExistence(oid, true);
  }
  // Detach all slices (copy keys first: ArenaRemove mutates obj->slices
  // indirectly through swap fix-ups of *other* objects only, but we
  // iterate safely anyway).
  std::vector<std::pair<uint64_t, size_t>> slices(obj->slices.begin(),
                                                  obj->slices.end());
  for (const auto& [cls, index] : slices) {
    ArenaRemove(cls, index);
  }
  for (ClassId cls : obj->direct_classes) {
    extents_[cls.value()].erase(oid);
    // Journal the membership losses individually so extent caches can
    // delta-remove the object from each affected class.
    Record(ChangeRecord::Kind::kMembershipRemoved, oid, cls);
  }
  objects_.erase(oid.value());
  Record(ChangeRecord::Kind::kObjectDestroyed, oid);
  return Status::OK();
}

Status SlicingStore::AddSlice(Oid oid, ClassId cls) {
  TSE_ASSIGN_OR_RETURN(ConceptualObject * obj, Find(oid));
  if (obj->slices.count(cls.value())) return Status::OK();  // idempotent
  std::vector<Slice>& arena = arenas_[cls.value()];
  Slice slice;
  slice.impl_oid = oid_alloc_.Allocate();
  slice.conceptual = oid;
  arena.push_back(std::move(slice));
  obj->slices[cls.value()] = arena.size() - 1;
  return Status::OK();
}

Status SlicingStore::AddSliceWithImplOid(Oid oid, ClassId cls, Oid impl_oid) {
  TSE_ASSIGN_OR_RETURN(ConceptualObject * obj, Find(oid));
  if (obj->slices.count(cls.value())) {
    return Status::AlreadyExists(
        StrCat("object ", oid.ToString(), " already has a slice of class ",
               cls.ToString()));
  }
  std::vector<Slice>& arena = arenas_[cls.value()];
  Slice slice;
  slice.impl_oid = impl_oid;
  slice.conceptual = oid;
  arena.push_back(std::move(slice));
  obj->slices[cls.value()] = arena.size() - 1;
  oid_alloc_.BumpPast(impl_oid);
  return Status::OK();
}

Result<Oid> SlicingStore::SliceImplOid(Oid oid, ClassId cls) const {
  TSE_ASSIGN_OR_RETURN(const ConceptualObject* obj, Find(oid));
  auto it = obj->slices.find(cls.value());
  if (it == obj->slices.end()) {
    return Status::NotFound(StrCat("object ", oid.ToString(),
                                   " has no slice of class ",
                                   cls.ToString()));
  }
  return arenas_.at(cls.value())[it->second].impl_oid;
}

Result<std::unordered_map<uint64_t, Value>> SlicingStore::SliceValues(
    Oid oid, ClassId cls) const {
  TSE_ASSIGN_OR_RETURN(const ConceptualObject* obj, Find(oid));
  auto it = obj->slices.find(cls.value());
  if (it == obj->slices.end()) {
    return Status::NotFound(StrCat("object ", oid.ToString(),
                                   " has no slice of class ",
                                   cls.ToString()));
  }
  return arenas_.at(cls.value())[it->second].values;
}

void SlicingStore::ArenaRemove(uint64_t cls, size_t index) {
  std::vector<Slice>& arena = arenas_[cls];
  size_t last = arena.size() - 1;
  if (index != last) {
    arena[index] = std::move(arena[last]);
    // Fix the displaced slice's owner index.
    auto owner = objects_.find(arena[index].conceptual.value());
    if (owner != objects_.end()) {
      owner->second.slices[cls] = index;
    }
  }
  arena.pop_back();
}

Status SlicingStore::RemoveSlice(Oid oid, ClassId cls) {
  TSE_ASSIGN_OR_RETURN(ConceptualObject * obj, Find(oid));
  auto it = obj->slices.find(cls.value());
  if (it == obj->slices.end()) {
    return Status::NotFound(
        StrCat("object ", oid.ToString(), " has no slice of class ",
               cls.ToString()));
  }
  size_t index = it->second;
  // Discarding the slice drops its stored values: journal each one as a
  // value change (it now reads Null) so select predicates re-check, and
  // capture the pre-image so snapshots keep reading the dropped value.
  for (const auto& [def, val] : arenas_.at(cls.value())[index].values) {
    CaptureValue(oid, cls, PropertyDefId(def), val);
    Record(ChangeRecord::Kind::kValueChanged, oid, cls, PropertyDefId(def));
  }
  obj->slices.erase(it);
  ArenaRemove(cls.value(), index);
  return Status::OK();
}

bool SlicingStore::HasSlice(Oid oid, ClassId cls) const {
  auto it = objects_.find(oid.value());
  return it != objects_.end() && it->second.slices.count(cls.value()) != 0;
}

std::vector<ClassId> SlicingStore::SliceClasses(Oid oid) const {
  std::vector<ClassId> out;
  auto it = objects_.find(oid.value());
  if (it == objects_.end()) return out;
  for (const auto& [cls, _] : it->second.slices) {
    out.push_back(ClassId(cls));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status SlicingStore::SetValue(Oid oid, ClassId cls, PropertyDefId def,
                              Value value) {
  TSE_RETURN_IF_ERROR(AddSlice(oid, cls));  // lazy restructuring
  ConceptualObject* obj = Find(oid).value();
  size_t index = obj->slices.at(cls.value());
  auto& values = arenas_[cls.value()][index].values;
  auto it = values.find(def.value());
  if (it != values.end() && it->second == value) {
    return Status::OK();  // no-op write: state unchanged, caches live on
  }
  CaptureValue(oid, cls, def, it != values.end() ? it->second : Value::Null());
  values[def.value()] = std::move(value);
  Record(ChangeRecord::Kind::kValueChanged, oid, cls, def);
  return Status::OK();
}

Result<Value> SlicingStore::GetValue(Oid oid, ClassId cls,
                                     PropertyDefId def) const {
  TSE_ASSIGN_OR_RETURN(const ConceptualObject* obj, Find(oid));
  auto it = obj->slices.find(cls.value());
  if (it == obj->slices.end()) return Value::Null();
  const Slice& slice = arenas_.at(cls.value())[it->second];
  auto vit = slice.values.find(def.value());
  if (vit == slice.values.end()) return Value::Null();
  return vit->second;
}

Status SlicingStore::AddMembership(Oid oid, ClassId cls) {
  TSE_ASSIGN_OR_RETURN(ConceptualObject * obj, Find(oid));
  if (!obj->direct_classes.insert(cls).second) {
    return Status::OK();  // already a member: no state change
  }
  CaptureMembership(oid, cls, false);
  extents_[cls.value()].insert(oid);
  Record(ChangeRecord::Kind::kMembershipAdded, oid, cls);
  return Status::OK();
}

Status SlicingStore::RemoveMembership(Oid oid, ClassId cls) {
  TSE_ASSIGN_OR_RETURN(ConceptualObject * obj, Find(oid));
  if (!obj->direct_classes.erase(cls)) {
    return Status::NotFound(StrCat("object ", oid.ToString(),
                                   " not a direct member of class ",
                                   cls.ToString()));
  }
  CaptureMembership(oid, cls, true);
  extents_[cls.value()].erase(oid);
  Record(ChangeRecord::Kind::kMembershipRemoved, oid, cls);
  return Status::OK();
}

bool SlicingStore::HasMembership(Oid oid, ClassId cls) const {
  auto it = objects_.find(oid.value());
  return it != objects_.end() && it->second.direct_classes.count(cls) != 0;
}

std::vector<ClassId> SlicingStore::DirectClasses(Oid oid) const {
  std::vector<ClassId> out;
  auto it = objects_.find(oid.value());
  if (it == objects_.end()) return out;
  out.assign(it->second.direct_classes.begin(),
             it->second.direct_classes.end());
  return out;
}

const std::set<Oid>& SlicingStore::DirectExtent(ClassId cls) const {
  auto it = extents_.find(cls.value());
  if (it == extents_.end()) return empty_extent_;
  return it->second;
}

void SlicingStore::ForEachSlice(
    ClassId cls,
    const std::function<void(Oid, const std::unordered_map<uint64_t, Value>&)>&
        fn) const {
  auto it = arenas_.find(cls.value());
  if (it == arenas_.end()) return;
  for (const Slice& slice : it->second) {
    fn(slice.conceptual, slice.values);
  }
}

void SlicingStore::ForEachObject(const std::function<void(Oid)>& fn) const {
  for (const auto& [raw, _] : objects_) {
    fn(Oid(raw));
  }
}

void SlicingStore::BeginMvccOp(uint64_t epoch) {
  mvcc_ctx_.active = true;
  mvcc_ctx_.epoch = epoch;
  mvcc_ctx_.marker = 0;
}

void SlicingStore::BeginMvccPending(uint64_t marker) {
  mvcc_ctx_.active = true;
  mvcc_ctx_.epoch = kPendingEpoch;
  mvcc_ctx_.marker = marker;
}

void SlicingStore::EndMvccOp() { mvcc_ctx_ = MvccContext{}; }

void SlicingStore::CaptureValue(Oid oid, ClassId cls, PropertyDefId def,
                                const Value& old_value) {
  if (!mvcc_ctx_.active) return;
  auto& chain = value_chains_[{oid.value(), cls.value(), def.value()}];
  chain.push_back(ValueVersion{mvcc_ctx_.epoch, mvcc_ctx_.marker, old_value});
  ++version_entries_;
  if (mvcc_ctx_.marker != 0) {
    pending_refs_[mvcc_ctx_.marker].push_back(
        {PendingRef::kValue, oid.value(), cls.value(), def.value()});
  }
#ifndef TSE_OBS_DISABLE
  static obs::Histogram* hist = obs::MetricsRegistry::Instance().GetHistogram(
      "storage.version_chain_len");
  hist->Record(static_cast<double>(chain.size()));
#endif
}

void SlicingStore::CaptureMembership(Oid oid, ClassId cls, bool was_member) {
  if (!mvcc_ctx_.active) return;
  member_chains_[{oid.value(), cls.value()}].push_back(
      MemberVersion{mvcc_ctx_.epoch, mvcc_ctx_.marker, was_member});
  member_chain_by_class_[cls.value()].insert(oid);
  ++version_entries_;
  if (mvcc_ctx_.marker != 0) {
    pending_refs_[mvcc_ctx_.marker].push_back(
        {PendingRef::kMember, oid.value(), cls.value(), 0});
  }
}

void SlicingStore::CaptureExistence(Oid oid, bool existed) {
  if (!mvcc_ctx_.active) return;
  exist_chains_[oid.value()].push_back(
      ExistVersion{mvcc_ctx_.epoch, mvcc_ctx_.marker, existed});
  ++version_entries_;
  if (mvcc_ctx_.marker != 0) {
    pending_refs_[mvcc_ctx_.marker].push_back(
        {PendingRef::kExist, oid.value(), 0, 0});
  }
}

void SlicingStore::StampPending(uint64_t marker, uint64_t epoch) {
  auto it = pending_refs_.find(marker);
  if (it == pending_refs_.end()) return;
  for (const PendingRef& ref : it->second) {
    switch (ref.kind) {
      case PendingRef::kValue: {
        auto cit = value_chains_.find({ref.oid, ref.cls, ref.def});
        if (cit == value_chains_.end()) break;
        for (ValueVersion& v : cit->second) {
          if (v.marker == marker && v.epoch == kPendingEpoch) v.epoch = epoch;
        }
        break;
      }
      case PendingRef::kMember: {
        auto cit = member_chains_.find({ref.oid, ref.cls});
        if (cit == member_chains_.end()) break;
        for (MemberVersion& v : cit->second) {
          if (v.marker == marker && v.epoch == kPendingEpoch) v.epoch = epoch;
        }
        break;
      }
      case PendingRef::kExist: {
        auto cit = exist_chains_.find(ref.oid);
        if (cit == exist_chains_.end()) break;
        for (ExistVersion& v : cit->second) {
          if (v.marker == marker && v.epoch == kPendingEpoch) v.epoch = epoch;
        }
        break;
      }
    }
  }
  pending_refs_.erase(it);
}

void SlicingStore::DropPending(uint64_t marker) {
  auto it = pending_refs_.find(marker);
  if (it == pending_refs_.end()) return;
  auto prune = [&](auto& chain) {
    size_t before = chain.size();
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [&](const auto& v) {
                                 return v.marker == marker &&
                                        v.epoch == kPendingEpoch;
                               }),
                chain.end());
    version_entries_ -= before - chain.size();
  };
  for (const PendingRef& ref : it->second) {
    switch (ref.kind) {
      case PendingRef::kValue: {
        auto cit = value_chains_.find({ref.oid, ref.cls, ref.def});
        if (cit == value_chains_.end()) break;
        prune(cit->second);
        if (cit->second.empty()) value_chains_.erase(cit);
        break;
      }
      case PendingRef::kMember: {
        auto cit = member_chains_.find({ref.oid, ref.cls});
        if (cit == member_chains_.end()) break;
        prune(cit->second);
        if (cit->second.empty()) {
          auto bit = member_chain_by_class_.find(ref.cls);
          if (bit != member_chain_by_class_.end()) {
            bit->second.erase(Oid(ref.oid));
            if (bit->second.empty()) member_chain_by_class_.erase(bit);
          }
          member_chains_.erase(cit);
        }
        break;
      }
      case PendingRef::kExist: {
        auto cit = exist_chains_.find(ref.oid);
        if (cit == exist_chains_.end()) break;
        prune(cit->second);
        if (cit->second.empty()) exist_chains_.erase(cit);
        break;
      }
    }
  }
  pending_refs_.erase(it);
}

size_t SlicingStore::VacuumVersions(uint64_t horizon) {
  // Every live snapshot reads at an epoch >= horizon, and the chain read
  // rule only ever selects entries with epoch > snapshot-epoch, so an
  // entry stamped <= horizon can never be selected again. Chains grow by
  // append and epochs are near-monotone, so dead entries cluster at the
  // front; popping until the front survives is conservative (out-of-order
  // stamping can strand a dead entry behind a live one — it is reclaimed
  // by a later pass).
  size_t reclaimed = 0;
  auto sweep = [&](auto& chains, auto on_empty) {
    for (auto it = chains.begin(); it != chains.end();) {
      auto& chain = it->second;
      while (!chain.empty() && chain.front().epoch <= horizon) {
        chain.pop_front();
        ++reclaimed;
      }
      if (chain.empty()) {
        on_empty(it->first);
        it = chains.erase(it);
      } else {
        ++it;
      }
    }
  };
  sweep(value_chains_, [](const ValueKey&) {});
  sweep(member_chains_, [&](const MemberKey& key) {
    auto bit = member_chain_by_class_.find(key.second);
    if (bit != member_chain_by_class_.end()) {
      bit->second.erase(Oid(key.first));
      if (bit->second.empty()) member_chain_by_class_.erase(bit);
    }
  });
  sweep(exist_chains_, [](uint64_t) {});
  version_entries_ -= reclaimed;
  return reclaimed;
}

size_t SlicingStore::version_entry_count() const { return version_entries_; }

bool SlicingStore::ExistsAt(Oid oid, uint64_t epoch) const {
  auto it = exist_chains_.find(oid.value());
  if (it != exist_chains_.end()) {
    if (const ExistVersion* v = VersionAt(it->second, epoch)) {
      return v->existed;
    }
  }
  return Exists(oid);
}

Result<Value> SlicingStore::GetValueAt(Oid oid, ClassId cls, PropertyDefId def,
                                       uint64_t epoch) const {
  if (!ExistsAt(oid, epoch)) {
    return Status::NotFound(StrCat("object ", oid.ToString()));
  }
  auto it = value_chains_.find({oid.value(), cls.value(), def.value()});
  if (it != value_chains_.end()) {
    if (const ValueVersion* v = VersionAt(it->second, epoch)) {
      return v->old_value;
    }
  }
  // No chain entry applies: the live state was already current at
  // `epoch`. The object may have been destroyed since (existence chain
  // said it was alive at `epoch`); any value it held then was captured,
  // so reaching here means the property was unset — Null, like GetValue.
  if (!Exists(oid)) return Value::Null();
  return GetValue(oid, cls, def);
}

bool SlicingStore::HasMembershipAt(Oid oid, ClassId cls,
                                   uint64_t epoch) const {
  if (!ExistsAt(oid, epoch)) return false;
  auto it = member_chains_.find({oid.value(), cls.value()});
  if (it != member_chains_.end()) {
    if (const MemberVersion* v = VersionAt(it->second, epoch)) {
      return v->was_member;
    }
  }
  return HasMembership(oid, cls);
}

std::set<Oid> SlicingStore::DirectExtentAt(ClassId cls, uint64_t epoch) const {
  std::set<Oid> out = DirectExtent(cls);
  auto it = member_chain_by_class_.find(cls.value());
  if (it == member_chain_by_class_.end()) return out;
  for (Oid oid : it->second) {
    if (HasMembershipAt(oid, cls, epoch)) {
      out.insert(oid);
    } else {
      out.erase(oid);
    }
  }
  return out;
}

SlicingStats SlicingStore::Stats() const {
  SlicingStats stats;
  stats.conceptual_objects = objects_.size();
  for (const auto& [_, arena] : arenas_) {
    stats.implementation_objects += arena.size();
  }
  stats.total_oids = stats.conceptual_objects + stats.implementation_objects;
  constexpr size_t kOidSize = sizeof(uint64_t);
  constexpr size_t kPtrSize = sizeof(void*);
  // Per Table 1: (1 + N_impl) * sizeof(oid) + N_impl * 2 * sizeof(ptr),
  // summed over all conceptual objects.
  stats.managerial_bytes = stats.conceptual_objects * kOidSize +
                           stats.implementation_objects * kOidSize +
                           stats.implementation_objects * 2 * kPtrSize;
  return stats;
}

}  // namespace tse::objmodel
