#include "layout/packed_record_cache.h"

#include <algorithm>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tse::layout {

using objmodel::ChangeRecord;
using objmodel::Value;

PackedRecordCache::PackedRecordCache(const schema::SchemaGraph* schema,
                                     objmodel::SlicingStore* store,
                                     AdvisorOptions advisor_options)
    : schema_(schema),
      store_(store),
      advisor_(advisor_options),
      synced_generation_(schema->generation()) {}

Status PackedRecordCache::Pin(ClassId cls) {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  auto it = packed_.find(cls.value());
  if (it != packed_.end()) {
    it->second.pinned = true;  // upgrades an auto promotion
  } else {
    TSE_RETURN_IF_ERROR(PromoteLocked(cls, /*pinned=*/true));
  }
  pins_.insert(cls.value());
  TSE_COUNT("layout.pins");
  return Status::OK();
}

Status PackedRecordCache::Unpin(ClassId cls) {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  if (pins_.erase(cls.value()) == 0) {
    return Status::NotFound(
        StrCat("class ", cls.ToString(), " has no pinned layout"));
  }
  DemoteLocked(cls);
  TSE_COUNT("layout.unpins");
  return Status::OK();
}

std::vector<ClassId> PackedRecordCache::Pinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClassId> out;
  out.reserve(pins_.size());
  for (uint64_t raw : pins_) out.push_back(ClassId(raw));
  return out;
}

bool PackedRecordCache::IsPromoted(ClassId cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  return packed_.count(cls.value()) != 0;
}

size_t PackedRecordCache::promoted_count() const {
  return promoted_count_.load(std::memory_order_relaxed);
}

bool PackedRecordCache::TryGetPacked(Oid oid, const schema::PropertyDef& def,
                                     Value* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  // Feed the advisor first: a tick here may promote def.definer, in
  // which case this very probe already hits the fresh layout.
  NoteLocked(def.definer, /*scan=*/false);
  auto dm = def_map_.find(def.id.value());
  if (dm != def_map_.end()) {
    for (uint64_t cls_raw : dm->second) {
      auto pit = packed_.find(cls_raw);
      if (pit == packed_.end()) continue;
      PackedClass& pc = pit->second;
      auto row = pc.row_of.find(oid.value());
      if (row == pc.row_of.end()) continue;
      auto col = pc.col_of.find(def.id.value());
      if (col == pc.col_of.end()) continue;
      *out = pc.columns[col->second].cells[row->second];
      ++pc.hits;
      TSE_COUNT("layout.packed.hits");
      return true;
    }
  }
  TSE_COUNT("layout.packed.misses");
  return false;
}

bool PackedRecordCache::WithColumn(
    ClassId cls, PropertyDefId def,
    const std::function<void(const std::unordered_map<uint64_t, size_t>&,
                             const std::vector<Value>&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  NoteLocked(cls, /*scan=*/true);
  auto pit = packed_.find(cls.value());
  if (pit == packed_.end() || !pit->second.scan_complete) {
    TSE_COUNT("layout.packed.scan_misses");
    return false;
  }
  PackedClass& pc = pit->second;
  auto col = pc.col_of.find(def.value());
  if (col == pc.col_of.end()) {
    TSE_COUNT("layout.packed.scan_misses");
    return false;
  }
  TSE_COUNT("layout.packed.scan_hits");
  fn(pc.row_of, pc.columns[col->second].cells);
  return true;
}

Result<PackedRecordCache::ClassStats> PackedRecordCache::Explain(
    ClassId cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  if (!schema_->HasClass(cls)) {
    return Status::NotFound(StrCat("no class ", cls.ToString()));
  }
  ClassStats stats;
  stats.cls = cls;
  auto wit = window_.find(cls.value());
  if (wit != window_.end()) {
    stats.window_point_reads = wit->second.point_reads;
    stats.window_scans = wit->second.scans;
  }
  auto pit = packed_.find(cls.value());
  if (pit == packed_.end()) {
    stats.state = "cold";
    return stats;
  }
  const PackedClass& pc = pit->second;
  stats.promoted = true;
  stats.pinned = pc.pinned;
  stats.scan_complete = pc.scan_complete;
  stats.rows = pc.rows.size();
  stats.columns = pc.columns.size();
  stats.hits = pc.hits;
  stats.state = pc.pinned ? "pinned" : "auto";
  return stats;
}

std::vector<PackedRecordCache::ClassStats> PackedRecordCache::ExplainAll()
    const {
  std::vector<ClassStats> out;
  std::vector<ClassId> promoted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SyncLocked();
    for (const auto& [raw, _] : packed_) promoted.push_back(ClassId(raw));
  }
  for (ClassId cls : promoted) {
    auto stats = Explain(cls);
    if (stats.ok()) out.push_back(std::move(stats).value());
  }
  return out;
}

void PackedRecordCache::SyncLocked() const {
  CheckSchemaLocked();
  store_->DrainJournal(
      &journal_cursor_, !packed_.empty(),
      [&] {
        // Fell behind the bounded journal: rebuild from a store scan, the
        // same contract the extent cache and the index manager follow.
        TSE_COUNT("layout.journal_gaps");
        for (auto it = packed_.begin(); it != packed_.end();) {
          if (BuildLocked(&it->second).ok()) {
            TSE_COUNT("layout.rebuilds");
            ++it;
          } else {
            pins_.erase(it->first);
            it = packed_.erase(it);
            TSE_COUNT("layout.demotions");
          }
        }
        RebuildDefMapLocked();
        promoted_count_.store(packed_.size(), std::memory_order_relaxed);
      },
      [&](const std::vector<ChangeRecord>& records) {
        for (const ChangeRecord& rec : records) ApplyLocked(rec);
      });
}

void PackedRecordCache::ApplyLocked(const ChangeRecord& rec) const {
  switch (rec.kind) {
    case ChangeRecord::Kind::kValueChanged: {
      auto dm = def_map_.find(rec.prop.value());
      if (dm == def_map_.end()) break;
      for (uint64_t cls_raw : dm->second) {
        auto pit = packed_.find(cls_raw);
        if (pit == packed_.end()) continue;
        PackedClass& pc = pit->second;
        auto row = pc.row_of.find(rec.oid.value());
        if (row == pc.row_of.end()) continue;
        Column& column = pc.columns[pc.col_of.at(rec.prop.value())];
        // Re-read the live value: a later record in this batch may
        // have destroyed the object (its kObjectDestroyed record will
        // remove the row; Null is consistent until then).
        auto value = store_->GetValue(rec.oid, column.definer, column.def);
        column.cells[row->second] =
            value.ok() ? std::move(value).value() : Value();
        TSE_COUNT("layout.maintain_records");
      }
      break;
    }
    case ChangeRecord::Kind::kMembershipAdded:
      for (auto& [_, pc] : packed_) {
        if (pc.row_of.count(rec.oid.value()) != 0) continue;
        if (!schema_->ExtentSubsumedBy(rec.cls, pc.cls)) continue;
        AddRowLocked(&pc, rec.oid);
        TSE_COUNT("layout.maintain_records");
      }
      break;
    case ChangeRecord::Kind::kMembershipRemoved:
      for (auto& [_, pc] : packed_) {
        if (pc.row_of.count(rec.oid.value()) == 0) continue;
        if (!schema_->ExtentSubsumedBy(rec.cls, pc.cls)) continue;
        // The oid may remain a row via another subsumed membership.
        if (MemberLocked(pc, rec.oid)) continue;
        RemoveRowLocked(&pc, rec.oid);
        TSE_COUNT("layout.maintain_records");
      }
      break;
    case ChangeRecord::Kind::kObjectDestroyed:
      for (auto& [_, pc] : packed_) {
        if (pc.row_of.count(rec.oid.value()) == 0) continue;
        RemoveRowLocked(&pc, rec.oid);
        TSE_COUNT("layout.maintain_records");
      }
      break;
    case ChangeRecord::Kind::kObjectCreated:
      // Fresh objects carry no memberships or values yet.
      break;
  }
}

void PackedRecordCache::CheckSchemaLocked() const {
  const uint64_t generation = schema_->generation();
  if (synced_once_ && generation == synced_generation_) return;
  const uint64_t floor = schema_->invalidate_floor();
  bool dropped = false;
  for (auto it = packed_.begin(); it != packed_.end();) {
    PackedClass& pc = it->second;
    bool keep = schema_->HasClass(pc.cls);
    if (keep &&
        (schema_->class_version(pc.cls) != pc.class_version ||
         floor != pc.floor)) {
      // The class was redefined, its extent-defining surroundings
      // changed, or name resolution shifted: migrate the layout to the
      // published version's effective type.
      keep = BuildLocked(&pc).ok();
      if (keep) TSE_COUNT("layout.migrations");
    }
    if (keep) {
      ++it;
    } else {
      pins_.erase(it->first);
      it = packed_.erase(it);
      TSE_COUNT("layout.demotions");
      dropped = true;
    }
  }
  RebuildDefMapLocked();
  if (dropped) {
    promoted_count_.store(packed_.size(), std::memory_order_relaxed);
  }
  synced_generation_ = generation;
  synced_once_ = true;
}

Status PackedRecordCache::BuildLocked(PackedClass* pc) const {
  TSE_TRACE_SPAN("layout.packed.rebuild");
  TSE_ASSIGN_OR_RETURN(const schema::ClassNode* node,
                       schema_->GetClass(pc->cls));
  // Only base-class rows provably cover the extent the evaluator
  // derives (union of subsumed direct extents == the base extent);
  // virtual classes may under-cover and serve point reads only.
  pc->scan_complete = node->is_base();
  TSE_ASSIGN_OR_RETURN(schema::TypeSet type, schema_->EffectiveType(pc->cls));
  pc->columns.clear();
  pc->col_of.clear();
  for (const auto& [name, defs] : type.bindings()) {
    for (PropertyDefId def : defs) {
      if (pc->col_of.count(def.value()) != 0) continue;
      auto prop = schema_->GetProperty(def);
      if (!prop.ok() || !prop.value()->is_attribute()) continue;
      pc->col_of.emplace(def.value(), pc->columns.size());
      pc->columns.push_back(Column{def, prop.value()->definer, {}});
    }
  }
  if (pc->columns.empty()) {
    return Status::InvalidArgument(
        StrCat("class ", node->name, " packs no stored attribute"));
  }
  pc->rows.clear();
  pc->row_of.clear();
  for (ClassId d : schema_->AllClasses()) {
    if (!schema_->ExtentSubsumedBy(d, pc->cls)) continue;
    for (Oid oid : store_->DirectExtent(d)) {
      if (pc->row_of.count(oid.value()) != 0) continue;
      pc->row_of.emplace(oid.value(), pc->rows.size());
      pc->rows.push_back(oid);
    }
  }
  for (Column& column : pc->columns) {
    column.cells.clear();
    column.cells.reserve(pc->rows.size());
    for (Oid oid : pc->rows) {
      auto value = store_->GetValue(oid, column.definer, column.def);
      column.cells.push_back(value.ok() ? std::move(value).value() : Value());
    }
  }
  pc->class_version = schema_->class_version(pc->cls);
  pc->floor = schema_->invalidate_floor();
  return Status::OK();
}

void PackedRecordCache::AddRowLocked(PackedClass* pc, Oid oid) const {
  pc->row_of.emplace(oid.value(), pc->rows.size());
  pc->rows.push_back(oid);
  for (Column& column : pc->columns) {
    auto value = store_->GetValue(oid, column.definer, column.def);
    column.cells.push_back(value.ok() ? std::move(value).value() : Value());
  }
}

void PackedRecordCache::RemoveRowLocked(PackedClass* pc, Oid oid) const {
  auto it = pc->row_of.find(oid.value());
  if (it == pc->row_of.end()) return;
  const size_t slot = it->second;
  const size_t last = pc->rows.size() - 1;
  if (slot != last) {
    pc->rows[slot] = pc->rows[last];
    pc->row_of[pc->rows[slot].value()] = slot;
    for (Column& column : pc->columns) {
      column.cells[slot] = std::move(column.cells[last]);
    }
  }
  pc->rows.pop_back();
  for (Column& column : pc->columns) column.cells.pop_back();
  pc->row_of.erase(it);
}

bool PackedRecordCache::MemberLocked(const PackedClass& pc, Oid oid) const {
  for (ClassId direct : store_->DirectClasses(oid)) {
    if (schema_->ExtentSubsumedBy(direct, pc.cls)) return true;
  }
  return false;
}

Status PackedRecordCache::PromoteLocked(ClassId cls, bool pinned) const {
  auto it = packed_.find(cls.value());
  if (it != packed_.end()) {
    if (pinned) it->second.pinned = true;
    return Status::OK();
  }
  if (!schema_->HasClass(cls)) {
    return Status::NotFound(StrCat("no class ", cls.ToString()));
  }
  PackedClass pc;
  pc.cls = cls;
  pc.pinned = pinned;
  TSE_RETURN_IF_ERROR(BuildLocked(&pc));
  packed_.emplace(cls.value(), std::move(pc));
  RebuildDefMapLocked();
  promoted_count_.store(packed_.size(), std::memory_order_relaxed);
  TSE_COUNT("layout.promotions");
  return Status::OK();
}

void PackedRecordCache::DemoteLocked(ClassId cls) const {
  if (packed_.erase(cls.value()) == 0) return;
  RebuildDefMapLocked();
  promoted_count_.store(packed_.size(), std::memory_order_relaxed);
  TSE_COUNT("layout.demotions");
}

void PackedRecordCache::RebuildDefMapLocked() const {
  def_map_.clear();
  for (const auto& [cls_raw, pc] : packed_) {
    for (const Column& column : pc.columns) {
      def_map_[column.def.value()].push_back(cls_raw);
    }
  }
}

void PackedRecordCache::NoteLocked(ClassId cls, bool scan) const {
  if (!cls.valid()) return;
  Window& w = window_[cls.value()];
  if (scan) {
    ++w.scans;
  } else {
    ++w.point_reads;
  }
  if (++window_events_ >= advisor_.options().decision_interval) {
    TickLocked();
  }
}

void PackedRecordCache::TickLocked() const {
  std::vector<ClassActivity> activity;
  activity.reserve(window_.size() + packed_.size());
  auto fill = [&](uint64_t raw, const Window* w) {
    ClassActivity a;
    a.cls = ClassId(raw);
    if (w != nullptr) {
      a.point_reads = w->point_reads;
      a.scans = w->scans;
    }
    auto pit = packed_.find(raw);
    a.promoted = pit != packed_.end();
    a.pinned = a.promoted ? pit->second.pinned : pins_.count(raw) != 0;
    a.eligible = EligibleLocked(a.cls);
    activity.push_back(a);
  };
  for (const auto& [raw, w] : window_) fill(raw, &w);
  for (const auto& [raw, _] : packed_) {
    if (window_.count(raw) == 0) fill(raw, nullptr);
  }
  const LayoutAdvisor::Decision decision = advisor_.Decide(activity);
  for (ClassId cls : decision.demote) {
    if (pins_.count(cls.value()) != 0) continue;  // defensive
    DemoteLocked(cls);
  }
  for (ClassId cls : decision.promote) {
    // Best-effort: a class that became ineligible mid-window just
    // stays unpromoted.
    (void)PromoteLocked(cls, /*pinned=*/false);
  }
  window_.clear();
  window_events_ = 0;
}

bool PackedRecordCache::EligibleLocked(ClassId cls) const {
  auto node = schema_->GetClass(cls);
  if (!node.ok() || !node.value()->is_base()) return false;
  auto type = schema_->EffectiveType(cls);
  if (!type.ok()) return false;
  for (const auto& [name, defs] : type.value().bindings()) {
    for (PropertyDefId def : defs) {
      auto prop = schema_->GetProperty(def);
      if (prop.ok() && prop.value()->is_attribute()) return true;
    }
  }
  return false;
}

}  // namespace tse::layout
