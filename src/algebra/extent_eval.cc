#include "algebra/extent_eval.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <unordered_map>
#include <vector>

#include "objmodel/method.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tse::algebra {

using objmodel::ChangeRecord;
using objmodel::Value;
using schema::ClassNode;
using schema::DerivationOp;

bool ExtentEvaluator::IsSyncedLocked() const {
  if (!synced_once_) return false;
  if (!incremental_) {
    return cached_mutations_ == store_->mutation_count() &&
           synced_generation_ == schema_->generation();
  }
  return synced_generation_ == schema_->generation() &&
         journal_cursor_ == store_->journal_head();
}

void ExtentEvaluator::Sync() const {
  if (!incremental_) {
    // Baseline (pre-optimization) behaviour: the whole cache keys on
    // (mutation count, schema generation).
    if (!synced_once_ || cached_mutations_ != store_->mutation_count() ||
        synced_generation_ != schema_->generation()) {
      DropAll();
      cached_mutations_ = store_->mutation_count();
      synced_generation_ = schema_->generation();
      journal_cursor_ = store_->journal_head();
      synced_once_ = true;
    }
    return;
  }

  if (!synced_once_ || synced_generation_ != schema_->generation()) {
    // Read the generation before extending: DDL may add classes while
    // the extension runs, and stamping the newer generation afterwards
    // could leave those classes out of deps_ until some later change
    // (their cached extents would stop receiving deltas). An older
    // stamp just makes the next Sync extend again.
    const uint64_t generation = schema_->generation();
    deps_.Extend(*schema_);
    synced_generation_ = generation;
    synced_once_ = true;
    // Per-entry invalidation: an entry survives schema growth unless its
    // class version moved (redefinition, a new base class attached
    // beneath it, or removal: a removed class reads version 0) or name
    // resolution may have shifted under select predicates (invalidate
    // floor).
    const uint64_t floor = schema_->invalidate_floor();
    for (auto it = cache_.begin(); it != cache_.end();) {
      const bool keep =
          it->second.floor == floor &&
          it->second.class_version == schema_->class_version(it->first);
      if (keep) {
        ++it;
      } else {
        stats_.entries_invalidated.fetch_add(1, std::memory_order_relaxed);
        TSE_COUNT("algebra.extent.entries_invalidated");
        it = cache_.erase(it);
      }
    }
  }

  store_->DrainJournal(
      &journal_cursor_, !cache_.empty(),
      [&] {
        // Journal trimmed past our cursor: we missed deltas, start over.
        TSE_COUNT("algebra.extent.journal_gaps");
        DropAll();
      },
      [&](const std::vector<ChangeRecord>& records) {
        if (records.size() >= kDeltaAbandonThreshold) {
          // Cost cutover: a batch this large costs more to replay record
          // by record than re-deriving the touched extents lazily does.
          TSE_COUNT("algebra.plan.delta_abandoned");
          DropAll();
          return;
        }
        TSE_COUNT("algebra.plan.delta_maintain");
        for (const ChangeRecord& rec : records) {
          if (!ApplyRecord(rec).ok()) {
            // Delta application hit an evaluation error (e.g. a predicate
            // error on the changed object). Fall back to dropping the
            // cache; the lazy recompute will surface the error to
            // whoever asks.
            stats_.delta_eval_errors.fetch_add(1, std::memory_order_relaxed);
            TSE_COUNT("algebra.extent.delta_eval_errors");
            DropAll();
            return;
          }
          stats_.delta_records.fetch_add(1, std::memory_order_relaxed);
          TSE_COUNT("algebra.extent.delta_records");
        }
      });
}

Status ExtentEvaluator::ApplyRecord(const ChangeRecord& rec) const {
  std::deque<WorkItem> work;
  switch (rec.kind) {
    case ChangeRecord::Kind::kObjectCreated:
      // Extent effects arrive as the accompanying membership records.
      return Status::OK();
    case ChangeRecord::Kind::kObjectDestroyed:
      // The object's stored values vanish without per-value records, so
      // predicates reading *other* objects' state can silently flip.
      for (ClassId v : deps_.VolatileSelects()) DropEntryAndDependents(v);
      return Status::OK();
    case ChangeRecord::Kind::kMembershipAdded:
    case ChangeRecord::Kind::kMembershipRemoved:
      for (ClassId up : deps_.BaseUps(rec.cls)) {
        work.emplace_back(up, rec.oid);
      }
      return Propagate(&work);
    case ChangeRecord::Kind::kValueChanged: {
      for (ClassId v : deps_.VolatileSelects()) DropEntryAndDependents(v);
      TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                           schema_->GetProperty(rec.prop));
      // Name-based routing over-approximates under name collisions
      // across classes, which is safe: the recompute just confirms the
      // membership unchanged.
      for (ClassId sel : deps_.SelectsOnName(def->name)) {
        work.emplace_back(sel, rec.oid);
      }
      return Propagate(&work);
    }
  }
  return Status::OK();
}

Status ExtentEvaluator::Propagate(std::deque<WorkItem>* work) const {
  // Derivation sources must exist before their dependents, so the
  // dependency graph is a DAG: every node's membership stabilizes after
  // finitely many toggles (induction over topological depth), hence the
  // worklist drains.
  std::set<WorkItem> woken_uncached;
  while (!work->empty()) {
    const WorkItem item = work->front();
    work->pop_front();
    const ClassId cls = item.first;
    const Oid oid = item.second;
    auto it = cache_.find(cls);
    if (it == cache_.end()) {
      // Not materialized: no old value to diff against, so wake the
      // dependents conservatively (once per class/oid pair).
      if (!woken_uncached.insert(item).second) continue;
      for (ClassId dep : deps_.Dependents(cls)) work->emplace_back(dep, oid);
      continue;
    }
    TSE_ASSIGN_OR_RETURN(bool now, Member(cls, oid));
    const bool was = it->second.extent->count(oid) != 0;
    if (now == was) continue;  // prune: nothing downstream can change
    std::set<Oid>* extent = MutableSet(&it->second);
    if (now) {
      extent->insert(oid);
    } else {
      extent->erase(oid);
    }
    stats_.delta_updates.fetch_add(1, std::memory_order_relaxed);
    TSE_COUNT("algebra.extent.delta_updates");
    for (ClassId dep : deps_.Dependents(cls)) work->emplace_back(dep, oid);
  }
  return Status::OK();
}

Result<bool> ExtentEvaluator::Member(ClassId cls, Oid oid) const {
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, schema_->GetClass(cls));
  const schema::Derivation& d = node->derivation;
  auto in_source = [&](size_t i) -> Result<bool> {
    auto hit = cache_.find(d.sources[i]);
    if (hit != cache_.end()) return hit->second.extent->count(oid) != 0;
    return Member(d.sources[i], oid);
  };
  switch (d.op) {
    case DerivationOp::kBase:
      for (ClassId direct : store_->DirectClasses(oid)) {
        if (schema_->ExtentSubsumedBy(direct, cls)) return true;
      }
      return false;
    case DerivationOp::kSelect: {
      TSE_ASSIGN_OR_RETURN(bool in_a, in_source(0));
      if (!in_a) return false;
      return accessor_.Satisfies(*d.predicate, oid, d.sources[0]);
    }
    case DerivationOp::kHide:
    case DerivationOp::kRefine:
      return in_source(0);
    case DerivationOp::kUnion: {
      TSE_ASSIGN_OR_RETURN(bool in_a, in_source(0));
      if (in_a) return true;
      return in_source(1);
    }
    case DerivationOp::kIntersect: {
      TSE_ASSIGN_OR_RETURN(bool in_a, in_source(0));
      if (!in_a) return false;
      return in_source(1);
    }
    case DerivationOp::kDifference: {
      TSE_ASSIGN_OR_RETURN(bool in_a, in_source(0));
      if (!in_a) return false;
      TSE_ASSIGN_OR_RETURN(bool in_b, in_source(1));
      return !in_b;
    }
  }
  return Status::Internal("unknown derivation op");
}

Status ExtentEvaluator::EvalSelect(ClassId source_cls,
                                   const objmodel::MethodExpr& pred,
                                   const std::set<Oid>& source,
                                   std::set<Oid>* out) const {
  TSE_TRACE_SPAN("algebra.plan.select");
  auto classic = [&] {
    TSE_COUNT("algebra.plan.full_scan");
    return accessor_.Filter(pred, source_cls, source, std::nullopt, out);
  };
  SelectPlanner planner(schema_, indexes_);
  const SelectPlan plan =
      planner.Plan(source_cls, &pred, source.size(), planner_mode_);
  switch (plan.arm) {
    case PlanArm::kIndex: {
      std::vector<Oid> candidates;
      const bool answered =
          plan.pred->op == objmodel::ExprOp::kEq
              ? indexes_->LookupEq(plan.def->id, plan.pred->literal,
                                   &candidates)
              : indexes_->LookupRange(plan.def->id, plan.pred->op,
                                      plan.pred->literal, &candidates);
      if (!answered) {
        // Index vanished between planning and probing (concurrent
        // drop). Semantics are unchanged either way — scan instead.
        return classic();
      }
      TSE_COUNT("algebra.plan.index_scan");
      for (Oid oid : candidates) {
        if (source.count(oid) != 0) out->insert(oid);
      }
      return Status::OK();
    }
    case PlanArm::kBatch: {
      TSE_COUNT("algebra.plan.batch_scan");
      // One clustered pass over the defining class's slice arena (the
      // store's struct-of-arrays layout) gathers the attribute column,
      // sorted by oid so the compare loop merges it with the ordered
      // source — no per-oid resolver indirection or hashing. A member
      // without the slice or the value reads Null, exactly as a slice
      // read does.
      std::vector<std::pair<Oid, const Value*>> column;
      const uint64_t def_raw = plan.def->id.value();
      store_->ForEachSlice(
          plan.def->definer,
          [&](Oid conceptual,
              const std::unordered_map<uint64_t, Value>& values) {
            auto it = values.find(def_raw);
            if (it != values.end()) {
              column.emplace_back(conceptual, &it->second);
            }
          });
      std::sort(column.begin(), column.end());
      const Value null_value = Value::Null();
      auto cell = column.begin();
      for (Oid oid : source) {
        while (cell != column.end() && cell->first < oid) ++cell;
        const bool present = cell != column.end() && cell->first == oid;
        TSE_ASSIGN_OR_RETURN(
            Value verdict,
            objmodel::CompareValues(plan.pred->op,
                                    present ? *cell->second : null_value,
                                    plan.pred->literal));
        TSE_ASSIGN_OR_RETURN(bool keep, verdict.AsBool());
        if (keep) out->insert(out->end(), oid);
      }
      return Status::OK();
    }
    case PlanArm::kClassic:
      return classic();
  }
  return Status::Internal("unknown plan arm");
}

Result<SelectPlan> ExtentEvaluator::ExplainSelect(ClassId cls) const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Sync();
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, schema_->GetClass(cls));
  if (node->derivation.op != DerivationOp::kSelect) {
    return Status::InvalidArgument("explain: class is not a select");
  }
  TSE_ASSIGN_OR_RETURN(
      const std::set<Oid>* source,
      Eval(node->derivation.sources[0], std::nullopt, nullptr));
  SelectPlanner planner(schema_, indexes_);
  return planner.Plan(node->derivation.sources[0],
                      node->derivation.predicate.get(), source->size(),
                      planner_mode_);
}

void ExtentEvaluator::Invalidate(ClassId cls) const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  DropEntryAndDependents(cls);
}

void ExtentEvaluator::InvalidateAll() const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  DropAll();
}

void ExtentEvaluator::DropEntryAndDependents(ClassId cls) const {
  std::deque<ClassId> work;
  std::set<ClassId> visited;
  work.push_back(cls);
  while (!work.empty()) {
    ClassId c = work.front();
    work.pop_front();
    if (!visited.insert(c).second) continue;
    if (cache_.erase(c) != 0) {
      stats_.entries_invalidated.fetch_add(1, std::memory_order_relaxed);
      TSE_COUNT("algebra.extent.entries_invalidated");
    }
    for (ClassId dep : deps_.Dependents(c)) work.push_back(dep);
  }
}

void ExtentEvaluator::DropAll() const {
  if (!cache_.empty()) {
    stats_.full_rebuilds.fetch_add(1, std::memory_order_relaxed);
    TSE_COUNT("algebra.extent.full_rebuilds");
    cache_.clear();
  }
}

std::set<Oid>* ExtentEvaluator::MutableSet(Entry* entry) const {
  // Copy-on-write: handed-out snapshots stay stable.
  if (entry->extent.use_count() > 1) {
    entry->extent = std::make_shared<std::set<Oid>>(*entry->extent);
  }
  return entry->extent.get();
}

template <typename Fn>
auto ExtentEvaluator::Synced(Fn fn) const ->
    typename std::invoke_result_t<Fn, bool>::value_type {
  {
    // Fast path: a fully synced cache serves under the shared lock — the
    // steady state for concurrent session reads.
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (IsSyncedLocked()) {
      auto served = fn(/*exclusive=*/false);
      if (served) return *std::move(served);
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  Sync();
  return *fn(/*exclusive=*/true);
}

template <typename Fn>
auto ExtentEvaluator::WithExtent(ClassId cls, Fn fn) const
    -> Result<decltype(fn(ExtentPtr()))> {
  using R = Result<decltype(fn(ExtentPtr()))>;
  return Synced([&](bool exclusive) -> std::optional<R> {
    auto hit = cache_.find(cls);
    if (hit != cache_.end()) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      TSE_COUNT("algebra.extent.cache_hits");
      return R(fn(ExtentPtr(hit->second.extent)));
    }
    if (!exclusive) return std::nullopt;  // a fill writes cache_
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    TSE_COUNT("algebra.extent.cache_misses");
    auto filled = Eval(cls, std::nullopt, nullptr);
    if (!filled.ok()) return R(filled.status());
    return R(fn(ExtentPtr(cache_.at(cls).extent)));
  });
}

Result<ExtentEvaluator::ExtentPtr> ExtentEvaluator::Extent(
    ClassId cls) const {
  return WithExtent(cls, [](ExtentPtr extent) { return extent; });
}

Result<std::vector<Oid>> ExtentEvaluator::ExtentVector(ClassId cls) const {
  return WithExtent(cls, [](ExtentPtr extent) {
    return std::vector<Oid>(extent->begin(), extent->end());
  });
}

Result<bool> ExtentEvaluator::IsMember(Oid oid, ClassId cls) const {
  return Synced([&](bool) -> std::optional<Result<bool>> {
    auto hit = cache_.find(cls);
    if (hit != cache_.end()) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      TSE_COUNT("algebra.extent.cache_hits");
      return Result<bool>(hit->second.extent->count(oid) != 0);
    }
    // Deliberately not a cache fill: the per-oid walk is the designed
    // cheap path for membership probes against unmaterialized classes.
    // It only reads the schema, the store and cache_, and writers to
    // cache_ hold the lock exclusive, so the shared lock suffices.
    return Member(cls, oid);
  });
}

ExtentEvaluator::CacheStats ExtentEvaluator::stats() const {
  CacheStats out;
  out.hits = stats_.hits.load(std::memory_order_relaxed);
  out.misses = stats_.misses.load(std::memory_order_relaxed);
  out.delta_records = stats_.delta_records.load(std::memory_order_relaxed);
  out.delta_updates = stats_.delta_updates.load(std::memory_order_relaxed);
  out.full_rebuilds = stats_.full_rebuilds.load(std::memory_order_relaxed);
  out.entries_invalidated =
      stats_.entries_invalidated.load(std::memory_order_relaxed);
  out.delta_eval_errors =
      stats_.delta_eval_errors.load(std::memory_order_relaxed);
  return out;
}

void ExtentEvaluator::ResetStats() {
  stats_.hits.store(0, std::memory_order_relaxed);
  stats_.misses.store(0, std::memory_order_relaxed);
  stats_.delta_records.store(0, std::memory_order_relaxed);
  stats_.delta_updates.store(0, std::memory_order_relaxed);
  stats_.full_rebuilds.store(0, std::memory_order_relaxed);
  stats_.entries_invalidated.store(0, std::memory_order_relaxed);
  stats_.delta_eval_errors.store(0, std::memory_order_relaxed);
}

Result<std::set<Oid>> ExtentEvaluator::ExtentAt(ClassId cls,
                                                uint64_t epoch) const {
  std::map<ClassId, std::set<Oid>> pinned;
  TSE_RETURN_IF_ERROR(Eval(cls, epoch, &pinned).status());
  return std::move(pinned.at(cls));
}

Result<std::vector<Oid>> ExtentEvaluator::Select(
    ClassId cls, const objmodel::MethodExpr& pred) const {
  using Selected = Result<std::vector<Oid>>;
  TSE_ASSIGN_OR_RETURN(
      Selected selected, WithExtent(cls, [&](ExtentPtr source) -> Selected {
        std::set<Oid> out;
        TSE_RETURN_IF_ERROR(EvalSelect(cls, pred, *source, &out));
        return std::vector<Oid>(out.begin(), out.end());
      }));
  return selected;
}

Result<const std::set<Oid>*> ExtentEvaluator::Eval(
    ClassId cls, ReadPoint at,
    std::map<ClassId, std::set<Oid>>* pinned) const {
  if (at) {
    auto hit = pinned->find(cls);
    if (hit != pinned->end()) return &hit->second;
  } else {
    auto hit = cache_.find(cls);
    if (hit != cache_.end()) return hit->second.extent.get();
  }
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, schema_->GetClass(cls));
  const schema::Derivation& d = node->derivation;
  const std::set<Oid>* a = nullptr;
  const std::set<Oid>* b = nullptr;
  if (!d.sources.empty()) {
    TSE_ASSIGN_OR_RETURN(a, Eval(d.sources[0], at, pinned));
  }
  if (d.sources.size() > 1) {
    TSE_ASSIGN_OR_RETURN(b, Eval(d.sources[1], at, pinned));
  }
  // Every memo entry owns its set (hide/refine copy their source) so
  // delta application can patch each level in place, O(log n) per
  // changed oid.
  std::set<Oid> out;
  switch (d.op) {
    case DerivationOp::kBase:
      // Union of direct extents of all base classes subsumed by cls.
      for (ClassId other : schema_->AllClasses()) {
        auto other_node = schema_->GetClass(other);
        if (!other_node.ok() || !other_node.value()->is_base()) continue;
        if (!schema_->ExtentSubsumedBy(other, cls)) continue;
        if (at) {
          const std::set<Oid> direct = store_->DirectExtentAt(other, *at);
          out.insert(direct.begin(), direct.end());
        } else {
          const std::set<Oid>& direct = store_->DirectExtent(other);
          out.insert(direct.begin(), direct.end());
        }
      }
      break;
    case DerivationOp::kSelect:
      TSE_RETURN_IF_ERROR(
          at ? accessor_.Filter(*d.predicate, d.sources[0], *a, at, &out)
             : EvalSelect(d.sources[0], *d.predicate, *a, &out));
      break;
    case DerivationOp::kHide:
    case DerivationOp::kRefine:
      out = *a;
      break;
    case DerivationOp::kUnion:
      std::set_union(a->begin(), a->end(), b->begin(), b->end(),
                     std::inserter(out, out.end()));
      break;
    case DerivationOp::kIntersect:
      std::set_intersection(a->begin(), a->end(), b->begin(), b->end(),
                            std::inserter(out, out.end()));
      break;
    case DerivationOp::kDifference:
      std::set_difference(a->begin(), a->end(), b->begin(), b->end(),
                          std::inserter(out, out.end()));
      break;
  }
  if (at) return &pinned->emplace(cls, std::move(out)).first->second;
  Entry& entry = cache_[cls];
  entry.extent = std::make_shared<std::set<Oid>>(std::move(out));
  entry.class_version = schema_->class_version(cls);
  entry.floor = schema_->invalidate_floor();
  return entry.extent.get();
}

}  // namespace tse::algebra
