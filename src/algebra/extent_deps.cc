#include "algebra/extent_deps.h"

#include <deque>

#include "obs/metrics.h"

namespace tse::algebra {

using schema::ClassNode;
using schema::DerivationOp;
using schema::PropertyDef;

void DerivationDepGraph::Rebuild(const schema::SchemaGraph& schema) {
  TSE_COUNT("algebra.deps.full_rebuilds");
  schema_ = &schema;
  // Read the markers before the classes: a change racing with the scan
  // moves them past these values, so the next Extend rebuilds again.
  floor_ = schema.invalidate_floor();
  removals_ = schema.removal_count();
  next_ = 0;
  dependents_.clear();
  selects_.clear();
  selects_by_name_.clear();
  volatile_.clear();
  base_ups_.clear();
  AddNewClasses(schema);
}

void DerivationDepGraph::Extend(const schema::SchemaGraph& schema) {
  if (schema_ != &schema || floor_ != schema.invalidate_floor() ||
      removals_ != schema.removal_count()) {
    Rebuild(schema);
    return;
  }
  AddNewClasses(schema);
}

void DerivationDepGraph::AddNewClasses(const schema::SchemaGraph& schema) {
  // Appending in id order keeps every list in the order a full rebuild
  // produces.
  for (ClassId cls : schema.ClassesFrom(ClassId(next_))) {
    next_ = cls.value() + 1;
    auto node_or = schema.GetClass(cls);
    if (!node_or.ok()) continue;
    const ClassNode* node = node_or.value();
    // No addition changes an existing class's answer (a new base class
    // sits below the classes it names), so the memo could survive even
    // this; base classes arrive rarely enough to drop it anyway.
    if (node->is_base()) base_ups_.clear();
    for (ClassId src : node->derivation.sources) {
      dependents_[src.value()].push_back(cls);
    }
    if (node->derivation.op == DerivationOp::kSelect) {
      SelectInfo info;
      info.cls = cls;
      AnalyzePredicate(schema, *node, &info);
      if (info.is_volatile) {
        volatile_.push_back(cls);
      } else {
        for (const std::string& name : info.attr_names) {
          selects_by_name_[name].push_back(cls);
        }
      }
      selects_.emplace(cls.value(), std::move(info));
    }
  }
}

void DerivationDepGraph::AnalyzePredicate(const schema::SchemaGraph& schema,
                                          const ClassNode& node,
                                          SelectInfo* info) {
  if (!node.derivation.predicate) {
    info->is_volatile = true;
    return;
  }
  ClassId source = node.derivation.sources[0];
  std::vector<std::string> pending;
  node.derivation.predicate->CollectAttrNames(&pending);
  std::set<std::string> visited;
  while (!pending.empty()) {
    std::string name = std::move(pending.back());
    pending.pop_back();
    if (!visited.insert(name).second) continue;
    if (name.find('.') != std::string::npos) {
      // Dotted navigation reads another object's state; membership of
      // an oid can then change without any write touching that oid.
      info->is_volatile = true;
      return;
    }
    auto def_or = schema.ResolveProperty(source, name);
    if (!def_or.ok()) {
      // Unresolvable (ambiguous binding, name not in the source type):
      // evaluation errors today, but a later write could change that —
      // treat as unbounded.
      info->is_volatile = true;
      return;
    }
    const PropertyDef* def = def_or.value();
    if (def->is_attribute()) {
      info->attr_names.insert(name);
      continue;
    }
    // Method: the verdict depends on whatever the body reads.
    if (!def->body) {
      info->is_volatile = true;
      return;
    }
    std::vector<std::string> body_names;
    def->body->CollectAttrNames(&body_names);
    for (std::string& n : body_names) pending.push_back(std::move(n));
  }
}

const std::vector<ClassId>& DerivationDepGraph::Dependents(
    ClassId cls) const {
  auto it = dependents_.find(cls.value());
  return it == dependents_.end() ? empty_ : it->second;
}

const std::vector<ClassId>& DerivationDepGraph::BaseUps(
    ClassId base_cls) const {
  auto hit = base_ups_.find(base_cls.value());
  if (hit != base_ups_.end()) return hit->second;
  std::vector<ClassId> ups;
  if (schema_ != nullptr) {
    for (ClassId other : schema_->AllClasses()) {
      auto node = schema_->GetClass(other);
      if (!node.ok() || !node.value()->is_base()) continue;
      if (schema_->ExtentSubsumedBy(base_cls, other)) ups.push_back(other);
    }
  }
  return base_ups_.emplace(base_cls.value(), std::move(ups)).first->second;
}

const DerivationDepGraph::SelectInfo* DerivationDepGraph::Select(
    ClassId cls) const {
  auto it = selects_.find(cls.value());
  return it == selects_.end() ? nullptr : &it->second;
}

const std::vector<ClassId>& DerivationDepGraph::SelectsOnName(
    const std::string& name) const {
  auto it = selects_by_name_.find(name);
  return it == selects_by_name_.end() ? empty_ : it->second;
}

}  // namespace tse::algebra
