#include "schema/schema_graph.h"

#include <algorithm>
#include <deque>

#include "common/str_util.h"
#include "obs/metrics.h"

namespace tse::schema {

const char* DerivationOpName(DerivationOp op) {
  switch (op) {
    case DerivationOp::kBase:
      return "base";
    case DerivationOp::kSelect:
      return "select";
    case DerivationOp::kHide:
      return "hide";
    case DerivationOp::kRefine:
      return "refine";
    case DerivationOp::kUnion:
      return "union";
    case DerivationOp::kIntersect:
      return "intersect";
    case DerivationOp::kDifference:
      return "difference";
  }
  return "unknown";
}

uint64_t SchemaGraph::class_version(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  auto it = class_versions_.find(cls.value());
  return it == class_versions_.end() ? 0 : it->second;
}

void SchemaGraph::BumpClassVersion(ClassId cls) {
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  class_versions_[cls.value()] = generation;
  auto node = GetClassUnlocked(cls);
  if (!node.ok() || !node.value()->is_base()) return;
  // A base class's computed extent unions the direct extents of every
  // base class beneath it; attaching a new base class changes that
  // source set for all transitive declared supers.
  std::vector<ClassId> queue(node.value()->declared_supers);
  std::set<ClassId> seen;
  while (!queue.empty()) {
    ClassId cur = queue.back();
    queue.pop_back();
    if (!seen.insert(cur).second) continue;
    class_versions_[cur.value()] = generation;
    auto cur_node = GetClassUnlocked(cur);
    if (cur_node.ok()) {
      for (ClassId sup : cur_node.value()->declared_supers) {
        queue.push_back(sup);
      }
    }
  }
}

SchemaGraph::SchemaGraph() {
  // Install the system root class. Built by hand (AddBaseClass would
  // try to attach it to itself).
  ClassNode node;
  node.id = class_alloc_.Allocate();
  node.name = "OBJECT";
  node.derivation.op = DerivationOp::kBase;
  root_ = node.id;
  by_name_[node.name] = root_;
  classes_.emplace(root_.value(), std::move(node));
}

Result<ClassId> SchemaGraph::AddBaseClass(
    const std::string& name, const std::vector<ClassId>& supers_in,
    const std::vector<PropertySpec>& props) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (by_name_.count(name)) {
    return Status::AlreadyExists(StrCat("class ", name));
  }
  // Parentless classes hang off the system root so the schema stays one
  // connected DAG.
  std::vector<ClassId> supers = supers_in;
  if (supers.empty()) supers.push_back(root_);
  for (ClassId sup : supers) {
    TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(sup));
    if (!node->is_base()) {
      return Status::InvalidArgument(
          StrCat("declared superclass ", node->name, " is not a base class"));
    }
  }
  ClassNode node;
  node.id = class_alloc_.Allocate();
  node.name = name;
  node.declared_supers = supers;
  node.derivation.op = DerivationOp::kBase;
  ClassId id = node.id;
  // Register local properties.
  for (const PropertySpec& spec : props) {
    PropertyDef def;
    def.id = prop_alloc_.Allocate();
    def.name = spec.name;
    def.kind = spec.kind;
    def.value_type = spec.value_type;
    def.ref_target = spec.ref_target;
    def.body = spec.body;
    def.definer = id;
    node.local_props.push_back(def.id);
    props_.emplace(def.id.value(), std::move(def));
  }
  // Seed the classified DAG from the declared base edges.
  for (ClassId sup : supers) {
    node.supers.insert(sup);
  }
  by_name_[name] = id;
  classes_.emplace(id.value(), std::move(node));
  for (ClassId sup : supers) {
    classes_.at(sup.value()).subs.insert(id);
  }
  // Adding a class cannot flip a provable subsumption or an effective
  // type between *existing* classes (derivations are immutable and new
  // proof paths through the newcomer reduce to pre-existing ones), so
  // the memos survive; only the affected classes' versions move.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  BumpClassVersion(id);
  return id;
}

Result<ClassId> SchemaGraph::AddVirtualClass(const std::string& name,
                                             Derivation derivation) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  return AddVirtualClassUnlocked(name, std::move(derivation));
}

Result<ClassId> SchemaGraph::AddVirtualClassUnlocked(const std::string& name,
                                                     Derivation derivation) {
  if (by_name_.count(name)) {
    return Status::AlreadyExists(StrCat("class ", name));
  }
  if (derivation.op == DerivationOp::kBase) {
    return Status::InvalidArgument("virtual class needs a non-base derivation");
  }
  TSE_RETURN_IF_ERROR(ValidateDerivation(derivation));
  ClassNode node;
  node.id = class_alloc_.Allocate();
  node.name = name;
  node.derivation = std::move(derivation);
  ClassId id = node.id;
  by_name_[name] = id;
  for (ClassId src : node.derivation.sources) {
    derived_index_[src.value()].push_back(id);
  }
  classes_by_op_[node.derivation.op].insert(id.value());
  classes_.emplace(id.value(), std::move(node));
  // Monotone addition: existing memo entries stay valid (see
  // AddBaseClass); dependents rebuild their dependency graphs off the
  // generation bump.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  BumpClassVersion(id);
  return id;
}

Status SchemaGraph::ValidateDerivation(const Derivation& derivation) const {
  size_t expected_sources = 0;
  switch (derivation.op) {
    case DerivationOp::kBase:
      break;
    case DerivationOp::kSelect:
    case DerivationOp::kHide:
    case DerivationOp::kRefine:
      expected_sources = 1;
      break;
    case DerivationOp::kUnion:
    case DerivationOp::kIntersect:
    case DerivationOp::kDifference:
      expected_sources = 2;
      break;
    default:
      return Status::InvalidArgument(
          StrCat("unknown derivation op ",
                 static_cast<unsigned>(derivation.op)));
  }
  if (derivation.sources.size() != expected_sources) {
    return Status::InvalidArgument(
        StrCat(DerivationOpName(derivation.op), " expects ", expected_sources,
               " source(s), got ", derivation.sources.size()));
  }
  for (ClassId src : derivation.sources) {
    TSE_RETURN_IF_ERROR(GetClassUnlocked(src).status());
  }
  if (derivation.op == DerivationOp::kSelect && !derivation.predicate) {
    return Status::InvalidArgument("select derivation needs a predicate");
  }
  return Status::OK();
}

Result<PropertyDefId> SchemaGraph::DefineProperty(const PropertySpec& spec,
                                                  ClassId definer) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  return DefinePropertyUnlocked(spec, definer);
}

Result<PropertyDefId> SchemaGraph::DefinePropertyUnlocked(
    const PropertySpec& spec, ClassId definer) {
  TSE_RETURN_IF_ERROR(GetClassUnlocked(definer).status());
  PropertyDef def;
  def.id = prop_alloc_.Allocate();
  def.name = spec.name;
  def.kind = spec.kind;
  def.value_type = spec.value_type;
  def.ref_target = spec.ref_target;
  def.body = spec.body;
  def.definer = definer;
  PropertyDefId id = def.id;
  props_.emplace(id.value(), std::move(def));
  return id;
}

Result<ClassId> SchemaGraph::AddRefineClass(
    const std::string& name, ClassId source,
    const std::vector<PropertySpec>& new_props,
    const std::vector<PropertyDefId>& imported) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_RETURN_IF_ERROR(GetClassUnlocked(source).status());
  for (PropertyDefId def : imported) {
    TSE_RETURN_IF_ERROR(GetPropertyUnlocked(def).status());
  }
  // Paper semantics (Section 3.2): every refining property name must
  // differ from the functions already defined on the source type.
  TSE_ASSIGN_OR_RETURN(TypeSet source_type, EffectiveTypeLocked(source));
  Derivation derivation;
  derivation.op = DerivationOp::kRefine;
  derivation.sources = {source};
  TSE_ASSIGN_OR_RETURN(ClassId cls,
                       AddVirtualClassUnlocked(name, derivation));
  ClassNode* node = GetMutable(cls).value();
  for (const PropertySpec& spec : new_props) {
    if (source_type.ContainsName(spec.name)) {
      // Roll the class back before failing.
      Status remove = RemoveClassUnlocked(cls);
      (void)remove;
      return Status::Rejected(
          StrCat("property '", spec.name, "' already defined for type of ",
                 GetClassUnlocked(source).value()->name));
    }
    TSE_ASSIGN_OR_RETURN(PropertyDefId def, DefinePropertyUnlocked(spec, cls));
    node->derivation.added.push_back(def);
  }
  for (PropertyDefId def : imported) {
    node->derivation.added.push_back(def);
  }
  // The derivation gained properties after AddVirtualClass; only the new
  // class's own type could have been computed in between — drop it.
  // (Concurrent readers never saw the intermediate node: the whole
  // assembly ran under the exclusive graph latch.)
  {
    std::unique_lock<std::shared_mutex> lock(memo_mu_);
    type_cache_.erase(cls.value());
  }
  return cls;
}

void SchemaGraph::BumpFloorAndGeneration() {
  // The floor moves before the generation: extent caches read the
  // generation first and then the floor, so one that sees the new
  // generation also sees the new floor and cannot stamp itself synced
  // with state from under the old one.
  const uint64_t generation = generation_.load(std::memory_order_relaxed) + 1;
  invalidate_floor_.store(generation, std::memory_order_release);
  generation_.store(generation, std::memory_order_release);
}

Status SchemaGraph::AddLocalProperty(ClassId cls, PropertyDefId def) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(ClassNode * node, GetMutable(cls));
  TSE_RETURN_IF_ERROR(GetPropertyUnlocked(def).status());
  if (!node->is_base()) {
    return Status::InvalidArgument(
        "local properties can only be added to base classes; virtual "
        "classes change type through their derivation");
  }
  node->local_props.push_back(def);
  // A new stored name can shadow (or un-shadow) resolution anywhere
  // beneath `cls`: drop the type memo and floor every extent cache.
  {
    std::unique_lock<std::shared_mutex> lock(memo_mu_);
    type_cache_.clear();
  }
  BumpFloorAndGeneration();
  return Status::OK();
}

Status SchemaGraph::RemoveClass(ClassId cls) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  return RemoveClassUnlocked(cls);
}

Status SchemaGraph::RemoveClassUnlocked(ClassId cls) {
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(cls));
  if (node->is_base()) {
    return Status::InvalidArgument("cannot remove a base class");
  }
  if (!node->supers.empty() || !node->subs.empty()) {
    return Status::FailedPrecondition(
        StrCat("class ", node->name, " is classified; unlink it first"));
  }
  if (!DerivedFromUnlocked(cls).empty()) {
    return Status::FailedPrecondition(
        StrCat("class ", node->name, " has derived classes"));
  }
  for (ClassId src : node->derivation.sources) {
    auto it = derived_index_.find(src.value());
    if (it != derived_index_.end()) {
      std::erase(it->second, cls);
    }
  }
  // Drop property definitions whose storage lived at the removed class
  // (fresh refine attributes of a discarded duplicate).
  for (auto it = props_.begin(); it != props_.end();) {
    if (it->second.definer == cls) {
      it = props_.erase(it);
    } else {
      ++it;
    }
  }
  by_name_.erase(node->name);
  classes_by_op_[node->derivation.op].erase(cls.value());
  classes_.erase(cls.value());
  // The extent memo keeps its entries: only an unreferenced virtual
  // class can be removed, and a removed class was at most a proof
  // *witness* for subsumptions between other classes — facts that
  // remain semantically true. Entries naming the removed class itself
  // can no longer be reached: ids are never reused, no proof walks into
  // a class that is gone from every index, and the public extent queries
  // answer a removed class without the memo. Scanning the memo here
  // instead would cost its whole size per discarded duplicate.
  {
    std::unique_lock<std::shared_mutex> lock(memo_mu_);
    type_cache_.erase(cls.value());
  }
  class_versions_.erase(cls.value());
  // The count moves first, like the floor in BumpFloorAndGeneration.
  removals_.fetch_add(1, std::memory_order_acq_rel);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status SchemaGraph::SetUnionCreateTarget(ClassId union_cls, ClassId target) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(ClassNode * node, GetMutable(union_cls));
  if (node->derivation.op != DerivationOp::kUnion) {
    return Status::InvalidArgument(
        StrCat("class ", node->name, " is not a union class"));
  }
  if (std::find(node->derivation.sources.begin(),
                node->derivation.sources.end(),
                target) == node->derivation.sources.end()) {
    return Status::InvalidArgument(
        StrCat("class ", target.ToString(), " is not a source of union ",
               node->name));
  }
  node->union_create_target = target;
  return Status::OK();
}

Result<ClassId> SchemaGraph::UnionPropagationSource(ClassId union_cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(union_cls));
  if (node->derivation.op != DerivationOp::kUnion) {
    return Status::InvalidArgument(
        StrCat("class ", node->name, " is not a union class"));
  }
  return node->union_create_target.valid() ? node->union_create_target
                                           : node->derivation.sources[0];
}

Result<ClassId> SchemaGraph::FindClass(const std::string& name) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound(StrCat("class ", name));
  }
  return it->second;
}

Result<const ClassNode*> SchemaGraph::GetClass(ClassId id) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return GetClassUnlocked(id);
}

Result<const ClassNode*> SchemaGraph::GetClassUnlocked(ClassId id) const {
  auto it = classes_.find(id.value());
  if (it == classes_.end()) {
    return Status::NotFound(StrCat("class id ", id.ToString()));
  }
  return &it->second;
}

bool SchemaGraph::HasClass(ClassId id) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return classes_.count(id.value()) != 0;
}

size_t SchemaGraph::class_count() const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return classes_.size();
}

Result<ClassNode*> SchemaGraph::GetMutable(ClassId id) {
  auto it = classes_.find(id.value());
  if (it == classes_.end()) {
    return Status::NotFound(StrCat("class id ", id.ToString()));
  }
  return &it->second;
}

Result<const PropertyDef*> SchemaGraph::GetProperty(PropertyDefId id) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return GetPropertyUnlocked(id);
}

Result<const PropertyDef*> SchemaGraph::GetPropertyUnlocked(
    PropertyDefId id) const {
  auto it = props_.find(id.value());
  if (it == props_.end()) {
    return Status::NotFound(StrCat("property def ", id.ToString()));
  }
  return &it->second;
}

Status SchemaGraph::RenameProperty(PropertyDefId id,
                                   const std::string& new_name) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  auto it = props_.find(id.value());
  if (it == props_.end()) {
    return Status::NotFound(StrCat("property def ", id.ToString()));
  }
  it->second.name = new_name;
  // Renames can silently retarget by-name resolution in select
  // predicates: drop the type memo and floor every extent cache.
  {
    std::unique_lock<std::shared_mutex> lock(memo_mu_);
    type_cache_.clear();
  }
  BumpFloorAndGeneration();
  return Status::OK();
}

std::vector<ClassId> SchemaGraph::AllClasses() const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  std::vector<ClassId> out;
  out.reserve(classes_.size());
  for (const auto& [raw, _] : classes_) out.push_back(ClassId(raw));
  return out;
}

std::vector<ClassId> SchemaGraph::ClassesFrom(ClassId first) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  std::vector<ClassId> out;
  for (auto it = classes_.lower_bound(first.value()); it != classes_.end();
       ++it) {
    out.push_back(ClassId(it->first));
  }
  return out;
}

std::vector<ClassId> SchemaGraph::DerivedFrom(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return DerivedFromUnlocked(cls);
}

std::vector<ClassId> SchemaGraph::DerivedFromUnlocked(ClassId cls) const {
  auto it = derived_index_.find(cls.value());
  if (it == derived_index_.end()) return {};
  return it->second;
}

Result<std::vector<ClassId>> SchemaGraph::OriginClasses(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(cls));
  if (node->is_base()) return std::vector<ClassId>{cls};
  std::set<ClassId> origins;
  std::deque<ClassId> queue(node->derivation.sources.begin(),
                            node->derivation.sources.end());
  std::set<ClassId> seen;
  while (!queue.empty()) {
    ClassId cur = queue.front();
    queue.pop_front();
    if (!seen.insert(cur).second) continue;
    TSE_ASSIGN_OR_RETURN(const ClassNode* cur_node, GetClassUnlocked(cur));
    if (cur_node->is_base()) {
      origins.insert(cur);
    } else {
      for (ClassId src : cur_node->derivation.sources) queue.push_back(src);
    }
  }
  return std::vector<ClassId>(origins.begin(), origins.end());
}

// --- Effective types -------------------------------------------------------

Result<TypeSet> SchemaGraph::EffectiveType(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return EffectiveTypeLocked(cls);
}

Result<TypeSet> SchemaGraph::EffectiveTypeLocked(ClassId cls) const {
  TSE_ASSIGN_OR_RETURN(const TypeSet* type, TypeRefLocked(cls));
  return *type;
}

Result<const TypeSet*> SchemaGraph::TypeRefLocked(ClassId cls) const {
  {
    std::shared_lock<std::shared_mutex> lock(memo_mu_);
    auto hit = type_cache_.find(cls.value());
    if (hit != type_cache_.end()) return &hit->second;
  }
  std::unique_lock<std::shared_mutex> lock(memo_mu_);
  TypeSet out;
  std::set<ClassId> in_progress;
  TSE_RETURN_IF_ERROR(ComputeType(cls, &out, &in_progress));
  // A successful ComputeType always leaves `cls` in the memo.
  return &type_cache_.at(cls.value());
}

Status SchemaGraph::ComputeType(ClassId cls, TypeSet* out,
                                std::set<ClassId>* in_progress) const {
  auto hit = type_cache_.find(cls.value());
  if (hit != type_cache_.end()) {
    *out = hit->second;
    return Status::OK();
  }
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(cls));
  if (!in_progress->insert(cls).second) {
    return Status::FailedPrecondition(
        StrCat("cyclic derivation through class ", node->name));
  }
  Status status = Status::OK();
  switch (node->derivation.op) {
    case DerivationOp::kBase: {
      // Full inheritance: merge every declared superclass's type, then
      // local properties override same-named inherited ones.
      for (ClassId sup : node->declared_supers) {
        TypeSet sup_type;
        status = ComputeType(sup, &sup_type, in_progress);
        if (!status.ok()) break;
        out->MergeFrom(sup_type);
      }
      if (status.ok()) {
        for (PropertyDefId def : node->local_props) {
          auto prop = GetPropertyUnlocked(def);
          if (!prop.ok()) {
            status = prop.status();
            break;
          }
          out->Override(prop.value()->name, def);
        }
      }
      break;
    }
    case DerivationOp::kSelect:
    case DerivationOp::kDifference: {
      status = ComputeType(node->derivation.sources[0], out, in_progress);
      break;
    }
    case DerivationOp::kHide: {
      status = ComputeType(node->derivation.sources[0], out, in_progress);
      if (status.ok()) {
        for (const std::string& name : node->derivation.hidden) {
          out->RemoveName(name);
        }
      }
      break;
    }
    case DerivationOp::kRefine: {
      status = ComputeType(node->derivation.sources[0], out, in_progress);
      if (status.ok()) {
        for (PropertyDefId def : node->derivation.added) {
          auto prop = GetPropertyUnlocked(def);
          if (!prop.ok()) {
            status = prop.status();
            break;
          }
          // Existing same-named properties win (overriding semantics of
          // the add_edge algorithm, Section 6.5.2 footnote).
          if (!out->ContainsName(prop.value()->name)) {
            out->Add(prop.value()->name, def);
          }
        }
      }
      break;
    }
    case DerivationOp::kUnion: {
      // Lowest common supertype: names present in both sources. When the
      // two sides share the very definition it is kept; when a name is
      // present on both sides under different definitions (an override
      // below), the first source's definition wins — this keeps
      // type(union(v, sub')) equal to type(v) in the add/delete-edge
      // translations, matching the paper's verification equations
      // (Sections 6.5.3, 6.6.2).
      TypeSet a, b;
      status = ComputeType(node->derivation.sources[0], &a, in_progress);
      if (status.ok()) {
        status = ComputeType(node->derivation.sources[1], &b, in_progress);
      }
      if (status.ok()) {
        for (const auto& [name, defs] : a.bindings()) {
          bool shared = false;
          for (PropertyDefId def : defs) {
            if (b.Contains(name, def)) {
              out->Add(name, def);
              shared = true;
            }
          }
          if (!shared && b.ContainsName(name)) {
            for (PropertyDefId def : defs) out->Add(name, def);
          }
        }
      }
      break;
    }
    case DerivationOp::kIntersect: {
      // Greatest common subtype: all bindings of both sources.
      TypeSet a, b;
      status = ComputeType(node->derivation.sources[0], &a, in_progress);
      if (status.ok()) {
        status = ComputeType(node->derivation.sources[1], &b, in_progress);
      }
      if (status.ok()) {
        out->MergeFrom(a);
        out->MergeFrom(b);
      }
      break;
    }
  }
  in_progress->erase(cls);
  if (status.ok()) {
    type_cache_.emplace(cls.value(), *out);
  }
  return status;
}

Result<const PropertyDef*> SchemaGraph::ResolveProperty(
    ClassId cls, const std::string& name) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(const TypeSet* type, TypeRefLocked(cls));
  TSE_ASSIGN_OR_RETURN(PropertyDefId def, type->Lookup(name));
  return GetPropertyUnlocked(def);
}

// --- Subsumption -------------------------------------------------------------

std::vector<ClassId> SchemaGraph::DirectExtentUps(ClassId cls) const {
  std::vector<ClassId> ups;
  auto node_or = GetClassUnlocked(cls);
  if (!node_or.ok()) return ups;
  const ClassNode* node = node_or.value();
  switch (node->derivation.op) {
    case DerivationOp::kBase:
      ups.insert(ups.end(), node->declared_supers.begin(),
                 node->declared_supers.end());
      break;
    case DerivationOp::kSelect:
    case DerivationOp::kHide:
    case DerivationOp::kRefine:
      ups.push_back(node->derivation.sources[0]);
      break;
    case DerivationOp::kDifference:
      ups.push_back(node->derivation.sources[0]);
      break;
    case DerivationOp::kIntersect:
      ups.push_back(node->derivation.sources[0]);
      ups.push_back(node->derivation.sources[1]);
      break;
    case DerivationOp::kUnion:
      // Handled by the conjunctive rule in ExtentSubsumedByImpl.
      break;
  }
  // Derived classes can subsume their sources:
  //  - hide/refine classes have exactly their source's extent, so the
  //    source is subsumed by them;
  //  - a union always contains each of its sources.
  for (ClassId derived : DerivedFromUnlocked(cls)) {
    auto derived_or = GetClassUnlocked(derived);
    if (!derived_or.ok()) continue;
    DerivationOp op = derived_or.value()->derivation.op;
    if (op == DerivationOp::kHide || op == DerivationOp::kRefine ||
        op == DerivationOp::kUnion) {
      ups.push_back(derived);
    }
  }
  return ups;
}

bool SchemaGraph::ExtentSubsumedBy(ClassId a, ClassId b) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (a != b && !BothPresentLocked(a, b)) return false;
  return ExtentSubsumedByLocked(a, b);
}

bool SchemaGraph::ExtentEquivalent(ClassId a, ClassId b) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (a != b && !BothPresentLocked(a, b)) return false;
  return ExtentEquivalentLocked(a, b);
}

bool SchemaGraph::BothPresentLocked(ClassId a, ClassId b) const {
  // Guards the memo's stale entries for removed classes (RemoveClass).
  // The answer is what a proof would give: a missing class has no
  // derivation to prove from, and none leads to it.
  return classes_.count(a.value()) != 0 && classes_.count(b.value()) != 0;
}

bool SchemaGraph::ExtentSubsumedByLocked(ClassId a, ClassId b) const {
  auto key = std::make_pair(a.value(), b.value());
  {
    std::shared_lock<std::shared_mutex> lock(memo_mu_);
    auto hit = extent_cache_.find(key);
    if (hit != extent_cache_.end()) {
      TSE_COUNT("schema.subsume.memo_hits");
      return hit->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(memo_mu_);
  auto hit = extent_cache_.find(key);
  if (hit != extent_cache_.end()) {
    TSE_COUNT("schema.subsume.memo_hits");
    return hit->second;
  }
  TSE_COUNT("schema.subsume.proofs");
  std::set<ClassId> in_progress;
  bool tainted = false;
  bool result = ExtentSubsumedByImpl(a, b, &in_progress, &tainted);
  // At top level the in_progress set is empty, so even a guard-pruned
  // (tainted) negative answer is the query's definitive answer.
  extent_cache_.emplace(key, result);
  return result;
}

bool SchemaGraph::ExtentSubsumedByImpl(ClassId a, ClassId b,
                                       std::set<ClassId>* in_progress,
                                       bool* tainted) const {
  if (a == b) return true;
  auto key = std::make_pair(a.value(), b.value());
  auto hit = extent_cache_.find(key);
  if (hit != extent_cache_.end()) return hit->second;
  if (!in_progress->insert(a).second) {
    *tainted = true;  // pruned by the cycle guard: path-dependent answer
    return false;
  }
  bool local_tainted = false;
  auto node_or = GetClassUnlocked(a);
  if (!node_or.ok()) {
    in_progress->erase(a);
    return false;
  }
  const ClassNode* node = node_or.value();
  bool result = false;
  if (node->derivation.op == DerivationOp::kUnion) {
    // union(A,B) ⊆ b  iff  A ⊆ b and B ⊆ b.
    result = ExtentSubsumedByImpl(node->derivation.sources[0], b, in_progress,
                                  &local_tainted) &&
             ExtentSubsumedByImpl(node->derivation.sources[1], b, in_progress,
                                  &local_tainted);
  }
  if (!result) {
    for (ClassId up : DirectExtentUps(a)) {
      if (ExtentSubsumedByImpl(up, b, in_progress, &local_tainted)) {
        result = true;
        break;
      }
    }
  }
  if (!result) {
    // Structural rules between like-derived classes. These prove the
    // subsumptions that make derivation *clones* (add_class, Section
    // 6.7) and shrunken superclasses (delete_edge, Section 6.6) sit
    // beneath their counterparts:
    //   select(A, p)        ⊆ select(B, p)        if A ⊆ B (same predicate)
    //   difference(A, C)    ⊆ difference(B, C')   if A ⊆ B and C' ⊆ C
    //   intersect(A1, A2)   ⊆ intersect(B1, B2)   if A1 ⊆ B1 and A2 ⊆ B2
    // A matching class c is then a *hop*: a ⊆ c, so a ⊆ b when c ⊆ b.
    const Derivation& da = node->derivation;
    auto same_op = classes_by_op_.find(da.op);
    if ((da.op == DerivationOp::kSelect ||
         da.op == DerivationOp::kDifference ||
         da.op == DerivationOp::kIntersect) &&
        same_op != classes_by_op_.end()) {
      for (uint64_t raw : same_op->second) {
        ClassId c(raw);
        if (c == a) continue;
        const Derivation& dc = classes_.at(raw).derivation;
        bool premise = false;
        switch (da.op) {
          case DerivationOp::kSelect:
            premise = da.predicate == dc.predicate &&
                      ExtentSubsumedByImpl(da.sources[0], dc.sources[0],
                                           in_progress, &local_tainted);
            break;
          case DerivationOp::kDifference:
            premise = ExtentSubsumedByImpl(da.sources[0], dc.sources[0],
                                           in_progress, &local_tainted) &&
                      ExtentSubsumedByImpl(dc.sources[1], da.sources[1],
                                           in_progress, &local_tainted);
            break;
          case DerivationOp::kIntersect:
            premise = ExtentSubsumedByImpl(da.sources[0], dc.sources[0],
                                           in_progress, &local_tainted) &&
                      ExtentSubsumedByImpl(da.sources[1], dc.sources[1],
                                           in_progress, &local_tainted);
            break;
          default:
            break;
        }
        if (premise &&
            (c == b ||
             ExtentSubsumedByImpl(c, b, in_progress, &local_tainted))) {
          result = true;
          break;
        }
      }
    }
  }
  in_progress->erase(a);
  // Memoize: positives always; negatives only when no cycle guard
  // pruned the exploration (a tainted negative could become positive on
  // a different call path).
  if (result || !local_tainted) {
    extent_cache_.emplace(key, result);
  }
  if (local_tainted) *tainted = true;
  return result;
}

bool SchemaGraph::IsaSubsumedBy(ClassId a, ClassId b) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return IsaSubsumedByLocked(a, b);
}

// Both predicates below test the cheap type condition first, by
// reference into the type memo, and only then the extent proof. The
// order cannot change an answer: both conditions are pure, and the
// extent memo holds only definitive answers (positives, untainted
// negatives, and top-level results), so whether a proof runs now, later
// or never leaves every other query's result unchanged. Skipping the
// proof when the types already disagree is where the saving comes from.

bool SchemaGraph::IsaSubsumedByLocked(ClassId a, ClassId b) const {
  auto ta = TypeRefLocked(a);
  auto tb = TypeRefLocked(b);
  if (!ta.ok() || !tb.ok() || !ta.value()->CoversNamesOf(*tb.value())) {
    return false;
  }
  return ExtentSubsumedByLocked(a, b);
}

bool SchemaGraph::IsDuplicateOf(ClassId a, ClassId b) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (a == b) return false;
  auto ta = TypeRefLocked(a);
  auto tb = TypeRefLocked(b);
  if (!ta.ok() || !tb.ok()) return false;
  if (*ta.value() != *tb.value() && !RefineTwinsLocked(a, b)) return false;
  return ExtentEquivalentLocked(a, b);
}

bool SchemaGraph::RefineTwinsLocked(ClassId a, ClassId b) const {
  // Refine classes over the same source adding *structurally identical*
  // fresh properties are duplicates even though the freshly-allocated
  // definitions differ — the case where two users request the very same
  // add_attribute (Section 7: duplicates are detected and reused).
  auto na = GetClassUnlocked(a);
  auto nb = GetClassUnlocked(b);
  if (!na.ok() || !nb.ok()) return false;
  const Derivation& da = na.value()->derivation;
  const Derivation& db = nb.value()->derivation;
  if (da.op != DerivationOp::kRefine || db.op != DerivationOp::kRefine ||
      da.sources != db.sources || da.added.size() != db.added.size()) {
    return false;
  }
  for (size_t i = 0; i < da.added.size(); ++i) {
    auto pa = GetPropertyUnlocked(da.added[i]);
    auto pb = GetPropertyUnlocked(db.added[i]);
    if (!pa.ok() || !pb.ok()) return false;
    const PropertyDef* x = pa.value();
    const PropertyDef* y = pb.value();
    if (x->id == y->id) continue;  // shared (imported) definition
    // Imported defs (definer elsewhere) must match exactly; fresh defs
    // compare structurally.
    bool x_fresh = x->definer == a;
    bool y_fresh = y->definer == b;
    if (!x_fresh || !y_fresh) return false;
    if (x->name != y->name || x->kind != y->kind ||
        x->value_type != y->value_type || x->ref_target != y->ref_target) {
      return false;
    }
    if (x->kind == PropertyKind::kMethod) {
      std::string bx = x->body ? x->body->ToString() : "";
      std::string by = y->body ? y->body->ToString() : "";
      if (bx != by) return false;
    }
  }
  return true;
}

// --- Classified DAG -----------------------------------------------------------

Status SchemaGraph::AddIsaEdge(ClassId sub, ClassId sup) {
  if (sub == sup) return Status::InvalidArgument("self is-a edge");
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(ClassNode * sub_node, GetMutable(sub));
  TSE_ASSIGN_OR_RETURN(ClassNode * sup_node, GetMutable(sup));
  sub_node->supers.insert(sup);
  sup_node->subs.insert(sub);
  return Status::OK();
}

Status SchemaGraph::RemoveIsaEdge(ClassId sub, ClassId sup) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(ClassNode * sub_node, GetMutable(sub));
  TSE_ASSIGN_OR_RETURN(ClassNode * sup_node, GetMutable(sup));
  if (!sub_node->supers.erase(sup)) {
    return Status::NotFound(StrCat("no is-a edge ", sup_node->name, " <- ",
                                   sub_node->name));
  }
  sup_node->subs.erase(sub);
  return Status::OK();
}

Result<std::vector<ClassId>> SchemaGraph::DirectSupers(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(cls));
  return std::vector<ClassId>(node->supers.begin(), node->supers.end());
}

Result<std::vector<ClassId>> SchemaGraph::DirectSubs(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(cls));
  return std::vector<ClassId>(node->subs.begin(), node->subs.end());
}

Result<std::set<ClassId>> SchemaGraph::TransitiveSupers(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_RETURN_IF_ERROR(GetClassUnlocked(cls).status());
  std::set<ClassId> out;
  std::deque<ClassId> queue{cls};
  while (!queue.empty()) {
    ClassId cur = queue.front();
    queue.pop_front();
    if (!out.insert(cur).second) continue;
    TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(cur));
    for (ClassId sup : node->supers) queue.push_back(sup);
  }
  return out;
}

Result<std::set<ClassId>> SchemaGraph::TransitiveSubs(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  TSE_RETURN_IF_ERROR(GetClassUnlocked(cls).status());
  std::set<ClassId> out;
  std::deque<ClassId> queue{cls};
  while (!queue.empty()) {
    ClassId cur = queue.front();
    queue.pop_front();
    if (!out.insert(cur).second) continue;
    TSE_ASSIGN_OR_RETURN(const ClassNode* node, GetClassUnlocked(cur));
    for (ClassId sub : node->subs) queue.push_back(sub);
  }
  return out;
}

Status SchemaGraph::RestoreProperty(PropertyDef def) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (!def.id.valid() || props_.count(def.id.value())) {
    return Status::InvalidArgument(
        StrCat("cannot restore property ", def.id.ToString()));
  }
  prop_alloc_.BumpPast(def.id);
  props_.emplace(def.id.value(), std::move(def));
  return Status::OK();
}

Status SchemaGraph::RestoreClass(ClassNode node) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (!node.id.valid() || classes_.count(node.id.value())) {
    return Status::InvalidArgument(
        StrCat("cannot restore class ", node.id.ToString()));
  }
  if (by_name_.count(node.name)) {
    return Status::AlreadyExists(StrCat("class name ", node.name));
  }
  TSE_RETURN_IF_ERROR(ValidateDerivation(node.derivation));
  for (ClassId sup : node.supers) {
    TSE_RETURN_IF_ERROR(GetClassUnlocked(sup).status());
  }
  node.subs.clear();  // rebuilt from later classes' supers
  ClassId id = node.id;
  class_alloc_.BumpPast(id);
  by_name_[node.name] = id;
  for (ClassId src : node.derivation.sources) {
    derived_index_[src.value()].push_back(id);
  }
  for (ClassId sup : node.supers) {
    classes_.at(sup.value()).subs.insert(id);
  }
  if (!node.is_base()) classes_by_op_[node.derivation.op].insert(id.value());
  classes_.emplace(id.value(), std::move(node));
  // Same monotone-addition argument as AddBaseClass/AddVirtualClass.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  BumpClassVersion(id);
  return Status::OK();
}

void SchemaGraph::RestoreAllocators(uint64_t class_next, uint64_t prop_next) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (class_next > 0) class_alloc_.BumpPast(ClassId(class_next - 1));
  if (prop_next > 0) prop_alloc_.BumpPast(PropertyDefId(prop_next - 1));
}

std::vector<const PropertyDef*> SchemaGraph::AllProperties() const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  std::vector<const PropertyDef*> out;
  out.reserve(props_.size());
  for (const auto& [_, def] : props_) out.push_back(&def);
  return out;
}

std::string SchemaGraph::ToDot() const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  std::string out = "digraph schema {\n";
  for (const auto& [raw, node] : classes_) {
    out += StrCat("  \"", node.name, "\" [shape=",
                  node.is_base() ? "box" : "ellipse", "];\n");
    for (ClassId sup : node.supers) {
      auto sup_node = GetClassUnlocked(sup);
      if (sup_node.ok()) {
        out += StrCat("  \"", node.name, "\" -> \"", sup_node.value()->name,
                      "\";\n");
      }
    }
  }
  out += "}\n";
  return out;
}

}  // namespace tse::schema
