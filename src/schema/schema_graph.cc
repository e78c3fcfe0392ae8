#include "schema/schema_graph.h"

#include <algorithm>
#include <bit>
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
  const ClassSlot* slot = SlotUnlocked(cls);
  return slot == nullptr ? 0 : slot->version;
}

void SchemaGraph::BumpClassVersion(ClassId cls) {
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  ClassSlot* slot = SlotUnlocked(cls);
  if (slot == nullptr) return;
  slot->version = generation;
  if (!slot->node.is_base()) return;
  // A base class's computed extent unions the direct extents of every
  // base class beneath it; attaching a new base class changes that
  // source set for all transitive declared supers.
  std::vector<ClassId> queue(slot->node.declared_supers);
  std::set<ClassId> seen;
  while (!queue.empty()) {
    ClassId cur = queue.back();
    queue.pop_back();
    if (!seen.insert(cur).second) continue;
    ClassSlot* cur_slot = SlotUnlocked(cur);
    if (cur_slot == nullptr) continue;
    cur_slot->version = generation;
    for (ClassId sup : cur_slot->node.declared_supers) queue.push_back(sup);
  }
}

// --- Tables --------------------------------------------------------------------

int SchemaGraph::PairMemo::Find(ClassId a, ClassId b) const {
  if (slots_.empty() || !Fits(a, b)) return -1;
  const uint64_t key = Key(a, b);
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == kEmpty) return -1;
    if ((slot & ~uint64_t{1}) == key) return static_cast<int>(slot & 1);
  }
}

void SchemaGraph::PairMemo::Insert(ClassId a, ClassId b, bool value) {
  if (!Fits(a, b)) return;
  // Grow at half full, so probes stay short and a free slot always ends
  // them.
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const uint64_t key = Key(a, b);
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    if (slots_[i] == kEmpty) {
      slots_[i] = key | (value ? 1 : 0);
      ++size_;
      return;
    }
    if ((slots_[i] & ~uint64_t{1}) == key) return;
  }
}

void SchemaGraph::PairMemo::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  const size_t capacity = old.empty() ? 1024 : 2 * old.size();
  slots_.assign(capacity, kEmpty);
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (uint64_t slot : old) {
    if (slot == kEmpty) continue;
    size_t i = Home(slot & ~uint64_t{1});
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

Status SchemaGraph::InstallClassUnlocked(ClassNode node) {
  const ClassId id = node.id;
  if (!id.valid() || id.value() >= kMaxIds) {
    return Status::InvalidArgument(
        StrCat("class id ", id.ToString(), " is beyond the class table"));
  }
  if (id.value() >= table_.size()) {
    table_.resize(id.value() + 1);
    in_progress_.resize(id.value() + 1, 0);
  }
  auto slot = std::make_unique<ClassSlot>();
  slot->node = std::move(node);
  const ClassNode& n = slot->node;
  const Derivation& d = n.derivation;
  switch (d.op) {
    case DerivationOp::kBase:
      slot->extent_ups = n.declared_supers;
      break;
    case DerivationOp::kSelect:
    case DerivationOp::kHide:
    case DerivationOp::kRefine:
    case DerivationOp::kDifference:
      slot->extent_ups.push_back(d.sources[0]);
      break;
    case DerivationOp::kIntersect:
      slot->extent_ups = d.sources;
      break;
    case DerivationOp::kUnion:
      // Handled by the conjunctive rule in ExtentSubsumedByImpl.
      break;
  }
  // Derived classes can subsume their sources:
  //  - hide/refine classes have exactly their source's extent, so the
  //    source is subsumed by them;
  //  - a union always contains each of its sources.
  const bool subsumes_sources = d.op == DerivationOp::kHide ||
                                d.op == DerivationOp::kRefine ||
                                d.op == DerivationOp::kUnion;
  for (ClassId src : d.sources) {
    ClassSlot* src_slot = SlotUnlocked(src);
    src_slot->derived.push_back(id);
    if (subsumes_sources) src_slot->extent_ups.push_back(id);
  }
  const StructuralRow row{id, d.sources.empty() ? ClassId() : d.sources[0],
                          d.sources.size() < 2 ? ClassId() : d.sources[1]};
  auto insert_row = [&](std::vector<StructuralRow>* rows) {
    rows->insert(std::upper_bound(rows->begin(), rows->end(), id,
                                  [](ClassId v, const StructuralRow& r) {
                                    return v < r.id;
                                  }),
                 row);
  };
  if (d.op == DerivationOp::kSelect) {
    insert_row(&selects_by_predicate_[d.predicate.get()]);
  } else if (d.op == DerivationOp::kDifference) {
    insert_row(&differences_);
  } else if (d.op == DerivationOp::kIntersect) {
    insert_row(&intersects_);
  }
  by_name_[n.name] = id;
  table_[id.value()] = std::move(slot);
  ++class_count_;
  return Status::OK();
}

Status SchemaGraph::InstallPropertyUnlocked(PropertyDef def) {
  const PropertyDefId id = def.id;
  if (!id.valid() || id.value() >= kMaxIds) {
    return Status::InvalidArgument(StrCat(
        "property def ", id.ToString(), " is beyond the property table"));
  }
  if (id.value() >= props_.size()) props_.resize(id.value() + 1);
  props_[id.value()] = std::make_unique<PropertyDef>(std::move(def));
  return Status::OK();
}

void SchemaGraph::DropTypesUnlocked(ClassSlot* only) {
  std::unique_lock<std::shared_mutex> lock(memo_mu_);
  auto drop = [](ClassSlot* slot) {
    slot->type.store(nullptr, std::memory_order_relaxed);
    slot->type_owner.reset();
  };
  if (only != nullptr) {
    drop(only);
    return;
  }
  for (const auto& slot : table_) {
    if (slot) drop(slot.get());
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
  Status installed = InstallClassUnlocked(std::move(node));
  (void)installed;  // id 0 always fits
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
    TSE_RETURN_IF_ERROR(InstallPropertyUnlocked(std::move(def)));
  }
  // Seed the classified DAG from the declared base edges.
  for (ClassId sup : supers) {
    node.supers.insert(sup);
  }
  TSE_RETURN_IF_ERROR(InstallClassUnlocked(std::move(node)));
  for (ClassId sup : supers) {
    SlotUnlocked(sup)->node.subs.insert(id);
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
  TSE_RETURN_IF_ERROR(InstallClassUnlocked(std::move(node)));
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
  TSE_RETURN_IF_ERROR(InstallPropertyUnlocked(std::move(def)));
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
  DropTypesUnlocked(SlotUnlocked(cls));
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
  DropTypesUnlocked(nullptr);
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
  if (!SlotUnlocked(cls)->derived.empty()) {
    return Status::FailedPrecondition(
        StrCat("class ", node->name, " has derived classes"));
  }
  const Derivation& d = node->derivation;
  for (ClassId src : d.sources) {
    ClassSlot* src_slot = SlotUnlocked(src);
    std::erase(src_slot->derived, cls);
    std::erase(src_slot->extent_ups, cls);
  }
  auto erase_row = [&](std::vector<StructuralRow>* rows) {
    std::erase_if(*rows, [&](const StructuralRow& r) { return r.id == cls; });
  };
  if (d.op == DerivationOp::kSelect) {
    auto group = selects_by_predicate_.find(d.predicate.get());
    if (group != selects_by_predicate_.end()) {
      erase_row(&group->second);
      if (group->second.empty()) selects_by_predicate_.erase(group);
    }
  } else if (d.op == DerivationOp::kDifference) {
    erase_row(&differences_);
  } else if (d.op == DerivationOp::kIntersect) {
    erase_row(&intersects_);
  }
  // Drop property definitions whose storage lived at the removed class
  // (fresh refine attributes of a discarded duplicate).
  for (auto& def : props_) {
    if (def && def->definer == cls) def.reset();
  }
  by_name_.erase(node->name);
  table_[cls.value()].reset();
  --class_count_;
  // The extent memo keeps its entries: only an unreferenced virtual
  // class can be removed, and a removed class was at most a proof
  // *witness* for subsumptions between other classes — facts that
  // remain semantically true. Entries naming the removed class itself
  // can no longer be reached: ids are never reused, no proof walks into
  // a class that is gone from every index, and the public extent queries
  // answer a removed class without the memo. Scanning the memo here
  // instead would cost its whole size per discarded duplicate. The
  // class's type memo went with its row.
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
  const ClassSlot* slot = SlotUnlocked(id);
  if (slot == nullptr) {
    return Status::NotFound(StrCat("class id ", id.ToString()));
  }
  return &slot->node;
}

bool SchemaGraph::HasClass(ClassId id) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return SlotUnlocked(id) != nullptr;
}

size_t SchemaGraph::class_count() const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return class_count_;
}

Result<ClassNode*> SchemaGraph::GetMutable(ClassId id) {
  ClassSlot* slot = SlotUnlocked(id);
  if (slot == nullptr) {
    return Status::NotFound(StrCat("class id ", id.ToString()));
  }
  return &slot->node;
}

Result<const PropertyDef*> SchemaGraph::GetProperty(PropertyDefId id) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return GetPropertyUnlocked(id);
}

Result<const PropertyDef*> SchemaGraph::GetPropertyUnlocked(
    PropertyDefId id) const {
  if (id.value() >= props_.size() || !props_[id.value()]) {
    return Status::NotFound(StrCat("property def ", id.ToString()));
  }
  return props_[id.value()].get();
}

Status SchemaGraph::RenameProperty(PropertyDefId id,
                                   const std::string& new_name) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (id.value() >= props_.size() || !props_[id.value()]) {
    return Status::NotFound(StrCat("property def ", id.ToString()));
  }
  props_[id.value()]->name = new_name;
  // Renames can silently retarget by-name resolution in select
  // predicates: drop the type memo and floor every extent cache.
  DropTypesUnlocked(nullptr);
  BumpFloorAndGeneration();
  return Status::OK();
}

std::vector<ClassId> SchemaGraph::AllClasses() const {
  return ClassesFrom(ClassId(0));
}

std::vector<ClassId> SchemaGraph::ClassesFrom(ClassId first) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  std::vector<ClassId> out;
  out.reserve(class_count_);
  for (uint64_t raw = first.value(); raw < table_.size(); ++raw) {
    if (table_[raw]) out.push_back(ClassId(raw));
  }
  return out;
}

std::vector<ClassId> SchemaGraph::DerivedFrom(ClassId cls) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  const ClassSlot* slot = SlotUnlocked(cls);
  return slot == nullptr ? std::vector<ClassId>{} : slot->derived;
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
  const ClassSlot* slot = SlotUnlocked(cls);
  if (slot == nullptr) {
    return Status::NotFound(StrCat("class id ", cls.ToString()));
  }
  if (const TypeSet* hit = slot->type.load(std::memory_order_acquire)) {
    return hit;
  }
  std::unique_lock<std::shared_mutex> lock(memo_mu_);
  TypeSet out;
  std::set<ClassId> in_progress;
  TSE_RETURN_IF_ERROR(ComputeType(cls, &out, &in_progress));
  // A successful ComputeType always leaves `cls` in the memo.
  return slot->type.load(std::memory_order_relaxed);
}

Status SchemaGraph::ComputeType(ClassId cls, TypeSet* out,
                                std::set<ClassId>* in_progress) const {
  ClassSlot* slot = SlotUnlocked(cls);
  if (slot == nullptr) {
    return Status::NotFound(StrCat("class id ", cls.ToString()));
  }
  if (const TypeSet* hit = slot->type.load(std::memory_order_relaxed)) {
    *out = *hit;
    return Status::OK();
  }
  const ClassNode* node = &slot->node;
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
    slot->type_owner = std::make_unique<const TypeSet>(*out);
    slot->type.store(slot->type_owner.get(), std::memory_order_release);
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

bool SchemaGraph::ExtentSubsumedBy(ClassId a, ClassId b) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (a != b && !BothPresentLocked(a, b)) return false;
  return ExtentSubsumedByLocked(a, b);
}

bool SchemaGraph::ExtentEquivalent(ClassId a, ClassId b) const {
  return ReadHold(*this).ExtentEquivalent(a, b);
}

bool SchemaGraph::BothPresentLocked(ClassId a, ClassId b) const {
  // Guards the memo's stale entries for removed classes (RemoveClass).
  // The answer is what a proof would give: a missing class has no
  // derivation to prove from, and none leads to it.
  return SlotUnlocked(a) != nullptr && SlotUnlocked(b) != nullptr;
}

bool SchemaGraph::ExtentSubsumedByLocked(ClassId a, ClassId b) const {
  {
    std::shared_lock<std::shared_mutex> lock(memo_mu_);
    const int hit = extent_memo_.Find(a, b);
    if (hit >= 0) {
      TSE_COUNT("schema.subsume.memo_hits");
      return hit != 0;
    }
  }
  std::unique_lock<std::shared_mutex> lock(memo_mu_);
  const int hit = extent_memo_.Find(a, b);
  if (hit >= 0) {
    TSE_COUNT("schema.subsume.memo_hits");
    return hit != 0;
  }
  TSE_COUNT("schema.subsume.proofs");
  bool tainted = false;
  bool result = ExtentSubsumedByImpl(a, b, &tainted);
  // At top level no class is on the proof stack, so even a guard-pruned
  // (tainted) negative answer is the query's definitive answer.
  extent_memo_.Insert(a, b, result);
  return result;
}

bool SchemaGraph::ExtentSubsumedByImpl(ClassId a, ClassId b,
                                       bool* tainted) const {
  if (a == b) return true;
  const int hit = extent_memo_.Find(a, b);
  if (hit >= 0) return hit != 0;
  const ClassSlot* slot = SlotUnlocked(a);
  if (slot == nullptr) return false;
  uint8_t& on_stack = in_progress_[a.value()];
  if (on_stack) {
    *tainted = true;  // pruned by the cycle guard: path-dependent answer
    return false;
  }
  on_stack = 1;
  bool local_tainted = false;
  const Derivation& da = slot->node.derivation;
  bool result = false;
  if (da.op == DerivationOp::kUnion) {
    // union(A,B) ⊆ b  iff  A ⊆ b and B ⊆ b.
    result = ExtentSubsumedByImpl(da.sources[0], b, &local_tainted) &&
             ExtentSubsumedByImpl(da.sources[1], b, &local_tainted);
  }
  if (!result) {
    for (ClassId up : slot->extent_ups) {
      if (ExtentSubsumedByImpl(up, b, &local_tainted)) {
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
    // Candidates are tried in id order; a select with another predicate
    // fails its premise before any recursion, so scanning only the
    // predicate's group explores exactly what scanning every select
    // would.
    const std::vector<StructuralRow>* rows = nullptr;
    if (da.op == DerivationOp::kSelect) {
      auto group = selects_by_predicate_.find(da.predicate.get());
      if (group != selects_by_predicate_.end()) rows = &group->second;
    } else if (da.op == DerivationOp::kDifference) {
      rows = &differences_;
    } else if (da.op == DerivationOp::kIntersect) {
      rows = &intersects_;
    }
    for (size_t i = 0; rows != nullptr && i < rows->size(); ++i) {
      const StructuralRow c = (*rows)[i];
      if (c.id == a) continue;
      bool premise = false;
      switch (da.op) {
        case DerivationOp::kSelect:
          premise = ExtentSubsumedByImpl(da.sources[0], c.src0,
                                         &local_tainted);
          break;
        case DerivationOp::kDifference:
          premise =
              ExtentSubsumedByImpl(da.sources[0], c.src0, &local_tainted) &&
              ExtentSubsumedByImpl(c.src1, da.sources[1], &local_tainted);
          break;
        case DerivationOp::kIntersect:
          premise =
              ExtentSubsumedByImpl(da.sources[0], c.src0, &local_tainted) &&
              ExtentSubsumedByImpl(da.sources[1], c.src1, &local_tainted);
          break;
        default:
          break;
      }
      if (premise &&
          (c.id == b || ExtentSubsumedByImpl(c.id, b, &local_tainted))) {
        result = true;
        break;
      }
    }
  }
  on_stack = 0;
  // Memoize: positives always; negatives only when no cycle guard
  // pruned the exploration (a tainted negative could become positive on
  // a different call path).
  if (result || !local_tainted) extent_memo_.Insert(a, b, result);
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
  if (!ta.ok() || !tb.ok()) return false;
  return ta.value()->CoversNamesOf(*tb.value()) &&
         ExtentSubsumedByLocked(a, b);
}

const ClassNode* SchemaGraph::ReadHold::Find(ClassId cls) const {
  const ClassSlot* slot = graph_.SlotUnlocked(cls);
  return slot == nullptr ? nullptr : &slot->node;
}

bool SchemaGraph::ReadHold::ExtentEquivalent(ClassId a, ClassId b) const {
  if (a != b && !graph_.BothPresentLocked(a, b)) return false;
  return graph_.ExtentEquivalentLocked(a, b);
}

std::vector<ClassId> SchemaGraph::ReadHold::Reach(ClassId from,
                                                  bool down) const {
  stamps_.resize(id_bound(), 0);
  ++stamp_;
  std::vector<ClassId> out{from};
  for (size_t i = 0; i < out.size(); ++i) {
    const ClassNode* node = Find(out[i]);
    if (node == nullptr) continue;
    stamps_[out[i].value()] = stamp_;
    for (ClassId c : down ? node->subs : node->supers) {
      if (stamps_[c.value()] != stamp_) out.push_back(c);
      stamps_[c.value()] = stamp_;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SchemaGraph::IsDuplicateOf(ClassId a, ClassId b) const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  return IsDuplicateOfLocked(a, b);
}

bool SchemaGraph::IsDuplicateOfLocked(ClassId a, ClassId b) const {
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
  const ReadHold graph(*this);
  TSE_RETURN_IF_ERROR(GetClassUnlocked(cls).status());
  const std::vector<ClassId> up = graph.Reach(cls, /*down=*/false);
  return std::set<ClassId>(up.begin(), up.end());
}

Result<std::set<ClassId>> SchemaGraph::TransitiveSubs(ClassId cls) const {
  const ReadHold graph(*this);
  TSE_RETURN_IF_ERROR(GetClassUnlocked(cls).status());
  const std::vector<ClassId> down = graph.Reach(cls, /*down=*/true);
  return std::set<ClassId>(down.begin(), down.end());
}

Status SchemaGraph::RestoreProperty(PropertyDef def) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (!def.id.valid() || GetPropertyUnlocked(def.id).ok()) {
    return Status::InvalidArgument(
        StrCat("cannot restore property ", def.id.ToString()));
  }
  const PropertyDefId id = def.id;
  TSE_RETURN_IF_ERROR(InstallPropertyUnlocked(std::move(def)));
  prop_alloc_.BumpPast(id);
  return Status::OK();
}

Status SchemaGraph::RestoreClass(ClassNode node) {
  std::unique_lock<std::shared_mutex> graph_lock(graph_mu_);
  if (!node.id.valid() || SlotUnlocked(node.id) != nullptr) {
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
  const std::vector<ClassId> supers(node.supers.begin(), node.supers.end());
  TSE_RETURN_IF_ERROR(InstallClassUnlocked(std::move(node)));
  class_alloc_.BumpPast(id);
  for (ClassId sup : supers) {
    SlotUnlocked(sup)->node.subs.insert(id);
  }
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
  for (const auto& def : props_) {
    if (def) out.push_back(def.get());
  }
  return out;
}

std::string SchemaGraph::ToDot() const {
  std::shared_lock<std::shared_mutex> graph_lock(graph_mu_);
  std::string out = "digraph schema {\n";
  for (const auto& slot : table_) {
    if (!slot) continue;
    const ClassNode& node = slot->node;
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
