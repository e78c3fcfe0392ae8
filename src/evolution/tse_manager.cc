#include "evolution/tse_manager.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tse::evolution {

using schema::ClassNode;
using schema::Derivation;
using schema::DerivationOp;
using schema::PropertyDef;
using schema::PropertyKind;
using schema::PropertySpec;
using schema::TypeSet;
using view::ViewClassSpec;
using view::ViewSchema;

// --- Small helpers -----------------------------------------------------------

std::string TseManager::PrimedName(const std::string& base) const {
  std::string name = base + "'";
  while (schema_->FindClass(name).ok()) name += "'";
  return name;
}

std::vector<ClassId> TseManager::ViewSubclasses(const ViewSchema& vs,
                                                ClassId cls) const {
  std::vector<ClassId> out;
  std::set<ClassId> seen{cls};
  std::deque<ClassId> queue{cls};
  while (!queue.empty()) {
    ClassId cur = queue.front();
    queue.pop_front();
    for (ClassId sub : vs.DirectSubs(cur)) {
      if (seen.insert(sub).second) {
        out.push_back(sub);
        queue.push_back(sub);
      }
    }
  }
  return out;
}

std::vector<ClassId> TseManager::ViewSuperclasses(const ViewSchema& vs,
                                                  ClassId cls) const {
  std::vector<ClassId> out;
  std::set<ClassId> seen{cls};
  std::deque<ClassId> queue{cls};
  while (!queue.empty()) {
    ClassId cur = queue.front();
    queue.pop_front();
    for (ClassId sup : vs.DirectSupers(cur)) {
      if (seen.insert(sup).second) {
        out.push_back(sup);
        queue.push_back(sup);
      }
    }
  }
  return out;
}

std::set<ClassId> TseManager::ViewUpReachableWithoutEdge(
    const ViewSchema& vs, ClassId from, ClassId edge_sub,
    ClassId edge_sup) const {
  std::set<ClassId> out;
  std::deque<ClassId> queue{from};
  while (!queue.empty()) {
    ClassId cur = queue.front();
    queue.pop_front();
    if (!out.insert(cur).second) continue;
    for (ClassId sup : vs.DirectSupers(cur)) {
      if (cur == edge_sub && sup == edge_sup) continue;  // deleted edge
      queue.push_back(sup);
    }
  }
  return out;
}

Result<ClassId> TseManager::DefineAndClassify(const std::string& name,
                                              Derivation derivation) {
  TSE_COUNT("evolution.virtual_classes.defined");
  TSE_ASSIGN_OR_RETURN(ClassId cls,
                       schema_->AddVirtualClass(name, std::move(derivation)));
  return Classify(cls);
}

Result<ClassId> TseManager::DefineRefineAndClassify(
    const std::string& name, ClassId source,
    const std::vector<PropertySpec>& new_props,
    const std::vector<PropertyDefId>& imported) {
  TSE_COUNT("evolution.virtual_classes.defined");
  TSE_ASSIGN_OR_RETURN(
      ClassId cls, schema_->AddRefineClass(name, source, new_props, imported));
  return Classify(cls);
}

Result<ClassId> TseManager::Classify(ClassId cls) {
  TSE_LATENCY_US("evolution.classify.us");
  TSE_ASSIGN_OR_RETURN(classifier::ClassifyResult r, classifier_.Classify(cls));
  return r.cls;
}

Result<ViewId> TseManager::Regenerate(
    const std::string& logical_name, const std::vector<ViewClassSpec>& specs) {
  TSE_LATENCY_US("evolution.regenerate.us");
  return views_->CreateVersionClosed(logical_name, specs);
}

// --- Public API -----------------------------------------------------------

Result<ViewId> TseManager::CreateView(
    const std::string& logical_name,
    const std::vector<ViewClassSpec>& classes) {
  return views_->CreateVersionClosed(logical_name, classes);
}

Result<ViewId> TseManager::ApplyChange(ViewId view_id,
                                       const SchemaChange& change) {
  // The root span/latency of one schema-change request; macro
  // expansions recurse through here and show up as nested spans.
  TSE_TRACE_SPAN("evolution.apply_change");
  TSE_LATENCY_US("evolution.apply_change.us");
  TSE_COUNT("evolution.apply_change.requests");
  Result<ViewId> result = ApplyChangeImpl(view_id, change);
  if (!result.ok()) TSE_COUNT("evolution.apply_change.rejected");
  return result;
}

Result<ViewId> TseManager::ApplyChangeImpl(ViewId view_id,
                                           const SchemaChange& change) {
  TSE_ASSIGN_OR_RETURN(const ViewSchema* vs, views_->GetView(view_id));

  // Macros expand into primitive scripts (Section 6.9).
  if (const auto* insert = std::get_if<InsertClass>(&change)) {
    return ApplyInsertClass(view_id, *insert);
  }
  if (const auto* del2 = std::get_if<DeleteClass2>(&change)) {
    return ApplyDeleteClass2(view_id, *del2);
  }
  // rename_class touches only the view's display names; no virtual
  // classes are created and the global schema is untouched (Section 7).
  if (const auto* rename = std::get_if<RenameClass>(&change)) {
    TSE_ASSIGN_OR_RETURN(ClassId target, vs->Resolve(rename->old_name));
    if (vs->Resolve(rename->new_name).ok()) {
      return Status::AlreadyExists(
          StrCat("a class named ", rename->new_name,
                 " already exists in the view"));
    }
    std::vector<ViewClassSpec> specs;
    for (ClassId cls : vs->classes()) {
      TSE_ASSIGN_OR_RETURN(std::string display, vs->DisplayName(cls));
      specs.push_back(
          ViewClassSpec{cls, cls == target ? rename->new_name : display});
    }
    return Regenerate(vs->logical_name(), specs);
  }

  TSE_ASSIGN_OR_RETURN(Translation translation, Translate(*vs, change));
  return EmitView(*vs, translation);
}

Result<TseManager::Translation> TseManager::Translate(
    const ViewSchema& vs, const SchemaChange& change) {
  TSE_TRACE_SPAN("evolution.translate");
  TSE_LATENCY_US("evolution.translate.us");
  if (const auto* add_attr = std::get_if<AddAttribute>(&change)) {
    if (add_attr->spec.kind != PropertyKind::kStoredAttribute) {
      return Status::InvalidArgument("add_attribute expects an attribute");
    }
    return TranslateAddProperty(vs, add_attr->class_name, add_attr->spec);
  }
  if (const auto* add_method = std::get_if<AddMethod>(&change)) {
    if (add_method->spec.kind != PropertyKind::kMethod) {
      return Status::InvalidArgument("add_method expects a method");
    }
    return TranslateAddProperty(vs, add_method->class_name, add_method->spec);
  }
  if (const auto* del_attr = std::get_if<DeleteAttribute>(&change)) {
    return TranslateDeleteProperty(vs, del_attr->class_name,
                                   del_attr->attr_name,
                                   PropertyKind::kStoredAttribute);
  }
  if (const auto* del_method = std::get_if<DeleteMethod>(&change)) {
    return TranslateDeleteProperty(vs, del_method->class_name,
                                   del_method->method_name,
                                   PropertyKind::kMethod);
  }
  if (const auto* add_edge = std::get_if<AddEdge>(&change)) {
    return TranslateAddEdge(vs, *add_edge);
  }
  if (const auto* del_edge = std::get_if<DeleteEdge>(&change)) {
    return TranslateDeleteEdge(vs, *del_edge);
  }
  if (const auto* add_class = std::get_if<AddClass>(&change)) {
    return TranslateAddClass(vs, *add_class);
  }
  if (const auto* del_class = std::get_if<DeleteClass>(&change)) {
    return TranslateDeleteClass(vs, *del_class);
  }
  return Status::Unimplemented("unknown schema change operator");
}

Result<ViewId> TseManager::ApplyScript(ViewId view_id,
                                       const std::vector<SchemaChange>& script) {
  ViewId current = view_id;
  for (const SchemaChange& change : script) {
    TSE_ASSIGN_OR_RETURN(current, ApplyChange(current, change));
  }
  return current;
}

Result<ViewId> TseManager::EmitView(const ViewSchema& vs,
                                    const Translation& translation) {
  std::vector<ViewClassSpec> specs;
  for (ClassId cls : vs.classes()) {
    if (translation.removals.count(cls)) continue;
    ClassId target = cls;
    auto sub = translation.substitutions.find(cls);
    if (sub != translation.substitutions.end()) target = sub->second;
    TSE_ASSIGN_OR_RETURN(std::string display, vs.DisplayName(cls));
    specs.push_back(ViewClassSpec{target, display});
  }
  for (const auto& [cls, name] : translation.additions) {
    specs.push_back(ViewClassSpec{cls, name});
  }
  return Regenerate(vs.logical_name(), specs);
}

// --- add_attribute / add_method (Sections 6.1, 6.3) --------------------------

Result<TseManager::Translation> TseManager::TranslateAddProperty(
    const ViewSchema& vs, const std::string& class_name,
    const PropertySpec& spec) {
  TSE_ASSIGN_OR_RETURN(ClassId c, vs.Resolve(class_name));
  TSE_ASSIGN_OR_RETURN(TypeSet c_type, schema_->EffectiveType(c));
  if (c_type.ContainsName(spec.name)) {
    return Status::Rejected(StrCat("property '", spec.name,
                                   "' already exists in class ", class_name));
  }

  Translation t;
  // defineVC C' as (refine x: def for C) — fresh storage at C'.
  TSE_ASSIGN_OR_RETURN(
      ClassId c_prime,
      DefineRefineAndClassify(PrimedName(class_name), c, {spec}, {}));
  t.substitutions[c] = c_prime;
  TSE_ASSIGN_OR_RETURN(TypeSet prime_type, schema_->EffectiveType(c_prime));
  TSE_ASSIGN_OR_RETURN(PropertyDefId def, prime_type.Lookup(spec.name));

  // Propagate down the view subclasses; a locally defined same-named
  // property stops propagation below that class (override).
  std::set<ClassId> blocked;
  std::deque<ClassId> queue{c};
  std::set<ClassId> visited{c};
  while (!queue.empty()) {
    ClassId cur = queue.front();
    queue.pop_front();
    for (ClassId sub : vs.DirectSubs(cur)) {
      if (!visited.insert(sub).second) continue;
      TSE_ASSIGN_OR_RETURN(TypeSet sub_type, schema_->EffectiveType(sub));
      if (sub_type.ContainsName(spec.name)) {
        blocked.insert(sub);
        continue;  // overriding property: stop propagation here
      }
      // defineVC Csub' as (refine C':x for Csub) — shared definition.
      TSE_ASSIGN_OR_RETURN(std::string display, vs.DisplayName(sub));
      TSE_ASSIGN_OR_RETURN(
          ClassId sub_prime,
          DefineRefineAndClassify(PrimedName(display), sub, {}, {def}));
      t.substitutions[sub] = sub_prime;
      queue.push_back(sub);
    }
  }
  return t;
}

// --- delete_attribute / delete_method (Sections 6.2, 6.4) --------------------

Result<TseManager::Translation> TseManager::TranslateDeleteProperty(
    const ViewSchema& vs, const std::string& class_name,
    const std::string& prop_name, PropertyKind kind) {
  TSE_ASSIGN_OR_RETURN(ClassId c, vs.Resolve(class_name));
  TSE_ASSIGN_OR_RETURN(TypeSet c_type, schema_->EffectiveType(c));
  if (!c_type.ContainsName(prop_name)) {
    return Status::NotFound(StrCat("class ", class_name, " has no property '",
                                   prop_name, "'"));
  }
  TSE_ASSIGN_OR_RETURN(PropertyDefId def, c_type.Lookup(prop_name));
  TSE_ASSIGN_OR_RETURN(const PropertyDef* prop, schema_->GetProperty(def));
  if ((kind == PropertyKind::kStoredAttribute && !prop->is_attribute()) ||
      (kind == PropertyKind::kMethod && !prop->is_method())) {
    return Status::InvalidArgument(
        StrCat("property '", prop_name, "' is not a ",
               kind == PropertyKind::kMethod ? "method" : "stored attribute"));
  }

  // "Local in terms of the view": C must be the uppermost class in the
  // view carrying this property (Section 6.2.1).
  for (ClassId sup : ViewSuperclasses(vs, c)) {
    TSE_ASSIGN_OR_RETURN(TypeSet sup_type, schema_->EffectiveType(sup));
    if (sup_type.Contains(prop_name, def)) {
      TSE_ASSIGN_OR_RETURN(std::string sup_name, vs.DisplayName(sup));
      return Status::Rejected(
          StrCat("property '", prop_name, "' is inherited from ", sup_name,
                 " within the view; delete it there (full inheritance "
                 "invariant)"));
    }
  }

  // Was this property overriding an inherited, suppressed, same-named
  // definition? Look one level up through the view hierarchy.
  std::optional<PropertyDefId> suppressed;
  for (ClassId sup : ViewSuperclasses(vs, c)) {
    TSE_ASSIGN_OR_RETURN(TypeSet sup_type, schema_->EffectiveType(sup));
    for (PropertyDefId other : sup_type.AllOf(prop_name)) {
      if (other != def) {
        suppressed = other;
        break;
      }
    }
    if (suppressed) break;
  }

  Translation t;
  // Hide the property from C and every view subclass that carries this
  // same definition (a subclass with its own overriding definition
  // keeps it).
  std::vector<ClassId> targets{c};
  for (ClassId sub : ViewSubclasses(vs, c)) {
    TSE_ASSIGN_OR_RETURN(TypeSet sub_type, schema_->EffectiveType(sub));
    if (sub_type.Contains(prop_name, def)) targets.push_back(sub);
  }
  for (ClassId target : targets) {
    TSE_ASSIGN_OR_RETURN(std::string display, vs.DisplayName(target));
    Derivation hide;
    hide.op = DerivationOp::kHide;
    hide.sources = {target};
    hide.hidden = {prop_name};
    TSE_ASSIGN_OR_RETURN(ClassId hidden,
                         DefineAndClassify(PrimedName(display), hide));
    if (suppressed) {
      // Restore the suppressed property: refine the hide class with the
      // inherited definition (Section 6.2.2's second loop).
      TSE_ASSIGN_OR_RETURN(
          ClassId restored,
          DefineRefineAndClassify(PrimedName(display), hidden, {},
                                  {*suppressed}));
      t.substitutions[target] = restored;
    } else {
      t.substitutions[target] = hidden;
    }
  }
  return t;
}

// --- add_edge (Section 6.5) ----------------------------------------------------

Result<TseManager::Translation> TseManager::TranslateAddEdge(
    const ViewSchema& vs, const AddEdge& change) {
  TSE_ASSIGN_OR_RETURN(ClassId csup, vs.Resolve(change.super_name));
  TSE_ASSIGN_OR_RETURN(ClassId csub, vs.Resolve(change.sub_name));
  if (csup == csub) {
    return Status::InvalidArgument("add_edge endpoints must differ");
  }
  if (schema_->ExtentSubsumedBy(csub, csup)) {
    TSE_ASSIGN_OR_RETURN(TypeSet sub_type, schema_->EffectiveType(csub));
    TSE_ASSIGN_OR_RETURN(TypeSet sup_type, schema_->EffectiveType(csup));
    if (sub_type.CoversNamesOf(sup_type)) {
      return Status::Rejected(
          StrCat(change.sub_name, " is already a subclass of ",
                 change.super_name));
    }
  }
  if (schema_->ExtentSubsumedBy(csup, csub)) {
    return Status::Rejected(
        StrCat("adding edge would create a cycle: ", change.super_name,
               " is below ", change.sub_name));
  }

  Translation t;
  // (1) Refine Csub and its view subclasses with Csup's properties
  //     (existing same-named properties override — not imported).
  TSE_ASSIGN_OR_RETURN(TypeSet sup_type, schema_->EffectiveType(csup));
  std::vector<ClassId> subtree{csub};
  for (ClassId w : ViewSubclasses(vs, csub)) subtree.push_back(w);
  for (ClassId w : subtree) {
    TSE_ASSIGN_OR_RETURN(TypeSet w_type, schema_->EffectiveType(w));
    std::vector<PropertyDefId> imported;
    for (const auto& [name, defs] : sup_type.bindings()) {
      if (w_type.ContainsName(name)) continue;  // overriding
      for (PropertyDefId def : defs) imported.push_back(def);
    }
    TSE_ASSIGN_OR_RETURN(std::string display, vs.DisplayName(w));
    TSE_ASSIGN_OR_RETURN(
        ClassId w_prime,
        DefineRefineAndClassify(PrimedName(display), w, {}, imported));
    if (w_prime != w) t.substitutions[w] = w_prime;
  }
  ClassId csub_prime =
      t.substitutions.count(csub) ? t.substitutions[csub] : csub;

  // (2) Add Csub's extent to Csup and its view superclasses that do not
  //     already contain it.
  std::vector<ClassId> uppers{csup};
  for (ClassId v : ViewSuperclasses(vs, csup)) uppers.push_back(v);
  for (ClassId v : uppers) {
    if (schema_->ExtentSubsumedBy(csub, v)) continue;  // already inside
    TSE_ASSIGN_OR_RETURN(std::string display, vs.DisplayName(v));
    Derivation uni;
    uni.op = DerivationOp::kUnion;
    uni.sources = {v, csub_prime};
    TSE_ASSIGN_OR_RETURN(ClassId v_prime,
                         DefineAndClassify(PrimedName(display), uni));
    if (v_prime != v) {
      // Create/add through the union propagate to the substituted
      // source class (Section 6.5.4).
      if (v_prime != csub_prime) {
        Status s = schema_->SetUnionCreateTarget(v_prime, v);
        (void)s;  // v_prime may be a pre-existing duplicate union
      }
      t.substitutions[v] = v_prime;
    }
  }
  return t;
}

// --- delete_edge (Section 6.6) ---------------------------------------------------

Result<TseManager::Translation> TseManager::TranslateDeleteEdge(
    const ViewSchema& vs, const DeleteEdge& change) {
  TSE_ASSIGN_OR_RETURN(ClassId csup, vs.Resolve(change.super_name));
  TSE_ASSIGN_OR_RETURN(ClassId csub, vs.Resolve(change.sub_name));
  // The edge must exist in the view.
  std::vector<ClassId> direct_sups = vs.DirectSupers(csub);
  if (std::find(direct_sups.begin(), direct_sups.end(), csup) ==
      direct_sups.end()) {
    return Status::NotFound(StrCat("no is-a edge ", change.super_name, "-",
                                   change.sub_name, " in the view"));
  }

  // Resolve the reconnect target: connected_to Cupper (must be a view
  // superclass of Csup), or the system root.
  ClassId cupper = schema_->root();
  if (change.connected_to) {
    TSE_ASSIGN_OR_RETURN(cupper, vs.Resolve(*change.connected_to));
    std::vector<ClassId> sup_ups = ViewSuperclasses(vs, csup);
    if (std::find(sup_ups.begin(), sup_ups.end(), cupper) == sup_ups.end()) {
      return Status::InvalidArgument(
          StrCat(*change.connected_to, " is not a superclass of ",
                 change.super_name, " in the view"));
    }
  }
  TSE_ASSIGN_OR_RETURN(TypeSet cupper_type, schema_->EffectiveType(cupper));

  // Classes that keep Csub's extent because of the reconnect edge:
  // Cupper and everything above it.
  std::set<ClassId> kept_by_reconnect;
  if (change.connected_to) {
    kept_by_reconnect.insert(cupper);
    for (ClassId up : ViewSuperclasses(vs, cupper)) {
      kept_by_reconnect.insert(up);
    }
  }

  Translation t;

  // (1) Superclass side: for all view superclasses v of Csup (including
  //     Csup) that do not still see Csub through other paths, shrink the
  //     extent: v' = union(difference(v, Csub), union(commonSub...)).
  std::vector<ClassId> uppers{csup};
  for (ClassId v : ViewSuperclasses(vs, csup)) uppers.push_back(v);
  for (ClassId v : uppers) {
    if (kept_by_reconnect.count(v)) continue;
    // Does v still see Csub without the edge (another path)?
    std::set<ClassId> reach =
        ViewUpReachableWithoutEdge(vs, csub, csub, csup);
    if (reach.count(v)) continue;

    // commonSub(v, Csub) generalized: every view class that stays below
    // v without the edge contributes its (still-visible) extent back —
    // the paper's common subclasses of v and Csub (Figure 11), plus
    // sibling subtrees of v, so the new class provably subsumes them.
    // Ancestors of Csub through the edge are excluded: their extents
    // intensionally still contain Csub and are being shrunk themselves.
    std::set<ClassId> csub_ancestors{csub};
    for (ClassId up : ViewSuperclasses(vs, csub)) csub_ancestors.insert(up);
    std::vector<ClassId> common;
    for (ClassId c : vs.classes()) {
      if (c == v || csub_ancestors.count(c)) continue;
      std::set<ClassId> c_reach = ViewUpReachableWithoutEdge(vs, c, csub, csup);
      if (!c_reach.count(v)) continue;  // not under v without the edge
      common.push_back(c);
    }
    // Keep only maximal elements.
    std::vector<ClassId> maximal;
    for (ClassId c : common) {
      bool is_maximal = true;
      for (ClassId other : common) {
        if (other == c) continue;
        if (schema_->ExtentSubsumedBy(c, other)) {
          is_maximal = false;
          break;
        }
      }
      if (is_maximal) maximal.push_back(c);
    }

    TSE_ASSIGN_OR_RETURN(std::string display, vs.DisplayName(v));
    Derivation diff;
    diff.op = DerivationOp::kDifference;
    diff.sources = {v, csub};
    TSE_ASSIGN_OR_RETURN(ClassId reduced,
                         DefineAndClassify(PrimedName(display), diff));
    // Fold the still-visible common subclasses back in.
    for (ClassId x : maximal) {
      Derivation uni;
      uni.op = DerivationOp::kUnion;
      uni.sources = {reduced, x};
      TSE_ASSIGN_OR_RETURN(ClassId widened,
                           DefineAndClassify(PrimedName(display), uni));
      if (widened != reduced && schema_->GetClass(widened).ok()) {
        Status s = schema_->SetUnionCreateTarget(widened, reduced);
        (void)s;
      }
      reduced = widened;
    }
    if (reduced != v) t.substitutions[v] = reduced;
  }

  // (2) Subclass side: hide from Csub and its view subclasses every
  //     property inherited solely through the deleted edge (the
  //     findProperties macro). A property survives at w iff it still
  //     flows to w in the view hierarchy with the edge removed (and the
  //     reconnect edge Csub -> Cupper added). We compute each class's
  //     own *contribution* — the bindings it does not receive from its
  //     view parents — and re-propagate contributions over the modified
  //     hierarchy.
  std::map<ClassId, TypeSet> types;
  for (ClassId c : vs.classes()) {
    TSE_ASSIGN_OR_RETURN(TypeSet t, schema_->EffectiveType(c));
    types[c] = std::move(t);
  }
  std::map<ClassId, TypeSet> contribution;
  for (ClassId c : vs.classes()) {
    TypeSet own;
    for (const auto& [name, defs] : types[c].bindings()) {
      for (PropertyDefId def : defs) {
        bool from_parent = false;
        for (ClassId sup : vs.DirectSupers(c)) {
          if (types[sup].Contains(name, def)) {
            from_parent = true;
            break;
          }
        }
        if (!from_parent) own.Add(name, def);
      }
    }
    contribution[c] = std::move(own);
  }
  // would_be(c): fixpoint over the modified hierarchy.
  std::map<ClassId, TypeSet> would_be;
  std::function<const TypeSet&(ClassId)> WouldBe =
      [&](ClassId c) -> const TypeSet& {
    auto hit = would_be.find(c);
    if (hit != would_be.end()) return hit->second;
    TypeSet t = contribution[c];
    for (ClassId sup : vs.DirectSupers(c)) {
      if (c == csub && sup == csup) continue;  // the deleted edge
      t.MergeFrom(WouldBe(sup));
    }
    if (c == csub && change.connected_to) {
      t.MergeFrom(WouldBe(cupper));  // the reconnect edge
    }
    return would_be.emplace(c, std::move(t)).first->second;
  };

  std::vector<ClassId> subtree{csub};
  for (ClassId w : ViewSubclasses(vs, csub)) subtree.push_back(w);
  for (ClassId w : subtree) {
    const TypeSet& kept = WouldBe(w);
    std::vector<std::string> to_hide;
    for (const auto& [name, defs] : types[w].bindings()) {
      bool all_lost = true;
      for (PropertyDefId def : defs) {
        if (kept.Contains(name, def)) {
          all_lost = false;
          break;
        }
      }
      // hide removes by name; only hide when every binding of the name
      // is lost (partial losses under MI ambiguity are kept — rare and
      // conservative).
      if (all_lost) to_hide.push_back(name);
    }
    if (to_hide.empty()) continue;
    TSE_ASSIGN_OR_RETURN(std::string display, vs.DisplayName(w));
    Derivation hide;
    hide.op = DerivationOp::kHide;
    hide.sources = {w};
    hide.hidden = to_hide;
    TSE_ASSIGN_OR_RETURN(ClassId w_prime,
                         DefineAndClassify(PrimedName(display), hide));
    if (w_prime != w) t.substitutions[w] = w_prime;
  }
  return t;
}

// --- add_class (Section 6.7) ------------------------------------------------------

Result<ClassId> TseManager::CloneDerivation(ClassId cls,
                                            std::map<ClassId, ClassId>* mapping,
                                            const std::string& name_hint,
                                            int* counter) {
  auto hit = mapping->find(cls);
  if (hit != mapping->end()) return hit->second;
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, schema_->GetClass(cls));
  if (node->is_base()) {
    // Lazily materialize the fresh Cx base class beneath this origin
    // (Figure 13 (e)'s per-origin construction).
    ++*counter;
    std::string cx_name = StrCat(name_hint, "$base", *counter);
    while (schema_->FindClass(cx_name).ok()) cx_name += "'";
    TSE_ASSIGN_OR_RETURN(ClassId cx,
                         schema_->AddBaseClass(cx_name, {cls}, {}));
    (*mapping)[cls] = cx;
    return cx;
  }
  std::vector<ClassId> cloned_sources;
  size_t index = 0;
  for (ClassId src : node->derivation.sources) {
    // The subtrahend of a difference is a *negative* occurrence: the
    // clone must subtract the original class in full, or the result
    // could exceed the original's extent (and would no longer classify
    // beneath it).
    bool negative =
        node->derivation.op == DerivationOp::kDifference && index == 1;
    if (negative) {
      cloned_sources.push_back(src);
    } else {
      TSE_ASSIGN_OR_RETURN(ClassId c,
                           CloneDerivation(src, mapping, name_hint, counter));
      cloned_sources.push_back(c);
    }
    ++index;
  }
  ++*counter;
  std::string name = StrCat(name_hint, "$", *counter);
  ClassId clone;
  if (node->derivation.op == DerivationOp::kRefine) {
    // Imports share the original definitions (storage identity), so the
    // clone's objects carry the same refining attributes.
    TSE_ASSIGN_OR_RETURN(clone,
                         DefineRefineAndClassify(name, cloned_sources[0], {},
                                                 node->derivation.added));
  } else {
    Derivation d;
    d.op = node->derivation.op;
    d.sources = cloned_sources;
    d.predicate = node->derivation.predicate;
    d.hidden = node->derivation.hidden;
    TSE_ASSIGN_OR_RETURN(clone, DefineAndClassify(name, std::move(d)));
  }
  (*mapping)[cls] = clone;
  return clone;
}

Result<TseManager::Translation> TseManager::TranslateAddClass(
    const ViewSchema& vs, const AddClass& change) {
  if (vs.Resolve(change.new_class_name).ok()) {
    return Status::AlreadyExists(StrCat("class ", change.new_class_name,
                                        " already in the view"));
  }
  ClassId csup = schema_->root();
  if (change.connected_to) {
    TSE_ASSIGN_OR_RETURN(csup, vs.Resolve(*change.connected_to));
  }
  TSE_ASSIGN_OR_RETURN(const ClassNode* sup_node, schema_->GetClass(csup));

  Translation t;
  std::string global_name = change.new_class_name;
  while (schema_->FindClass(global_name).ok()) global_name += "'";

  if (sup_node->is_base()) {
    // Simple case: a fresh base leaf class under Csup.
    TSE_ASSIGN_OR_RETURN(ClassId cadd,
                         schema_->AddBaseClass(global_name, {csup}, {}));
    t.additions.emplace_back(cadd, change.new_class_name);
    return t;
  }

  // Virtual superclass: create one fresh base class under each origin
  // base class reached through positive derivation positions, then
  // replay Csup's derivation over them (Figure 13 (e)). Cx creation is
  // lazy inside CloneDerivation.
  std::map<ClassId, ClassId> mapping;
  int clone_counter = 0;
  TSE_ASSIGN_OR_RETURN(
      ClassId top, CloneDerivation(csup, &mapping, global_name,
                                   &clone_counter));
  t.additions.emplace_back(top, change.new_class_name);
  return t;
}

// --- delete_class (Section 6.8) -----------------------------------------------------

Result<TseManager::Translation> TseManager::TranslateDeleteClass(
    const ViewSchema& vs, const DeleteClass& change) {
  TSE_ASSIGN_OR_RETURN(ClassId cls, vs.Resolve(change.class_name));
  Translation t;
  t.removals.insert(cls);
  return t;
}

// --- Macros (Section 6.9) ------------------------------------------------------------

Result<ViewId> TseManager::ApplyInsertClass(ViewId view_id,
                                            const InsertClass& change) {
  // insert_class C between Csup-Csub =
  //   add_class C connected_to Csup ; add_edge C-Csub.
  AddClass add;
  add.new_class_name = change.new_class_name;
  add.connected_to = change.super_name;
  TSE_ASSIGN_OR_RETURN(ViewId mid, ApplyChange(view_id, add));
  AddEdge edge;
  edge.super_name = change.new_class_name;
  edge.sub_name = change.sub_name;
  return ApplyChange(mid, edge);
}

Result<ViewId> TseManager::ApplyDeleteClass2(ViewId view_id,
                                             const DeleteClass2& change) {
  TSE_ASSIGN_OR_RETURN(const ViewSchema* vs, views_->GetView(view_id));
  TSE_ASSIGN_OR_RETURN(ClassId cdelete, vs->Resolve(change.class_name));

  std::vector<std::string> sub_names;
  for (ClassId sub : vs->DirectSubs(cdelete)) {
    TSE_ASSIGN_OR_RETURN(std::string n, vs->DisplayName(sub));
    sub_names.push_back(n);
  }
  std::vector<std::string> sup_names;
  for (ClassId sup : vs->DirectSupers(cdelete)) {
    TSE_ASSIGN_OR_RETURN(std::string n, vs->DisplayName(sup));
    sup_names.push_back(n);
  }

  ViewId current = view_id;
  // Paper's script order: for each direct subclass, first cut its edge
  // to Cdelete, then connect it to every superclass of Cdelete.
  for (const std::string& sub : sub_names) {
    DeleteEdge cut;
    cut.super_name = change.class_name;
    cut.sub_name = sub;
    TSE_ASSIGN_OR_RETURN(current, ApplyChange(current, cut));
    for (const std::string& sup : sup_names) {
      AddEdge add;
      add.super_name = sup;
      add.sub_name = sub;
      auto r = ApplyChange(current, add);
      // "Already a subclass" is fine (e.g. diamond structures).
      if (r.ok()) {
        current = r.value();
      } else if (!r.status().IsRejected()) {
        return r.status();
      }
    }
  }
  // Cut Cdelete loose from its superclasses, then drop it from the view.
  for (const std::string& sup : sup_names) {
    DeleteEdge cut;
    cut.super_name = sup;
    cut.sub_name = change.class_name;
    TSE_ASSIGN_OR_RETURN(current, ApplyChange(current, cut));
  }
  DeleteClass drop;
  drop.class_name = change.class_name;
  return ApplyChange(current, drop);
}

// --- Version merging (Section 7) --------------------------------------------------------

Result<ViewId> TseManager::MergeVersions(ViewId a, ViewId b,
                                         const std::string& merged_name) {
  TSE_TRACE_SPAN("evolution.merge_versions");
  TSE_COUNT("evolution.merge.requests");
  TSE_ASSIGN_OR_RETURN(const ViewSchema* va, views_->GetView(a));
  TSE_ASSIGN_OR_RETURN(const ViewSchema* vb, views_->GetView(b));

  std::vector<ViewClassSpec> specs;
  std::map<std::string, ClassId> names_taken;
  std::set<ClassId> included;
  auto add_class = [&](ClassId cls, const std::string& display,
                       int version) -> Status {
    // A class present in both versions merges to one entry even when a
    // rename gave it different display names; the first version's name
    // wins.
    if (!included.insert(cls).second) return Status::OK();
    auto taken = names_taken.find(display);
    if (taken == names_taken.end()) {
      names_taken[display] = cls;
      specs.push_back(ViewClassSpec{cls, display});
      return Status::OK();
    }
    // Same name, distinct classes: disambiguate with version suffixes
    // (Figure 16's Student.v1 / Student.v2).
    std::string suffixed = StrCat(display, ".v", version);
    while (names_taken.count(suffixed)) suffixed += "'";
    names_taken[suffixed] = cls;
    specs.push_back(ViewClassSpec{cls, suffixed});
    return Status::OK();
  };

  for (ClassId cls : va->classes()) {
    TSE_ASSIGN_OR_RETURN(std::string display, va->DisplayName(cls));
    TSE_RETURN_IF_ERROR(add_class(cls, display, va->version()));
  }
  for (ClassId cls : vb->classes()) {
    TSE_ASSIGN_OR_RETURN(std::string display, vb->DisplayName(cls));
    TSE_RETURN_IF_ERROR(add_class(cls, display, vb->version()));
  }
  return views_->CreateVersionClosed(merged_name, specs);
}

}  // namespace tse::evolution
