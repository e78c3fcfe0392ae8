#include "view/view_manager.h"

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tse::view {

Result<ViewId> ViewManager::CreateVersion(
    const std::string& logical_name,
    const std::vector<ViewClassSpec>& classes) {
  Generated generated;
  {
    const schema::SchemaGraph::ReadHold graph(*schema_);
    TSE_ASSIGN_OR_RETURN(generated, Generate(graph, classes));
  }
  return Register(logical_name, generated);
}

Result<ViewManager::Generated> ViewManager::Generate(
    const schema::SchemaGraph::ReadHold& graph,
    const std::vector<ViewClassSpec>& classes) const {
  if (classes.empty()) {
    return Status::InvalidArgument("a view needs at least one class");
  }
  std::set<ClassId> selected;
  std::set<std::string> names_seen;
  Generated out;
  for (const ViewClassSpec& spec : classes) {
    const schema::ClassNode* node = graph.Find(spec.cls);
    if (node == nullptr) {
      return Status::NotFound(StrCat("class id ", spec.cls.ToString()));
    }
    if (spec.cls != graph.root() && node->supers.empty()) {
      return Status::FailedPrecondition(
          StrCat("class ", node->name, " is not in the classified schema"));
    }
    if (!selected.insert(spec.cls).second) {
      return Status::InvalidArgument(
          StrCat("class ", node->name, " selected twice"));
    }
    std::string display =
        spec.display_name.empty() ? node->name : spec.display_name;
    if (!names_seen.insert(display).second) {
      return Status::InvalidArgument(
          StrCat("duplicate display name '", display, "' in view"));
    }
    out.members.emplace_back(spec.cls, std::move(display));
  }

  // View schema generation off the classified DAG (Section 5), which
  // keeps every provable is-a as a path: up[i] lists the selected classes
  // the walk up from order[i] reaches. Those that reach each other are
  // equivalent: one edge, lower id (the subclass) to higher. Of the rest,
  // above[i], each is direct unless another reaches it.
  const std::vector<ClassId> order(selected.begin(), selected.end());
  const size_t n = order.size();
  std::vector<std::vector<size_t>> up(n), above(n);
  for (size_t i = 0; i < n; ++i) {
    for (ClassId c : graph.Reach(order[i], /*down=*/false)) {
      auto it = std::lower_bound(order.begin(), order.end(), c);
      if (c != order[i] && it != order.end() && *it == c) {
        up[i].push_back(it - order.begin());
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j : up[i]) {
      if (!std::binary_search(up[j].begin(), up[j].end(), i)) {
        above[i].push_back(j);
      } else if (i < j) {
        out.edges.emplace_back(order[i], order[j]);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j : above[i]) {
      if (std::none_of(above[i].begin(), above[i].end(), [&](size_t k) {
            return std::binary_search(above[k].begin(), above[k].end(), j);
          })) {
        out.edges.emplace_back(order[i], order[j]);
      }
    }
  }
  return out;
}

ViewId ViewManager::Register(const std::string& logical_name,
                             const Generated& generated) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  int version = static_cast<int>(history_[logical_name].size()) + 1;
  ViewId id = view_alloc_.Allocate();
  auto view = std::make_unique<ViewSchema>(id, logical_name, version);
  for (const auto& [cls, display] : generated.members) {
    view->AddClass(cls, display);
  }
  for (const auto& [a, b] : generated.edges) view->AddEdge(a, b);
  views_.emplace(id.value(), std::move(view));
  history_[logical_name].push_back(id);
  return id;
}

Result<std::vector<ClassId>> ViewManager::TypeClosureMissing(
    const std::vector<ViewClassSpec>& classes) const {
  const schema::SchemaGraph::ReadHold graph(*schema_);
  return TypeClosureMissing(graph, classes);
}

Result<std::vector<ClassId>> ViewManager::TypeClosureMissing(
    const schema::SchemaGraph::ReadHold& graph,
    const std::vector<ViewClassSpec>& classes) const {
  std::set<ClassId> selected;
  for (const ViewClassSpec& spec : classes) selected.insert(spec.cls);

  std::vector<ClassId> missing;
  std::set<ClassId> missing_set;
  std::deque<ClassId> queue(selected.begin(), selected.end());
  while (!queue.empty()) {
    ClassId cls = queue.front();
    queue.pop_front();
    TSE_ASSIGN_OR_RETURN(const schema::TypeSet* type, graph.Type(cls));
    for (const auto& [name, defs] : type->bindings()) {
      for (PropertyDefId def_id : defs) {
        TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                             graph.Property(def_id));
        if (def->value_type != objmodel::ValueType::kRef ||
            !def->ref_target.valid()) {
          continue;
        }
        ClassId target = def->ref_target;
        if (selected.count(target) || missing_set.count(target)) continue;
        // A selected class that provably represents the same object set
        // satisfies the reference (e.g. a primed substitute).
        bool substituted = false;
        for (ClassId sel : selected) {
          if (graph.ExtentEquivalent(sel, target)) {
            substituted = true;
            break;
          }
        }
        if (substituted) continue;
        missing.push_back(target);
        missing_set.insert(target);
        queue.push_back(target);  // closure is transitive
      }
    }
  }
  return missing;
}

Result<ViewId> ViewManager::CreateVersionClosed(
    const std::string& logical_name,
    const std::vector<ViewClassSpec>& classes) {
  // The view-generation step of the TSEM pipeline. Closure and the DAG
  // walk read the schema under one shared hold, released before the
  // registration takes mu_.
  TSE_TRACE_SPAN("view.regenerate");
  Generated generated;
  {
    const schema::SchemaGraph::ReadHold graph(*schema_);
    TSE_ASSIGN_OR_RETURN(std::vector<ClassId> missing,
                         TypeClosureMissing(graph, classes));
    std::vector<ViewClassSpec> complete = classes;
    for (ClassId cls : missing) {
      complete.push_back(ViewClassSpec{cls, ""});
    }
    TSE_ASSIGN_OR_RETURN(generated, Generate(graph, complete));
  }
  ViewId created = Register(logical_name, generated);
  TSE_COUNT("view.versions.created");
  return created;
}

Result<const ViewSchema*> ViewManager::GetView(ViewId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return GetViewUnlocked(id);
}

Result<const ViewSchema*> ViewManager::GetViewUnlocked(ViewId id) const {
  auto it = views_.find(id.value());
  if (it == views_.end()) {
    return Status::NotFound(StrCat("view ", id.ToString()));
  }
  return it->second.get();
}

Result<const ViewSchema*> ViewManager::Current(
    const std::string& logical_name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = history_.find(logical_name);
  if (it == history_.end() || it->second.empty()) {
    return Status::NotFound(StrCat("no view named ", logical_name));
  }
  return GetViewUnlocked(it->second.back());
}

std::vector<ViewId> ViewManager::History(
    const std::string& logical_name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = history_.find(logical_name);
  if (it == history_.end()) return {};
  return it->second;
}

std::vector<ViewId> ViewManager::AllViews() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ViewId> out;
  out.reserve(views_.size());
  for (const auto& [raw, _] : views_) out.push_back(ViewId(raw));
  return out;
}

Status ViewManager::RestoreVersion(
    ViewId id, const std::string& logical_name, int version,
    const std::vector<std::pair<ClassId, std::string>>& classes,
    const std::vector<std::pair<ClassId, ClassId>>& edges) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!id.valid() || views_.count(id.value())) {
    return Status::InvalidArgument(
        StrCat("cannot restore view ", id.ToString()));
  }
  auto view = std::make_unique<ViewSchema>(id, logical_name, version);
  for (const auto& [cls, display] : classes) {
    TSE_RETURN_IF_ERROR(schema_->GetClass(cls).status());
    view->AddClass(cls, display);
  }
  for (const auto& [sub, sup] : edges) {
    if (!view->Contains(sub) || !view->Contains(sup)) {
      return Status::Corruption("view edge references unselected class");
    }
    view->AddEdge(sub, sup);
  }
  view_alloc_.BumpPast(id);
  views_.emplace(id.value(), std::move(view));
  history_[logical_name].push_back(id);
  return Status::OK();
}

std::vector<std::string> ViewManager::ViewNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, ids] : history_) {
    if (!ids.empty()) out.push_back(name);
  }
  return out;
}

}  // namespace tse::view
