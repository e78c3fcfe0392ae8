#ifndef TSE_VIEW_VIEW_MANAGER_H_
#define TSE_VIEW_VIEW_MANAGER_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "schema/schema_graph.h"
#include "view/view_schema.h"

namespace tse::view {

/// Class selection for a view: which global class, shown under which
/// name (empty display_name = keep the global name).
struct ViewClassSpec {
  ClassId cls;
  std::string display_name;
};

/// The View Manager + View Schema History of the TSE architecture
/// (Figure 6): generates consistent view schemas over a set of selected
/// classes, checks/completes type closure, and keeps the per-view
/// version history that makes schema-change transparency possible (the
/// old version keeps serving old programs while the new version is
/// handed to the requester).
///
/// Internally synchronized: version registration takes `mu_` exclusive,
/// lookups take it shared, so sessions can open/refresh views while a
/// schema change publishes a new version (DESIGN.md §10). Returned
/// `const ViewSchema*` pointers are stable — versions are never removed.
/// Schema reads (DAG walk, type closure) happen *before* `mu_` is
/// taken, under one SchemaGraph::ReadHold per generation that is
/// released before registration; the lock order is mu_ → SchemaGraph
/// internals, never reverse.
class ViewManager {
 public:
  explicit ViewManager(const schema::SchemaGraph* schema)
      : schema_(schema) {}

  ViewManager(const ViewManager&) = delete;
  ViewManager& operator=(const ViewManager&) = delete;

  /// Creates a new version of the view `logical_name` containing the
  /// given classes. The generalization hierarchy is generated
  /// automatically (view schema generation algorithm [21]) from the
  /// classified DAG's is-a paths; equivalent classes (an is-a cycle) are
  /// ordered by id, the lower id as the subclass. Duplicate display
  /// names and classes the classifier never placed are rejected.
  Result<ViewId> CreateVersion(const std::string& logical_name,
                               const std::vector<ViewClassSpec>& classes);

  /// Classes referenced by visible Ref attributes of `classes` but not
  /// present (and not represented by an extent-equivalent substitute).
  /// These must be added for the view to be type-closed.
  Result<std::vector<ClassId>> TypeClosureMissing(
      const std::vector<ViewClassSpec>& classes) const;

  /// CreateVersion, but first completes the selection with any classes
  /// required for type closure (added under their global names).
  Result<ViewId> CreateVersionClosed(const std::string& logical_name,
                                     const std::vector<ViewClassSpec>& classes);

  Result<const ViewSchema*> GetView(ViewId id) const;

  /// The latest version of `logical_name`.
  Result<const ViewSchema*> Current(const std::string& logical_name) const;

  /// All versions of `logical_name`, oldest first.
  std::vector<ViewId> History(const std::string& logical_name) const;

  /// All logical view names.
  std::vector<std::string> ViewNames() const;

  /// All registered view ids, in id order (for catalog serialization).
  std::vector<ViewId> AllViews() const;

  /// Reinstates a persisted view version verbatim (id, logical name,
  /// version number, classes with display names, and is-a edges). Used
  /// by schema::CatalogIO during restore; ids must arrive in order.
  Status RestoreVersion(
      ViewId id, const std::string& logical_name, int version,
      const std::vector<std::pair<ClassId, std::string>>& classes,
      const std::vector<std::pair<ClassId, ClassId>>& edges);

  uint64_t view_alloc_next() const { return view_alloc_.next_raw(); }

 private:
  /// A generated view version before registration: the members with
  /// their display names and the transitively reduced is-a edges.
  struct Generated {
    std::vector<std::pair<ClassId, std::string>> members;
    std::vector<std::pair<ClassId, ClassId>> edges;
  };

  /// Validates the selection and generates its hierarchy, reading the
  /// schema only through `graph`.
  Result<Generated> Generate(const schema::SchemaGraph::ReadHold& graph,
                             const std::vector<ViewClassSpec>& classes) const;
  Result<std::vector<ClassId>> TypeClosureMissing(
      const schema::SchemaGraph::ReadHold& graph,
      const std::vector<ViewClassSpec>& classes) const;
  /// Registers a generated version under mu_.
  ViewId Register(const std::string& logical_name,
                  const Generated& generated);

  Result<const ViewSchema*> GetViewUnlocked(ViewId id) const;

  const schema::SchemaGraph* schema_;
  /// Guards view_alloc_, views_, history_. Readers shared, version
  /// registration exclusive.
  mutable std::shared_mutex mu_;
  IdAllocator<ViewId> view_alloc_;
  std::map<uint64_t, std::unique_ptr<ViewSchema>> views_;
  std::map<std::string, std::vector<ViewId>> history_;
};

}  // namespace tse::view

#endif  // TSE_VIEW_VIEW_MANAGER_H_
