#ifndef TSE_EVOLUTION_TSE_MANAGER_H_
#define TSE_EVOLUTION_TSE_MANAGER_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "classifier/classifier.h"
#include "common/result.h"
#include "evolution/schema_change.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"
#include "view/view_manager.h"

namespace tse::evolution {

/// The Transparent Schema Evolution Manager (TSEM) of Figure 6: the
/// control module that receives a schema-change request against a view
/// and orchestrates
///   (1) the TSE Translator — mapping the operator to extended object
///       algebra statements that create the necessary virtual classes,
///   (2) the Classifier — integrating them into the global schema,
///   (3) the View Manager — generating the new view schema version and
///       registering it in the view schema history.
///
/// The old view version is never touched: programs bound to it keep
/// running, while the requesting user transparently receives the new
/// version under the same logical view name.
class TseManager {
 public:
  /// `search` is the classifier's placement search; the fuzzer passes
  /// an exhaustive scan to check the default DAG search against it.
  TseManager(schema::SchemaGraph* schema, objmodel::SlicingStore* store,
             view::ViewManager* views,
             classifier::PlacementSearch search =
                 classifier::SearchPlacement)
      : schema_(schema),
        store_(store),
        views_(views),
        classifier_(schema, std::move(search)) {}

  TseManager(const TseManager&) = delete;
  TseManager& operator=(const TseManager&) = delete;

  /// Creates the initial version of a user view over existing classes.
  Result<ViewId> CreateView(const std::string& logical_name,
                            const std::vector<view::ViewClassSpec>& classes);

  /// Applies `change` to the view, returning the new view version. The
  /// version passed in stays intact and queryable.
  Result<ViewId> ApplyChange(ViewId view_id, const SchemaChange& change);

  /// Applies a script of changes in order (each producing a version);
  /// returns the final version.
  Result<ViewId> ApplyScript(ViewId view_id,
                             const std::vector<SchemaChange>& script);

  /// Section 7: merges two versions into one new view. Classes present
  /// in both merge to one entry; distinct classes that collide on a
  /// display name are disambiguated with ".v<version>" suffixes.
  Result<ViewId> MergeVersions(ViewId a, ViewId b,
                               const std::string& merged_logical_name);

  schema::SchemaGraph* schema() { return schema_; }
  objmodel::SlicingStore* store() { return store_; }
  view::ViewManager* views() { return views_; }

 private:
  /// Accumulated effect of translating one operator.
  struct Translation {
    /// Old view class -> replacement (primed) class.
    std::map<ClassId, ClassId> substitutions;
    /// Classes newly added to the view: (class, display name).
    std::vector<std::pair<ClassId, std::string>> additions;
    /// View classes dropped by this change.
    std::set<ClassId> removals;
  };

  /// ApplyChange minus the request-level span/counter bookkeeping.
  Result<ViewId> ApplyChangeImpl(ViewId view_id, const SchemaChange& change);

  /// Dispatches a primitive operator to its translator (the TSE
  /// Translator step of the pipeline; traced as "evolution.translate").
  Result<Translation> Translate(const view::ViewSchema& vs,
                                const SchemaChange& change);

  // One translator per primitive operator (Sections 6.1–6.8).
  Result<Translation> TranslateAddProperty(const view::ViewSchema& vs,
                                           const std::string& class_name,
                                           const schema::PropertySpec& spec);
  Result<Translation> TranslateDeleteProperty(const view::ViewSchema& vs,
                                              const std::string& class_name,
                                              const std::string& prop_name,
                                              schema::PropertyKind kind);
  Result<Translation> TranslateAddEdge(const view::ViewSchema& vs,
                                       const AddEdge& change);
  Result<Translation> TranslateDeleteEdge(const view::ViewSchema& vs,
                                          const DeleteEdge& change);
  Result<Translation> TranslateAddClass(const view::ViewSchema& vs,
                                        const AddClass& change);
  Result<Translation> TranslateDeleteClass(const view::ViewSchema& vs,
                                           const DeleteClass& change);

  // Macros (Section 6.9) expand to primitive scripts.
  Result<ViewId> ApplyInsertClass(ViewId view_id, const InsertClass& change);
  Result<ViewId> ApplyDeleteClass2(ViewId view_id, const DeleteClass2& change);

  /// Creates-and-classifies a virtual class, returning the class that
  /// represents it (the duplicate's representative when one exists).
  Result<ClassId> DefineAndClassify(const std::string& name,
                                    schema::Derivation derivation);
  Result<ClassId> DefineRefineAndClassify(
      const std::string& name, ClassId source,
      const std::vector<schema::PropertySpec>& new_props,
      const std::vector<PropertyDefId>& imported);
  /// Classifies a freshly defined class and returns its representative.
  Result<ClassId> Classify(ClassId cls);

  /// Registers the next version of a view after a schema change (the
  /// View Manager step of the pipeline).
  Result<ViewId> Regenerate(const std::string& logical_name,
                            const std::vector<view::ViewClassSpec>& specs);

  /// Globally-unique primed name derived from a view display name.
  std::string PrimedName(const std::string& base) const;

  /// View subclasses of `cls` within `vs` (direct + transitive),
  /// excluding `cls` itself, in BFS order.
  std::vector<ClassId> ViewSubclasses(const view::ViewSchema& vs,
                                      ClassId cls) const;
  std::vector<ClassId> ViewSuperclasses(const view::ViewSchema& vs,
                                        ClassId cls) const;

  /// Classes reachable upward from `from` in the view DAG while never
  /// traversing the edge sub->sup (both inclusive bounds given by ids).
  std::set<ClassId> ViewUpReachableWithoutEdge(const view::ViewSchema& vs,
                                               ClassId from, ClassId edge_sub,
                                               ClassId edge_sup) const;

  /// Builds the new view version from the old one plus a translation.
  Result<ViewId> EmitView(const view::ViewSchema& vs,
                          const Translation& translation);

  /// Clones the derivation structure of `cls`, substituting classes per
  /// `mapping` (used by add_class, Section 6.7.2). Newly cloned
  /// intermediate classes are named from `name_hint`.
  Result<ClassId> CloneDerivation(ClassId cls,
                                  std::map<ClassId, ClassId>* mapping,
                                  const std::string& name_hint,
                                  int* counter);

  schema::SchemaGraph* schema_;
  objmodel::SlicingStore* store_;
  view::ViewManager* views_;
  classifier::Classifier classifier_;
};

}  // namespace tse::evolution

#endif  // TSE_EVOLUTION_TSE_MANAGER_H_
