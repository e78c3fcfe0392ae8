#ifndef TSE_ALGEBRA_EXTENT_DEPS_H_
#define TSE_ALGEBRA_EXTENT_DEPS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/ids.h"
#include "schema/schema_graph.h"

namespace tse::algebra {

/// The derivation dependency graph of the global schema: which classes
/// read which classes' extents, and which stored attribute *names* each
/// select predicate's verdict depends on. ExtentEvaluator consults it to
/// route a store delta (membership or value change) to exactly the
/// derived classes it can affect, leaving every other cached extent
/// untouched.
///
/// The graph is a pure function of the schema. Schema evolution almost
/// only adds classes, and an added class changes no existing class's
/// derivation or type, so Extend() appends just the newcomers; only a
/// class removal or a moved invalidate floor (name resolution under
/// existing predicates may have shifted) costs a full Rebuild().
class DerivationDepGraph {
 public:
  /// Per-select-class predicate analysis.
  struct SelectInfo {
    ClassId cls;
    /// Stored attribute names the predicate verdict reads, resolved at
    /// the source class with method bodies expanded transitively.
    std::set<std::string> attr_names;
    /// True when the dependency set could not be bounded (dotted
    /// reference navigation, unresolvable names, self references):
    /// membership may then hinge on *other* objects' state, so any
    /// value write anywhere must invalidate this class's extent.
    bool is_volatile = false;
  };

  /// Recomputes the graph from `schema`.
  void Rebuild(const schema::SchemaGraph& schema);

  /// Brings the graph up to date with `schema`: adds the classes created
  /// since the last Extend/Rebuild, or rebuilds when the schema is a
  /// different graph, removed a class, or moved its invalidate floor
  /// since then. The result equals a fresh Rebuild. Relies on new
  /// classes getting ids above every existing one (ids are allocated in
  /// order and never reused; a catalog restore adds classes in id
  /// order). Cheap when nothing changed.
  void Extend(const schema::SchemaGraph& schema);

  /// Virtual classes whose derivation reads `cls`'s extent directly.
  const std::vector<ClassId>& Dependents(ClassId cls) const;

  /// Every base class whose computed extent includes `base_cls`'s
  /// direct extent — i.e. all base classes provably subsuming it,
  /// `base_cls` itself included. Lazily computed and memoized per class
  /// until the next Rebuild or the next base class Extend adds.
  const std::vector<ClassId>& BaseUps(ClassId base_cls) const;

  /// Predicate analysis for `cls`, or nullptr when it is not a select
  /// class.
  const SelectInfo* Select(ClassId cls) const;

  /// Non-volatile select classes whose predicate reads stored attribute
  /// `name` (in any class context — name collisions over-approximate,
  /// which is safe).
  const std::vector<ClassId>& SelectsOnName(const std::string& name) const;

  /// Select classes with an unbounded dependency set; every value write
  /// invalidates them.
  const std::vector<ClassId>& VolatileSelects() const { return volatile_; }

 private:
  /// Indexes the classes with ids from `next_` on.
  void AddNewClasses(const schema::SchemaGraph& schema);
  void AnalyzePredicate(const schema::SchemaGraph& schema,
                        const schema::ClassNode& node, SelectInfo* info);

  const schema::SchemaGraph* schema_ = nullptr;
  /// schema_->invalidate_floor() and removal_count() as of the last
  /// Rebuild: when either moves, existing entries may be stale.
  uint64_t floor_ = 0;
  uint64_t removals_ = 0;
  /// Raw id of the first class not yet indexed.
  uint64_t next_ = 0;
  std::map<uint64_t, std::vector<ClassId>> dependents_;
  std::map<uint64_t, SelectInfo> selects_;
  std::map<std::string, std::vector<ClassId>> selects_by_name_;
  std::vector<ClassId> volatile_;
  mutable std::map<uint64_t, std::vector<ClassId>> base_ups_;
  std::vector<ClassId> empty_;
};

}  // namespace tse::algebra

#endif  // TSE_ALGEBRA_EXTENT_DEPS_H_
