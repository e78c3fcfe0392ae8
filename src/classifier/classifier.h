#ifndef TSE_CLASSIFIER_CLASSIFIER_H_
#define TSE_CLASSIFIER_CLASSIFIER_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "schema/schema_graph.h"

namespace tse::classifier {

/// Outcome of classifying one class.
struct ClassifyResult {
  /// The class that now represents the input: the input itself, or an
  /// existing duplicate that replaced it (the duplicate is removed from
  /// the graph, per Section 7).
  ClassId cls;
  bool was_duplicate = false;
  /// Direct supers / subs wired by this classification.
  std::vector<ClassId> supers;
  std::vector<ClassId> subs;
};

/// Where a class belongs among the already-classified classes, found
/// without touching the graph.
struct Placement {
  /// The lowest-id structural duplicate, or an invalid id when none.
  /// When set, `supers` and `subs` are left empty.
  ClassId duplicate;
  /// The direct supers: classified classes that is-a subsume the class
  /// with no other such class strictly below them, in id order. Empty
  /// when nothing provably subsumes the class (the Classifier then falls
  /// back to the root).
  std::vector<ClassId> supers;
  /// The direct subs: classified classes the class is-a subsumes with no
  /// other such class strictly above them, in id order.
  std::vector<ClassId> subs;
};

/// A placement search: a pure function of the graph and the class.
using PlacementSearch =
    std::function<Placement(const schema::SchemaGraph&, ClassId)>;

/// The default placement search. It walks the classified DAG instead of
/// testing every classified class, so its cost follows the part of the
/// DAG around the new class rather than the class count:
///   - up-set: top-down from the root through direct subs, descending
///     only into classes that subsume `cls` (the root is always
///     expanded, so classes hanging off it by the root fallback are
///     reached). These are the super candidates.
///   - duplicate: probed only inside the up-set, in id order; a
///     duplicate subsumes `cls` both ways, so it is always there.
///   - sub candidates: probed only among the descendants (itself
///     included) of the first up-set class none of whose direct subs is
///     in the up-set, or of the root when the up-set is empty; anything
///     below `cls` is below each of its supers.
///   - filters: a super candidate is direct unless a walk down its
///     direct subs inside the up-set reaches a candidate not equivalent
///     to it; a sub candidate likewise walking direct supers. Walks pass
///     through equivalent candidates (is-a cycles).
/// All of these rely on the DAG being complete (every classified
/// subsumption is a path) and on is-a subsumption being transitive. The
/// fuzzer's naive-scan arm checks the result against testing every
/// class and filtering every candidate pair.
Placement SearchPlacement(const schema::SchemaGraph& schema, ClassId cls);

/// The MultiView classification algorithm (Rundensteiner [17]):
/// positions a virtual class in the one consistent global schema DAG by
/// intensional subsumption, detects duplicates, and keeps the DAG
/// transitively reduced around the insertion point.
class Classifier {
 public:
  /// `search` finds placements; tests and the fuzzer substitute an
  /// exhaustive scan to check the default DAG search against it.
  explicit Classifier(schema::SchemaGraph* schema,
                      PlacementSearch search = SearchPlacement)
      : schema_(schema), search_(std::move(search)) {}

  /// Integrates `cls` (typically a freshly defined virtual class) into
  /// the classified DAG:
  ///   1. The placement search runs. If it finds a structural duplicate
  ///      (equal provable extent and identical property bindings), `cls`
  ///      is removed and the existing class returned.
  ///   2. Otherwise the placement's direct supers (the root when there
  ///      are none) and direct subs are wired, and edges that became
  ///      transitive are removed.
  Result<ClassifyResult> Classify(ClassId cls);

  /// Classifies a batch in order, returning the representative ids.
  Result<std::vector<ClassifyResult>> ClassifyAll(
      const std::vector<ClassId>& classes);

 private:
  schema::SchemaGraph* schema_;
  PlacementSearch search_;
};

}  // namespace tse::classifier

#endif  // TSE_CLASSIFIER_CLASSIFIER_H_
