#ifndef TSE_FUZZ_NAIVE_PLACEMENT_H_
#define TSE_FUZZ_NAIVE_PLACEMENT_H_

#include <set>
#include <utility>
#include <vector>

#include "classifier/classifier.h"
#include "schema/schema_graph.h"

namespace tse::fuzz {

/// The exhaustive placement search the DAG search replaced, kept as a
/// differential oracle: it tests `cls` against every classified class
/// (base classes and classes with is-a edges) in id order — once for a
/// duplicate, then as a super and as a sub candidate — and filters the
/// candidates by comparing every pair (the O(k^2) minimal/maximal
/// filters). A Classifier built on it must wire exactly the DAG the
/// default search wires.
classifier::Placement NaivePlacement(const schema::SchemaGraph& schema,
                                     ClassId cls);

/// The view generator's former V×V pass, kept as a differential oracle:
/// one IsaSubsumedBy per ordered pair of `classes`, then an edge a -> b
/// for every a ⊑ b with no third class strictly between (an O(V^3)
/// transitive reduction). Equivalent classes get one edge, from the
/// lower id to the higher. ViewManager's walk over the classified DAG
/// must generate exactly these edges, in (sub, super) id order.
std::vector<std::pair<ClassId, ClassId>> NaiveViewEdges(
    const schema::SchemaGraph& schema, const std::set<ClassId>& classes);

}  // namespace tse::fuzz

#endif  // TSE_FUZZ_NAIVE_PLACEMENT_H_
