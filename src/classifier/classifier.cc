#include "classifier/classifier.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tse::classifier {

using schema::ClassNode;
using schema::SchemaGraph;

namespace {

/// The candidates no other candidate lies strictly beyond, in id order:
/// the direct supers when `down` (walking direct subs inside the up-set)
/// and the direct subs otherwise (walking direct supers inside the sub
/// candidates). `candidates` is sorted. Every class reachable from a
/// candidate this way is on its far side, so a candidate loses as soon
/// as the walk reaches one that is not equivalent to it. The walk passes
/// through equivalent candidates: the classified DAG keeps is-a cycles
/// between classes that subsume each other without being duplicates
/// (a refine re-importing an overridden definition sits both above and
/// below the class it refines), and a class strictly beyond the cycle
/// is only reached through it. Completeness of the DAG makes the walk
/// see every candidate the exhaustive filter would compare against.
std::vector<ClassId> Frontier(const SchemaGraph& schema,
                              const std::vector<ClassId>& candidates,
                              bool down) {
  auto in_set = [&](ClassId c) {
    return std::binary_search(candidates.begin(), candidates.end(), c);
  };
  auto next = [&](ClassId c) {
    return (down ? schema.DirectSubs(c) : schema.DirectSupers(c))
        .value_or({});
  };
  std::vector<ClassId> out;
  for (ClassId cand : candidates) {
    std::set<ClassId> seen{cand};
    std::vector<ClassId> stack{cand};
    bool frontier = true;
    while (frontier && !stack.empty()) {
      ClassId cur = stack.back();
      stack.pop_back();
      for (ClassId beyond : next(cur)) {
        if (!in_set(beyond) || !seen.insert(beyond).second) continue;
        TSE_COUNT("classifier.filter.checks");
        const bool equivalent = down ? schema.IsaSubsumedBy(cand, beyond)
                                     : schema.IsaSubsumedBy(beyond, cand);
        if (!equivalent) {
          frontier = false;
          break;
        }
        stack.push_back(beyond);
      }
    }
    if (frontier) out.push_back(cand);
  }
  return out;
}

/// `from` and every class below it in the classified DAG, except
/// `skip`, in id order.
std::vector<ClassId> Descendants(const SchemaGraph& schema, ClassId from,
                                 ClassId skip) {
  std::set<ClassId> seen{from};
  std::vector<ClassId> stack{from};
  while (!stack.empty()) {
    ClassId cur = stack.back();
    stack.pop_back();
    for (ClassId sub : schema.DirectSubs(cur).value_or({})) {
      if (seen.insert(sub).second) stack.push_back(sub);
    }
  }
  seen.erase(skip);
  return std::vector<ClassId>(seen.begin(), seen.end());
}

}  // namespace

Placement SearchPlacement(const SchemaGraph& schema, ClassId cls) {
  Placement out;
  const ClassId root = schema.root();

  // --- Up-set: the classified classes subsuming cls ----------------------
  // A class is tested once, whichever parent reaches it first: the test
  // does not depend on the path.
  std::vector<ClassId> up;
  if (cls != root) {
    TSE_COUNT("classifier.subsumption.checks");
    if (schema.IsaSubsumedBy(cls, root)) up.push_back(root);
  }
  std::set<ClassId> visited{root, cls};
  std::vector<ClassId> stack{root};
  while (!stack.empty()) {
    ClassId cur = stack.back();
    stack.pop_back();
    for (ClassId sub : schema.DirectSubs(cur).value_or({})) {
      if (!visited.insert(sub).second) continue;
      TSE_COUNT("classifier.subsumption.checks");
      if (schema.IsaSubsumedBy(cls, sub)) {
        up.push_back(sub);
        stack.push_back(sub);
      }
    }
  }
  std::sort(up.begin(), up.end());

  // --- Duplicate: lowest id inside the up-set ------------------------------
  for (ClassId cand : up) {
    TSE_COUNT("classifier.subsumption.checks");
    if (schema.IsDuplicateOf(cls, cand)) {
      out.duplicate = cand;
      return out;
    }
  }

  // --- Subs: below the first lowest super, or anywhere under the root ----
  // A super none of whose direct subs is in the up-set is minimal in the
  // DAG; every class below cls lies below it.
  ClassId region = root;
  for (ClassId cand : up) {
    std::vector<ClassId> subs = schema.DirectSubs(cand).value_or({});
    if (std::none_of(subs.begin(), subs.end(), [&](ClassId sub) {
          return std::binary_search(up.begin(), up.end(), sub);
        })) {
      region = cand;
      break;
    }
  }
  std::vector<ClassId> below;
  for (ClassId cand : Descendants(schema, region, cls)) {
    TSE_COUNT("classifier.subsumption.checks");
    if (schema.IsaSubsumedBy(cand, cls)) below.push_back(cand);
  }

  // --- Filters: the direct supers and subs, read off the DAG -------------
  out.supers = Frontier(schema, up, /*down=*/true);
  out.subs = Frontier(schema, below, /*down=*/false);
  return out;
}

Result<ClassifyResult> Classifier::Classify(ClassId cls) {
  // The classifier integrates one virtual class into the global DAG —
  // the "integrate" step of the TSEM pipeline.
  TSE_TRACE_SPAN("classifier.integrate");
  TSE_COUNT("classifier.classify.calls");
  TSE_ASSIGN_OR_RETURN(const ClassNode* node, schema_->GetClass(cls));
  ClassifyResult result;
  result.cls = cls;

  if (node->is_base() && !node->supers.empty()) {
    // Base classes arrive with their declared edges; nothing to do.
    return result;
  }

  // --- 1. Placement search (pure) ------------------------------------------
  // The subsumption proofs hit SchemaGraph's memos, which survive class
  // additions, so a ClassifyAll batch proves each pair once rather than
  // once per newly added class.
  Placement placement = search_(*schema_, cls);
  if (placement.duplicate.valid()) {
    // The existing class replaces the newly created duplicate.
    if (node->is_virtual()) {
      TSE_RETURN_IF_ERROR(schema_->RemoveClass(cls));
    }
    result.cls = placement.duplicate;
    result.was_duplicate = true;
    TSE_COUNT("classifier.classify.duplicates");
    return result;
  }

  std::vector<ClassId> supers = std::move(placement.supers);
  std::vector<ClassId> subs = std::move(placement.subs);

  // Fallback: a class with no provable superclass hangs off the root so
  // the DAG stays connected.
  if (supers.empty() && cls != schema_->root()) {
    supers.push_back(schema_->root());
  }

  // --- 2. Wire edges; reduce transitivity around the insertion ------------
  for (ClassId sup : supers) {
    TSE_RETURN_IF_ERROR(schema_->AddIsaEdge(cls, sup));
  }
  for (ClassId sub : subs) {
    TSE_RETURN_IF_ERROR(schema_->AddIsaEdge(sub, cls));
    // An existing direct edge sub -> sup is now transitive via cls.
    for (ClassId sup : supers) {
      auto sub_node = schema_->GetClass(sub);
      if (sub_node.ok() && sub_node.value()->supers.count(sup)) {
        TSE_RETURN_IF_ERROR(schema_->RemoveIsaEdge(sub, sup));
      }
    }
  }

  result.supers = std::move(supers);
  result.subs = std::move(subs);
  return result;
}

Result<std::vector<ClassifyResult>> Classifier::ClassifyAll(
    const std::vector<ClassId>& classes) {
  std::vector<ClassifyResult> out;
  out.reserve(classes.size());
  for (ClassId cls : classes) {
    TSE_ASSIGN_OR_RETURN(ClassifyResult r, Classify(cls));
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace tse::classifier
