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

/// Candidates with no other candidate strictly below them.
std::vector<ClassId> Minimal(const SchemaGraph& schema,
                             const std::vector<ClassId>& candidates) {
  std::vector<ClassId> out;
  for (ClassId cand : candidates) {
    bool minimal = true;
    for (ClassId other : candidates) {
      if (other == cand) continue;
      if (schema.IsaSubsumedBy(other, cand) &&
          !schema.IsaSubsumedBy(cand, other)) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(cand);
  }
  return out;
}

/// Candidates with no other candidate strictly above them.
std::vector<ClassId> Maximal(const SchemaGraph& schema,
                             const std::vector<ClassId>& candidates) {
  std::vector<ClassId> out;
  for (ClassId cand : candidates) {
    bool maximal = true;
    for (ClassId other : candidates) {
      if (other == cand) continue;
      if (schema.IsaSubsumedBy(cand, other) &&
          !schema.IsaSubsumedBy(other, cand)) {
        maximal = false;
        break;
      }
    }
    if (maximal) out.push_back(cand);
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
  for (ClassId cand : Descendants(schema, region, cls)) {
    TSE_COUNT("classifier.subsumption.checks");
    if (schema.IsaSubsumedBy(cand, cls)) out.sub_candidates.push_back(cand);
  }
  out.super_candidates = std::move(up);
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

  // Direct supers: minimal candidates (no other candidate strictly
  // between cls and them). Direct subs: maximal candidates.
  std::vector<ClassId> supers = Minimal(*schema_, placement.super_candidates);
  std::vector<ClassId> subs = Maximal(*schema_, placement.sub_candidates);

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
