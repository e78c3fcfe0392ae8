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

/// Per-class marks for one placement search, indexed by class id. A new
/// pass bumps the stamp instead of clearing, so walks allocate nothing.
class Marks {
 public:
  explicit Marks(size_t id_bound) : stamps_(id_bound, 0) {}
  void NewPass() { ++stamp_; }
  /// Marks `cls`; false when it was already marked in this pass.
  bool Insert(ClassId cls) {
    uint32_t& s = stamps_[cls.value()];
    if (s == stamp_) return false;
    s = stamp_;
    return true;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t stamp_ = 1;
};

/// Direct classified subs or supers of `cls` (empty for a missing
/// class), read in place under the search's hold.
const std::set<ClassId>& Next(const SchemaGraph::ReadHold& graph, ClassId cls,
                              bool down) {
  static const std::set<ClassId> kNone;
  const ClassNode* node = graph.Find(cls);
  if (node == nullptr) return kNone;
  return down ? node->subs : node->supers;
}

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
std::vector<ClassId> Frontier(const SchemaGraph::ReadHold& graph,
                              const std::vector<ClassId>& candidates,
                              bool down, Marks* seen,
                              std::vector<ClassId>* stack) {
  auto in_set = [&](ClassId c) {
    return std::binary_search(candidates.begin(), candidates.end(), c);
  };
  std::vector<ClassId> out;
  for (ClassId cand : candidates) {
    seen->NewPass();
    seen->Insert(cand);
    stack->assign(1, cand);
    bool frontier = true;
    while (frontier && !stack->empty()) {
      ClassId cur = stack->back();
      stack->pop_back();
      for (ClassId beyond : Next(graph, cur, down)) {
        if (!in_set(beyond) || !seen->Insert(beyond)) continue;
        TSE_COUNT("classifier.filter.checks");
        const bool equivalent = down ? graph.IsaSubsumedBy(cand, beyond)
                                     : graph.IsaSubsumedBy(beyond, cand);
        if (!equivalent) {
          frontier = false;
          break;
        }
        stack->push_back(beyond);
      }
    }
    if (frontier) out.push_back(cand);
  }
  return out;
}

}  // namespace

Placement SearchPlacement(const SchemaGraph& schema, ClassId cls) {
  // One shared hold of the graph latch for the whole search: every
  // subsumption test, DAG read and type read below runs under it.
  const SchemaGraph::ReadHold graph(schema);
  Placement out;
  const ClassId root = graph.root();
  Marks seen(graph.id_bound());
  std::vector<ClassId> stack;

  // --- Up-set: the classified classes subsuming cls ----------------------
  // A class is tested once, whichever parent reaches it first: the test
  // does not depend on the path.
  std::vector<ClassId> up;
  if (cls != root) {
    TSE_COUNT("classifier.subsumption.checks");
    if (graph.IsaSubsumedBy(cls, root)) up.push_back(root);
  }
  seen.Insert(root);
  if (cls.value() < graph.id_bound()) seen.Insert(cls);
  stack.push_back(root);
  while (!stack.empty()) {
    ClassId cur = stack.back();
    stack.pop_back();
    for (ClassId sub : Next(graph, cur, /*down=*/true)) {
      if (!seen.Insert(sub)) continue;
      TSE_COUNT("classifier.subsumption.checks");
      if (graph.IsaSubsumedBy(cls, sub)) {
        up.push_back(sub);
        stack.push_back(sub);
      }
    }
  }
  std::sort(up.begin(), up.end());

  // --- Duplicate: lowest id inside the up-set ------------------------------
  for (ClassId cand : up) {
    TSE_COUNT("classifier.subsumption.checks");
    if (graph.IsDuplicateOf(cls, cand)) {
      out.duplicate = cand;
      return out;
    }
  }

  // --- Subs: below the first lowest super, or anywhere under the root ----
  // A super none of whose direct subs is in the up-set is minimal in the
  // DAG; every class below cls lies below it.
  ClassId region = root;
  for (ClassId cand : up) {
    const std::set<ClassId>& subs = Next(graph, cand, /*down=*/true);
    if (std::none_of(subs.begin(), subs.end(), [&](ClassId sub) {
          return std::binary_search(up.begin(), up.end(), sub);
        })) {
      region = cand;
      break;
    }
  }
  std::vector<ClassId> below;
  for (ClassId cand : graph.Reach(region, /*down=*/true)) {
    if (cand == cls) continue;
    TSE_COUNT("classifier.subsumption.checks");
    if (graph.IsaSubsumedBy(cand, cls)) below.push_back(cand);
  }

  // --- Filters: the direct supers and subs, read off the DAG -------------
  out.supers = Frontier(graph, up, /*down=*/true, &seen, &stack);
  out.subs = Frontier(graph, below, /*down=*/false, &seen, &stack);
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
