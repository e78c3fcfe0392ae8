#include "fuzz/naive_placement.h"

#include <vector>

namespace tse::fuzz {

namespace {

/// Candidates with no other candidate strictly below them.
std::vector<ClassId> Minimal(const schema::SchemaGraph& schema,
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
std::vector<ClassId> Maximal(const schema::SchemaGraph& schema,
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

}  // namespace

classifier::Placement NaivePlacement(const schema::SchemaGraph& schema,
                                     ClassId cls) {
  std::vector<ClassId> classified;
  for (ClassId other : schema.AllClasses()) {
    if (other == cls) continue;
    auto node = schema.GetClass(other);
    if (!node.ok()) continue;
    if (node.value()->is_base() ||
        !schema.DirectSupers(other).value().empty() ||
        !schema.DirectSubs(other).value().empty()) {
      classified.push_back(other);
    }
  }
  classifier::Placement out;
  for (ClassId other : classified) {
    if (schema.IsDuplicateOf(cls, other)) {
      out.duplicate = other;
      return out;
    }
  }
  std::vector<ClassId> above, below;
  for (ClassId other : classified) {
    if (schema.IsaSubsumedBy(cls, other)) above.push_back(other);
    if (schema.IsaSubsumedBy(other, cls)) below.push_back(other);
  }
  out.supers = Minimal(schema, above);
  out.subs = Maximal(schema, below);
  return out;
}

std::vector<std::pair<ClassId, ClassId>> NaiveViewEdges(
    const schema::SchemaGraph& schema, const std::set<ClassId>& classes) {
  const std::vector<ClassId> order(classes.begin(), classes.end());
  const size_t n = order.size();
  std::vector<uint8_t> sub(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) sub[i * n + j] = schema.IsaSubsumedBy(order[i], order[j]);
    }
  }
  auto is_sub = [&](size_t a, size_t b) { return sub[a * n + b] != 0; };
  std::vector<std::pair<ClassId, ClassId>> edges;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a == b || !is_sub(a, b)) continue;
      // Equivalent classes: only the lower id (index) is the subclass.
      if (is_sub(b, a) && b < a) continue;
      bool direct = true;
      for (size_t c = 0; c < n && direct; ++c) {
        if (c == a || c == b) continue;
        direct = !(is_sub(a, c) && is_sub(c, b) && !is_sub(c, a) &&
                   !is_sub(b, c));
      }
      if (direct) edges.emplace_back(order[a], order[b]);
    }
  }
  return edges;
}

}  // namespace tse::fuzz
