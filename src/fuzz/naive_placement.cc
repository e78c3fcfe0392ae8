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

}  // namespace tse::fuzz
