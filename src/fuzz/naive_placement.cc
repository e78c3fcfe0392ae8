#include "fuzz/naive_placement.h"

#include <vector>

namespace tse::fuzz {

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
  for (ClassId other : classified) {
    if (schema.IsaSubsumedBy(cls, other)) out.super_candidates.push_back(other);
    if (schema.IsaSubsumedBy(other, cls)) out.sub_candidates.push_back(other);
  }
  return out;
}

}  // namespace tse::fuzz
