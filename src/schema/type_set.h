#ifndef TSE_SCHEMA_TYPE_SET_H_
#define TSE_SCHEMA_TYPE_SET_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"

namespace tse::schema {

/// The *effective type* of a class: the set of property definitions
/// visible at it, indexed by name.
///
/// A name may map to several definitions (a multiple-inheritance
/// conflict the paper allows but marks ambiguous: the properties cannot
/// be invoked until the user renames one of them).
class TypeSet {
 public:
  TypeSet() = default;

  /// Adds `def` under `name`. Duplicate (name, def) pairs collapse;
  /// distinct defs under one name coexist as an ambiguity.
  void Add(const std::string& name, PropertyDefId def);

  /// Replaces any binding of `name` with exactly `def` (override
  /// semantics: a local property suppresses all inherited same-named
  /// ones).
  void Override(const std::string& name, PropertyDefId def);

  /// Removes every binding of `name`. Returns false if absent.
  bool RemoveName(const std::string& name);

  /// Removes the specific (name, def) binding.
  bool Remove(const std::string& name, PropertyDefId def);

  bool ContainsName(const std::string& name) const;
  bool Contains(const std::string& name, PropertyDefId def) const;
  bool IsAmbiguous(const std::string& name) const;

  /// Resolves `name` to its unique definition; fails with
  /// FailedPrecondition when ambiguous and NotFound when absent.
  Result<PropertyDefId> Lookup(const std::string& name) const;

  /// All bindings of `name` (empty when absent).
  std::vector<PropertyDefId> AllOf(const std::string& name) const;

  /// Merges every binding of `other` into this set.
  void MergeFrom(const TypeSet& other);

  /// Number of (name, def) bindings.
  size_t size() const;
  bool empty() const { return props_.empty(); }

  /// Names in sorted order.
  std::vector<std::string> Names() const;

  /// True when this type has every *name* of `other` (the subtype check
  /// used for is-a classification; overriding defs still count). Most
  /// failures are decided by the name signatures alone, without a string
  /// compare.
  bool CoversNamesOf(const TypeSet& other) const;

  /// The signature bit of `name`: one of 64, from a hash of the name.
  static uint64_t NameBit(const std::string& name);

  /// The OR of NameBit over every name in the set. A set covers the
  /// names of another only if its signature has all of the other's bits.
  uint64_t name_signature() const { return name_signature_; }

  /// True when the (name, def) binding sets are identical (the strict
  /// equality used for duplicate-class detection). The signature is a
  /// function of the names, so equal bindings have equal signatures.
  friend bool operator==(const TypeSet& a, const TypeSet& b) {
    return a.props_ == b.props_;
  }
  friend bool operator!=(const TypeSet& a, const TypeSet& b) {
    return !(a == b);
  }

  /// "name(defid), name2(defid2|defid3)" — deterministic rendering.
  std::string ToString() const;

  /// Iteration support: name -> sorted defs.
  const std::map<std::string, std::vector<PropertyDefId>>& bindings() const {
    return props_;
  }

 private:
  /// Recomputes name_signature_ after a name left the set (another name
  /// may share its bit).
  void RecomputeSignature();

  std::map<std::string, std::vector<PropertyDefId>> props_;
  uint64_t name_signature_ = 0;
};

}  // namespace tse::schema

#endif  // TSE_SCHEMA_TYPE_SET_H_
