#ifndef TSE_ALGEBRA_OBJECT_ACCESSOR_H_
#define TSE_ALGEBRA_OBJECT_ACCESSOR_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"

namespace tse::algebra {

/// Where a read looks: std::nullopt reads live state; a data epoch reads
/// the store's version chains as of that epoch (tse::Snapshot). An
/// optional rather than a sentinel epoch: ~0 is already
/// SlicingStore::kPendingEpoch.
using ReadPoint = std::optional<uint64_t>;

/// Schema-aware attribute and method access on objects.
///
/// Given a class context (the class through which the user addresses the
/// object — typically a view class), a property name resolves through
/// the class's effective type to its definition; stored attributes are
/// read from the definer's implementation object, methods are evaluated
/// with attribute reads bound to the same context.
class ObjectAccessor {
 public:
  ObjectAccessor(const schema::SchemaGraph* schema,
                 objmodel::SlicingStore* store)
      : schema_(schema), store_(store) {}

  /// Reads property `name` of `oid` in the context of `cls` at read
  /// point `at`. Methods are evaluated with attribute reads bound to the
  /// same context and read point; attributes are fetched from the
  /// definer's slice (Null when unset). Pinned reads come from the
  /// store's version chains (SlicingStore::GetValueAt).
  ///
  /// `name` may be a dotted path over Ref attributes ("advisor.name"):
  /// each prefix must resolve to a Ref-typed attribute whose declared
  /// target class provides the context for the next segment. A Null
  /// reference anywhere along the path reads as Null.
  Result<objmodel::Value> Read(Oid oid, ClassId cls, const std::string& name,
                               ReadPoint at = std::nullopt) const;

  /// Resolves `name` (single segment) at `cls` on `oid`, following the
  /// object's own most specific definition when several classes the
  /// object belongs to redefine the property — the paper's "upwards
  /// method resolution" (Section 6.2.3 footnote). Falls back to the
  /// static context when the object carries no overriding definition.
  Result<objmodel::Value> ReadDynamic(Oid oid, ClassId cls,
                                      const std::string& name) const;

  /// Writes stored attribute `name`; rejects methods and hidden names.
  Status Write(Oid oid, ClassId cls, const std::string& name,
               objmodel::Value value);

  /// An AttrResolver bound to (oid, cls, at), for predicate/method
  /// bodies.
  objmodel::AttrResolver ResolverFor(Oid oid, ClassId cls,
                                     ReadPoint at = std::nullopt) const;

  /// `pred` evaluated on `oid` through `cls` at `at`, as a boolean.
  Result<bool> Satisfies(const objmodel::MethodExpr& pred, Oid oid,
                         ClassId cls, ReadPoint at = std::nullopt) const;

  /// Appends every oid of `oids` that Satisfies() `pred` to `out` (a
  /// std::set or std::vector), in `oids` order; stops at the first
  /// evaluation error.
  template <typename Oids, typename Out>
  Status Filter(const objmodel::MethodExpr& pred, ClassId cls,
                const Oids& oids, ReadPoint at, Out* out) const {
    for (Oid oid : oids) {
      TSE_ASSIGN_OR_RETURN(bool keep, Satisfies(pred, oid, cls, at));
      if (keep) out->insert(out->end(), oid);
    }
    return Status::OK();
  }

  const schema::SchemaGraph* schema() const { return schema_; }
  objmodel::SlicingStore* store() const { return store_; }

 private:
  /// The stored value of attribute `def` on `oid` at `at`.
  Result<objmodel::Value> ReadStored(Oid oid, const schema::PropertyDef& def,
                                     ReadPoint at) const;

  const schema::SchemaGraph* schema_;
  objmodel::SlicingStore* store_;
};

}  // namespace tse::algebra

#endif  // TSE_ALGEBRA_OBJECT_ACCESSOR_H_
