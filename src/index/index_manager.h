#ifndef TSE_INDEX_INDEX_MANAGER_H_
#define TSE_INDEX_INDEX_MANAGER_H_

#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "common/result.h"
#include "index/attr_index.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"

namespace tse::index {

/// A declared index: which property it covers and with which structure.
struct IndexSpec {
  PropertyDefId def;
  IndexKind kind = IndexKind::kHash;
};

/// Owns every secondary attribute index of one database and keeps them
/// incrementally maintained from the SlicingStore change journal — the
/// same pull-based contract the extent cache uses (DESIGN.md §6): each
/// probe first drains records since the last-seen cursor; a trimmed
/// journal (gap) rebuilds every index from a store scan.
///
/// Indexes key on PropertyDefId, which pins both the defining class and
/// the storage slot — exactly what ObjectAccessor resolves a (class,
/// attribute-name) pair to. That makes index answers version-correct
/// across schema change for free: a pinned session's select resolves to
/// the same PropertyDefId regardless of catalog epoch, and a class's
/// attributes read Null until a real write attaches its slice and
/// journals a kValueChanged record, so nothing is indexed before then.
///
/// Thread safety: every public method takes mu_. Callers must hold the
/// embedding layer's data latch (shared suffices — the manager never
/// mutates the store) so the store is not concurrently mutated.
class IndexManager {
 public:
  IndexManager(const schema::SchemaGraph* schema,
               objmodel::SlicingStore* store)
      : schema_(schema), store_(store) {}

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Declares and builds an index over the stored attribute `def`.
  /// Fails if `def` does not resolve, is a method, or is already
  /// indexed.
  Status CreateIndex(PropertyDefId def, IndexKind kind);

  Status DropIndex(PropertyDefId def);

  bool HasIndex(PropertyDefId def) const;

  /// Every declared index, sorted by PropertyDefId.
  std::vector<IndexSpec> List() const;

  /// Syncs and returns the statistics of `def`'s index, or nullopt
  /// (without syncing) when no such index exists.
  std::optional<IndexProbe> Probe(PropertyDefId def) const;

  /// Syncs, then appends every oid whose `def` value equals `key`.
  /// Returns false when `def` has no index.
  bool LookupEq(PropertyDefId def, const objmodel::Value& key,
                std::vector<Oid>* out) const;

  /// Syncs, then appends every oid whose `def` value satisfies
  /// `op key` (ordering ops, ordered indexes only). Returns false when
  /// the probe cannot be answered from an index.
  bool LookupRange(PropertyDefId def, objmodel::ExprOp op,
                   const objmodel::Value& key, std::vector<Oid>* out) const;

  size_t index_count() const;

  /// Total non-null entries across all indexes (test/bench aid).
  size_t total_entries() const;

 private:
  /// Drains journal records into the indexes; gap => rebuild all.
  void SyncLocked() const;
  /// Applies one journal record to every index it touches.
  void ApplyLocked(const objmodel::ChangeRecord& rec) const;
  void RebuildLocked(AttrIndex* ix) const;

  const schema::SchemaGraph* schema_;
  objmodel::SlicingStore* store_;
  mutable std::mutex mu_;
  mutable uint64_t journal_cursor_ = 0;
  /// PropertyDefId.value() -> index.
  mutable std::map<uint64_t, AttrIndex> indexes_;
};

}  // namespace tse::index

#endif  // TSE_INDEX_INDEX_MANAGER_H_
