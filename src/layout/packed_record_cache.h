#ifndef TSE_LAYOUT_PACKED_RECORD_CACHE_H_
#define TSE_LAYOUT_PACKED_RECORD_CACHE_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "layout/layout_advisor.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"

namespace tse::layout {

/// An adaptive intersection-style read cache over the object-slicing
/// store (DESIGN.md §12).
///
/// The paper's Table 1 contrasts object slicing (one implementation
/// object per class: flexible, but a conceptual object's state is
/// scattered across slices) with intersection-class layouts (one
/// compact record per object: fewer reads, but rigid). This cache makes
/// that a *dynamic, per-class* choice: slicing stays the logical model
/// and source of truth, and for each *promoted* hot class the cache
/// materializes one contiguous packed record per member object,
/// co-locating every attribute of the class's effective type — the
/// attributes otherwise spread over all of the object's slices. Records
/// are stored column-major (struct-of-arrays), so the select planner's
/// batch arm can run a clustered pass over one attribute block without
/// touching the slice arenas at all.
///
/// ## Maintenance contract
///
/// The cache is the third consumer of the SlicingStore change journal,
/// under exactly the contract the extent cache (DESIGN.md §6) and the
/// IndexManager (§11) follow: every public probe first drains records
/// since its last-seen cursor; a trimmed journal (gap) rebuilds every
/// packed class from a store scan. Rows key on *journaled direct
/// memberships* — never on slice presence. A slice attaches silently
/// on its class's first write (DESIGN.md §10), and that write journals
/// kValueChanged; an object with no slice reads Null, which is exactly
/// what its packed cells hold.
///
/// ## Schema-change invalidation
///
/// A published catalog version that redefines a promoted class or
/// shifts name resolution migrates the packed layout: on the first
/// probe after schema_->generation() moves, every packed class whose
/// class_version() or the global invalidate_floor() changed since its
/// build is rebuilt against the new effective type (counted as
/// layout.migrations), and packed classes whose class vanished are
/// dropped. Evolution-created classes (add_attribute makes a new refine
/// class) carry new ClassIds, so pinned old versions keep their packed
/// layout untouched — the same version-correctness indexes get from
/// keying on PropertyDefId.
///
/// ## Correctness invariant
///
/// After a sync, for every packed class P, row r of P, and column d:
/// cell(r, d) == store->GetValue(rows[r], definer(d), d). A probe hit
/// therefore returns exactly what the slice read would have; row misses
/// fall back to slice reads. For *base* classes the row set equals the
/// extent evaluator's base extent (union of provably-subsumed direct
/// extents), making the column blocks complete for scans
/// (scan_complete); pinned virtual classes may under-cover and serve
/// point reads only.
///
/// Thread safety: every public method takes mu_ (the IndexManager
/// pattern); callers must hold the embedding layer's data latch (shared
/// suffices — the cache never mutates the store).
class PackedRecordCache {
 public:
  PackedRecordCache(const schema::SchemaGraph* schema,
                    objmodel::SlicingStore* store,
                    AdvisorOptions advisor_options = {});

  PackedRecordCache(const PackedRecordCache&) = delete;
  PackedRecordCache& operator=(const PackedRecordCache&) = delete;

  // --- Manual overrides (Db facade DDL surface) --------------------------

  /// Promotes `cls` now and pins it: the advisor never demotes it.
  /// Idempotent (re-pinning an already-pinned class is OK). Fails when
  /// the class does not exist or packs no stored attribute.
  Status Pin(ClassId cls);

  /// Removes the pin and demotes immediately (the advisor re-promotes
  /// later if the class is genuinely hot). NotFound when not pinned.
  Status Unpin(ClassId cls);

  /// Pinned classes in id order (persisted in the catalog by tse::Db).
  std::vector<ClassId> Pinned() const;

  bool IsPromoted(ClassId cls) const;
  size_t promoted_count() const;

  // --- Read path ----------------------------------------------------------

  /// Probes the packed layouts for `def` on `oid` and feeds the advisor
  /// one point read of def.definer. On a hit fills `*out` with the cell
  /// (exactly what the slice read returns, Null included) and returns
  /// true; a miss (class not promoted, or oid not a packed row) returns
  /// false and the caller falls back to slice reads.
  bool TryGetPacked(Oid oid, const schema::PropertyDef& def,
                    objmodel::Value* out) const;

  /// Hands the packed column of (cls, def) to `fn` as a struct-of-arrays
  /// block — `row_of` maps oid -> slot, `cells[slot]` is the value —
  /// and feeds the advisor one scan of `cls`. Returns false (without
  /// calling `fn`) when `cls` is not promoted scan-complete or does not
  /// pack `def`. The block is only valid inside `fn`.
  bool WithColumn(
      ClassId cls, PropertyDefId def,
      const std::function<void(const std::unordered_map<uint64_t, size_t>& row_of,
                               const std::vector<objmodel::Value>& cells)>& fn)
      const;

  // --- Introspection --------------------------------------------------------

  struct ClassStats {
    ClassId cls;
    bool promoted = false;
    bool pinned = false;
    bool scan_complete = false;  ///< base class: rows cover the extent
    size_t rows = 0;
    size_t columns = 0;
    uint64_t hits = 0;  ///< point-read cells served since promotion
    uint64_t window_point_reads = 0;
    uint64_t window_scans = 0;
    std::string state;  ///< "pinned" / "auto" / "cold"
  };

  /// Stats for `cls` (valid for unpromoted classes too — state "cold").
  /// Fails only when the class does not exist.
  Result<ClassStats> Explain(ClassId cls) const;

  /// Stats for every currently promoted class, in id order.
  std::vector<ClassStats> ExplainAll() const;

  const AdvisorOptions& advisor_options() const {
    return advisor_.options();
  }

 private:
  struct Column {
    PropertyDefId def;
    ClassId definer;
    std::vector<objmodel::Value> cells;  ///< parallel to rows
  };
  struct PackedClass {
    ClassId cls;
    bool pinned = false;
    bool scan_complete = false;
    uint64_t class_version = 0;  ///< schema_->class_version at build time
    uint64_t floor = 0;          ///< schema_->invalidate_floor at build time
    std::vector<Oid> rows;
    std::unordered_map<uint64_t, size_t> row_of;  ///< oid -> slot
    std::vector<Column> columns;
    std::unordered_map<uint64_t, size_t> col_of;  ///< def -> column index
    uint64_t hits = 0;
  };
  struct Window {
    uint64_t point_reads = 0;
    uint64_t scans = 0;
  };

  /// Schema invalidation + journal drain; gap => rebuild all.
  void SyncLocked() const;
  /// Applies one journal record to every packed class it touches.
  void ApplyLocked(const objmodel::ChangeRecord& rec) const;
  void CheckSchemaLocked() const;
  /// (Re)derives columns, rows, and cells from a store scan.
  Status BuildLocked(PackedClass* pc) const;
  void AddRowLocked(PackedClass* pc, Oid oid) const;
  void RemoveRowLocked(PackedClass* pc, Oid oid) const;
  /// Live membership of `oid` in pc->cls (direct membership of a
  /// provably subsumed class).
  bool MemberLocked(const PackedClass& pc, Oid oid) const;
  Status PromoteLocked(ClassId cls, bool pinned) const;
  void DemoteLocked(ClassId cls) const;
  void RebuildDefMapLocked() const;
  /// Advisor feed: bumps the window and runs a policy tick every
  /// decision_interval events.
  void NoteLocked(ClassId cls, bool scan) const;
  void TickLocked() const;
  bool EligibleLocked(ClassId cls) const;

  const schema::SchemaGraph* schema_;
  objmodel::SlicingStore* store_;
  LayoutAdvisor advisor_;

  mutable std::mutex mu_;
  mutable uint64_t journal_cursor_ = 0;
  mutable uint64_t synced_generation_ = 0;
  mutable bool synced_once_ = false;
  /// ClassId.value() -> packed layout.
  mutable std::map<uint64_t, PackedClass> packed_;
  /// PropertyDefId.value() -> packed classes holding a column for it.
  mutable std::unordered_map<uint64_t, std::vector<uint64_t>> def_map_;
  mutable std::set<uint64_t> pins_;
  /// Advisor decision window.
  mutable std::map<uint64_t, Window> window_;
  mutable uint64_t window_events_ = 0;
  mutable std::atomic<size_t> promoted_count_{0};
};

}  // namespace tse::layout

#endif  // TSE_LAYOUT_PACKED_RECORD_CACHE_H_
