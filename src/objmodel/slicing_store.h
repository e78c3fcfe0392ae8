#ifndef TSE_OBJMODEL_SLICING_STORE_H_
#define TSE_OBJMODEL_SLICING_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "objmodel/value.h"

namespace tse::objmodel {

/// One implementation object ("slice"): the fragment of a conceptual
/// object's state introduced by one class (Section 4 of the paper). It
/// carries its own object identifier and a back pointer to its
/// conceptual object, matching the bookkeeping the paper charges to the
/// object-slicing architecture in Table 1.
struct Slice {
  Oid impl_oid;
  Oid conceptual;
  /// PropertyDefId.value() -> stored value.
  std::unordered_map<uint64_t, Value> values;
};

/// One entry of the store's change journal: the smallest unit of state
/// change that can move a class extent or an attribute value. Consumers
/// subscribe by pulling records since their last-seen sequence number
/// and applying them as deltas instead of re-deriving from scratch;
/// falling behind the bounded journal (ChangesSince returns false)
/// means rebuild. Two consumers ride this contract today, each
/// through SlicingStore::DrainJournal: the extent cache
/// (algebra::ExtentEvaluator) and the secondary indexes
/// (index::IndexManager) — see docs/ARCHITECTURE.md.
struct ChangeRecord {
  enum class Kind : uint8_t {
    kObjectCreated,      ///< oid
    kObjectDestroyed,    ///< oid (membership removals precede this)
    kMembershipAdded,    ///< oid gained direct membership of cls
    kMembershipRemoved,  ///< oid lost direct membership of cls
    kValueChanged,       ///< prop of oid's cls slice changed value
  };
  uint64_t seq = 0;  ///< monotone, 1-based; gap-free within the journal
  Kind kind = Kind::kObjectCreated;
  Oid oid;
  ClassId cls;         ///< membership / value records only
  PropertyDefId prop;  ///< value records only
};

/// Aggregate bookkeeping statistics for Table 1 comparisons.
struct SlicingStats {
  size_t conceptual_objects = 0;
  size_t implementation_objects = 0;
  /// (1 + N_impl) oids per object.
  size_t total_oids = 0;
  /// (1+N_impl)*sizeof(oid) + N_impl*2*sizeof(pointer), summed.
  size_t managerial_bytes = 0;
};

/// The object-slicing object store: the TSE object model's answer to
/// multiple classification and dynamic restructuring (Section 4).
///
/// A conceptual object is represented by a hierarchy of implementation
/// objects, one per class that introduces stored state for it. Adding a
/// class's state to an existing object is O(1): attach a slice. Slices
/// of the same class are clustered in one arena, which is what makes
/// attribute-predicate scans fast (Table 1 "performance for queries").
///
/// The store is deliberately schema-agnostic: it maps (object, class,
/// property-def) to values and maintains direct class memberships.
/// Which slices an object *should* have, and what a class's effective
/// extent is, are the schema/update layers' business.
class SlicingStore {
 public:
  SlicingStore() = default;
  SlicingStore(const SlicingStore&) = delete;
  SlicingStore& operator=(const SlicingStore&) = delete;

  // --- Object lifecycle ------------------------------------------------

  /// Creates a conceptual object with no slices and no memberships.
  Oid CreateObject();

  /// Creates a conceptual object with a caller-chosen oid (used by the
  /// persistence bridge on reload). Fails if the oid is taken.
  Status CreateObjectWithOid(Oid oid);

  /// Destroys the object, all its slices, and its memberships.
  Status DestroyObject(Oid oid);

  bool Exists(Oid oid) const { return objects_.count(oid.value()) != 0; }
  size_t object_count() const { return objects_.size(); }

  // --- Slices (implementation objects) ---------------------------------

  /// Attaches a slice of `cls` to `oid` (idempotent — "dynamic
  /// restructuring" when a capacity-augmenting class reaches the object).
  Status AddSlice(Oid oid, ClassId cls);

  /// AddSlice with a caller-chosen implementation oid (persistence
  /// reload path; keeps impl identities stable across restarts).
  Status AddSliceWithImplOid(Oid oid, ClassId cls, Oid impl_oid);

  /// Implementation oid of `oid`'s slice for `cls`.
  Result<Oid> SliceImplOid(Oid oid, ClassId cls) const;

  /// All values stored in `oid`'s slice of `cls` (PropertyDefId.value()
  /// -> value). Fails if the slice does not exist.
  Result<std::unordered_map<uint64_t, Value>> SliceValues(Oid oid,
                                                          ClassId cls) const;

  /// Detaches the `cls` slice, discarding its values.
  Status RemoveSlice(Oid oid, ClassId cls);

  bool HasSlice(Oid oid, ClassId cls) const;

  /// Classes for which `oid` currently carries a slice (sorted).
  std::vector<ClassId> SliceClasses(Oid oid) const;

  // --- Values -----------------------------------------------------------

  /// Writes `def` in `oid`'s slice of `cls`, creating the slice lazily.
  Status SetValue(Oid oid, ClassId cls, PropertyDefId def, Value value);

  /// Reads `def` from `oid`'s slice of `cls`. A missing slice or an
  /// unset property reads as Null (the paper's default-value story for
  /// freshly augmented objects).
  Result<Value> GetValue(Oid oid, ClassId cls, PropertyDefId def) const;

  // --- Direct class membership ------------------------------------------

  /// Records that `oid` was created in / added to class `cls`.
  Status AddMembership(Oid oid, ClassId cls);

  /// Removes the direct membership.
  Status RemoveMembership(Oid oid, ClassId cls);

  bool HasMembership(Oid oid, ClassId cls) const;

  /// Direct memberships of `oid` (sorted).
  std::vector<ClassId> DirectClasses(Oid oid) const;

  /// Objects whose direct membership set contains `cls`.
  const std::set<Oid>& DirectExtent(ClassId cls) const;

  // --- Scans -------------------------------------------------------------

  /// Clustered scan over all slices of `cls`:
  /// `fn(conceptual_oid, values)`.
  void ForEachSlice(
      ClassId cls,
      const std::function<void(Oid, const std::unordered_map<uint64_t, Value>&)>&
          fn) const;

  /// Visits every conceptual object.
  void ForEachObject(const std::function<void(Oid)>& fn) const;

  // --- Accounting ---------------------------------------------------------

  SlicingStats Stats() const;

  /// Monotone counter bumped by every mutation that actually changed
  /// state that can move a class extent (object lifecycle, memberships,
  /// and value writes — select predicates read values). Failed and no-op
  /// writes (same value, already-present membership) do NOT bump it, so
  /// extent caches keyed on it survive them.
  uint64_t mutation_count() const { return mutations_; }

  // --- Change journal ------------------------------------------------------

  /// Sequence number of the newest journal record (0 when nothing has
  /// ever changed). A consumer at this cursor is fully caught up.
  uint64_t journal_head() const { return journal_next_seq_ - 1; }

  /// Appends every record with seq > `cursor` to `out` (oldest first).
  /// Returns false when records past `cursor` have already been trimmed
  /// from the bounded journal — the consumer fell too far behind and
  /// must rebuild from scratch instead of applying deltas.
  bool ChangesSince(uint64_t cursor, std::vector<ChangeRecord>* out) const;

  /// The one journal-drain loop every delta consumer runs over its own
  /// `*cursor`: already at the head, nothing to do; nothing
  /// `materialized`, jump to the head; records past the cursor trimmed
  /// (see ChangesSince), `on_gap()` rebuilds; otherwise
  /// `apply(records)` sees every record past the cursor, oldest first.
  /// The cursor then moves to the head.
  template <typename OnGap, typename Apply>
  void DrainJournal(uint64_t* cursor, bool materialized, OnGap on_gap,
                    Apply apply) const {
    const uint64_t head = journal_head();
    if (*cursor == head) return;
    if (materialized) {
      std::vector<ChangeRecord> records;
      if (ChangesSince(*cursor, &records)) {
        apply(records);
      } else {
        on_gap();
      }
    }
    *cursor = head;
  }

  /// Journal capacity; records older than the newest `kJournalCapacity`
  /// are trimmed. Deliberately generous: an extent evaluator consulted
  /// anywhere near once per `kJournalCapacity` writes never rebuilds.
  static constexpr size_t kJournalCapacity = 8192;

  /// Allocator access for the persistence bridge.
  IdAllocator<Oid>& oid_allocator() { return oid_alloc_; }

  // --- MVCC version chains ---------------------------------------------
  //
  // Undo-based multi-versioning for snapshot reads (docs/ARCHITECTURE.md,
  // DESIGN.md §13). The live maps above always hold the *newest* state;
  // whenever a mutation supersedes committed state while an MVCC stamp
  // context is active, the *pre-image* is pushed onto a version chain,
  // stamped with the epoch at which the old state stopped being current.
  // A snapshot pinned at epoch E reads the chain entry with the smallest
  // epoch > E (earliest-appended on ties) and falls back to the live
  // state when no entry applies. Capture is off when no context is
  // active (persistence reload, direct-store tests), so those paths
  // record nothing and cost nothing.

  /// Epoch stamp carried by version entries whose transaction has not
  /// committed yet. Greater than every real epoch, so pending pre-images
  /// mask the txn's uncommitted live mutations from every snapshot.
  static constexpr uint64_t kPendingEpoch = ~0ull;

  /// Arms capture for one auto-committed operation: pre-images produced
  /// until EndMvccOp() are stamped `epoch` (the epoch the operation's
  /// commit will publish).
  void BeginMvccOp(uint64_t epoch);

  /// Arms capture for a transactional operation: pre-images are stamped
  /// kPendingEpoch and tagged `marker` (the txn id, nonzero) so
  /// StampPending/DropPending can resolve them at commit/rollback.
  void BeginMvccPending(uint64_t marker);

  /// Disarms capture.
  void EndMvccOp();

  /// Commit: stamps every pending entry tagged `marker` with `epoch`.
  void StampPending(uint64_t marker, uint64_t epoch);

  /// Rollback: discards every pending entry tagged `marker` (the undo
  /// replay restored the live state, so the pre-images are redundant).
  void DropPending(uint64_t marker);

  /// Trims version entries no snapshot can reach: an entry stamped
  /// epoch <= `horizon` is dead once every live snapshot reads at an
  /// epoch >= `horizon`. Returns the number of entries reclaimed.
  size_t VacuumVersions(uint64_t horizon);

  /// Total version entries currently retained (all chains).
  size_t version_entry_count() const;

  // Epoch-bound reads. Semantics mirror the live readers, evaluated as
  // of epoch `epoch`: Exists/GetValue/HasMembership/DirectExtent.
  bool ExistsAt(Oid oid, uint64_t epoch) const;
  Result<Value> GetValueAt(Oid oid, ClassId cls, PropertyDefId def,
                           uint64_t epoch) const;
  bool HasMembershipAt(Oid oid, ClassId cls, uint64_t epoch) const;
  /// Live direct extent adjusted by membership/existence chains; returns
  /// by value (a snapshot must not alias mutable live state).
  std::set<Oid> DirectExtentAt(ClassId cls, uint64_t epoch) const;

 private:
  struct ConceptualObject {
    Oid oid;
    std::set<ClassId> direct_classes;
    /// ClassId.value() -> index into the class's slice arena.
    std::unordered_map<uint64_t, size_t> slices;
  };

  /// Swap-removes arena slot `index` of class `cls`, fixing up the
  /// displaced slice's owner.
  void ArenaRemove(uint64_t cls, size_t index);

  /// Bumps the mutation counter and appends a journal record.
  void Record(ChangeRecord::Kind kind, Oid oid, ClassId cls = ClassId(),
              PropertyDefId prop = PropertyDefId());

  Result<ConceptualObject*> Find(Oid oid);
  Result<const ConceptualObject*> Find(Oid oid) const;

  // --- MVCC internals ----------------------------------------------------

  /// Pre-image of a stored value: what (oid, cls, def) read before the
  /// mutation stamped `epoch` superseded it. A missing slice / unset
  /// property reads Null, so Null doubles as the "was absent" pre-image
  /// (exactly the live GetValue contract).
  struct ValueVersion {
    uint64_t epoch = 0;
    uint64_t marker = 0;
    Value old_value;
  };
  /// Pre-image of a direct membership bit for (oid, cls).
  struct MemberVersion {
    uint64_t epoch = 0;
    uint64_t marker = 0;
    bool was_member = false;
  };
  /// Pre-image of object existence for oid.
  struct ExistVersion {
    uint64_t epoch = 0;
    uint64_t marker = 0;
    bool existed = false;
  };

  struct MvccContext {
    bool active = false;
    uint64_t epoch = 0;   ///< stamp for auto-commit capture
    uint64_t marker = 0;  ///< nonzero => pending (transactional) capture
  };

  /// Which chain a pending entry lives in, by key (deque-stable: entries
  /// are only appended while pending, never erased from the middle).
  struct PendingRef {
    enum Kind : uint8_t { kValue, kMember, kExist };
    Kind kind = kValue;
    uint64_t oid = 0;
    uint64_t cls = 0;
    uint64_t def = 0;
  };

  using ValueKey = std::tuple<uint64_t, uint64_t, uint64_t>;  // oid, cls, def
  using MemberKey = std::pair<uint64_t, uint64_t>;            // oid, cls

  bool capture_active() const { return mvcc_ctx_.active; }
  /// Pre-image push sites (no-ops unless a stamp context is active).
  void CaptureValue(Oid oid, ClassId cls, PropertyDefId def,
                    const Value& old_value);
  void CaptureMembership(Oid oid, ClassId cls, bool was_member);
  void CaptureExistence(Oid oid, bool existed);

  MvccContext mvcc_ctx_;
  std::map<ValueKey, std::deque<ValueVersion>> value_chains_;
  std::map<MemberKey, std::deque<MemberVersion>> member_chains_;
  std::map<uint64_t, std::deque<ExistVersion>> exist_chains_;
  /// ClassId.value() -> oids with a membership chain touching that class
  /// (lets DirectExtentAt adjust the live extent without a full scan).
  std::map<uint64_t, std::set<Oid>> member_chain_by_class_;
  /// marker -> chains holding that txn's pending entries.
  std::unordered_map<uint64_t, std::vector<PendingRef>> pending_refs_;
  size_t version_entries_ = 0;

  IdAllocator<Oid> oid_alloc_;
  uint64_t mutations_ = 0;
  uint64_t journal_next_seq_ = 1;
  std::deque<ChangeRecord> journal_;
  std::unordered_map<uint64_t, ConceptualObject> objects_;
  /// ClassId.value() -> clustered slice arena.
  std::unordered_map<uint64_t, std::vector<Slice>> arenas_;
  /// ClassId.value() -> direct extent.
  std::unordered_map<uint64_t, std::set<Oid>> extents_;
  std::set<Oid> empty_extent_;
};

}  // namespace tse::objmodel

#endif  // TSE_OBJMODEL_SLICING_STORE_H_
