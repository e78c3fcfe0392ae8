#ifndef TSE_UPDATE_BACKFILL_H_
#define TSE_UPDATE_BACKFILL_H_

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"

namespace tse::algebra {
class ExtentEvaluator;
}  // namespace tse::algebra

namespace tse::update {

/// Lazy materialization of capacity-augmenting implementation objects
/// (DESIGN.md §10).
///
/// A published refine class with fresh stored attributes gives every
/// member a new implementation-object slice. The eager path materializes
/// those slices for the whole extent inside the schema-change latch; the
/// online path instead registers a *backfill task* — the member set
/// still lacking the slice — and materializes per object on first touch
/// (read, update, extent scan) or from the background migrator's
/// bounded-work passes. Because a fresh slice carries no values (reads
/// of its attributes return Null either way, the paper's default-value
/// story), materialization is semantically invisible; the two paths are
/// differential-tested against each other by the fuzzer's lazy-vs-eager
/// mode.
///
/// Exactly-once: an oid is materialized by whoever erases it from the
/// pending set, under mu_. Slice *absence* in the durable store is the
/// crash-recovery marker — RecoverPending rebuilds the pending sets from
/// it at bootstrap, so a crash mid-backfill loses no work and repeats
/// none that was persisted.
///
/// Locking: mu_ guards the task table; the store mutations performed
/// during materialization rely on the embedding layer's data latch
/// (callers hold it exclusive — see src/db/session.cc). mu_ nests inside
/// the data latch and takes no other lock while held except the schema
/// graph's internal read locks.
class BackfillManager {
 public:
  BackfillManager(const schema::SchemaGraph* schema,
                  objmodel::SlicingStore* store)
      : schema_(schema), store_(store) {}

  BackfillManager(const BackfillManager&) = delete;
  BackfillManager& operator=(const BackfillManager&) = delete;

  /// Registers backfill tasks for every capacity-augmenting refine
  /// class whose id lies in [class_lo, class_hi) — the classes a just-
  /// applied schema change created. The pending set is the class extent
  /// at publish time minus members already sliced. Returns the number
  /// of tasks registered. Caller holds the data latch (shared suffices:
  /// extents are read, nothing is materialized here).
  size_t RegisterNewClasses(uint64_t class_lo, uint64_t class_hi,
                            const algebra::ExtentEvaluator* extents);

  /// Bootstrap-time recovery: scans the whole schema for capacity-
  /// augmenting refine classes and registers a task for any member
  /// still lacking its slice. Returns the number of pending objects
  /// found.
  size_t RecoverPending(const algebra::ExtentEvaluator* extents);

  /// True when any object is still pending. Lock-free; the read-path
  /// fast guard (one acquire load — free on x86 — when no backfill is
  /// in flight).
  bool pending_any() const {
    return pending_count_.load(std::memory_order_acquire) > 0;
  }

  /// True when `oid` is pending in some task. Takes mu_ only after the
  /// lock-free pending_any() guard passes.
  bool MaybePending(Oid oid) const;

  /// Materializes every slice `oid` is still pending for. Returns the
  /// number of slices created. Caller holds the data latch exclusive.
  size_t MaterializeObject(Oid oid);

  /// Materializes all pending members of `oids` (sorted; extent-scan
  /// first touch). Returns the number of slices created. Caller holds
  /// the data latch exclusive.
  size_t MaterializeMembers(const std::vector<Oid>& oids);

  /// One bounded background-migration pass: materializes up to `budget`
  /// pending objects, appending each touched oid to `touched` (for
  /// durable persistence by the caller). Returns the number of slices
  /// created. Caller holds the data latch exclusive.
  size_t RunBudget(size_t budget, std::vector<Oid>* touched);

  /// Total objects still pending (across tasks; an oid pending for two
  /// classes counts twice). Acquire-ordered against the release
  /// decrements, so a thread that observes 0 also observes every slice
  /// materialized so far — "wait for pending_count() == 0, then read"
  /// is a valid drain pattern without further locking.
  size_t pending_count() const {
    return pending_count_.load(std::memory_order_acquire);
  }

  size_t task_count() const;

 private:
  /// One capacity-augmenting class awaiting backfill.
  struct Task {
    ClassId definer;
    std::set<Oid> pending;
  };

  /// True when `cls` introduces fresh stored attributes (refine with an
  /// added kAttribute definition stored at the class itself).
  bool IsCapacityAugmenting(ClassId cls) const;

  size_t RegisterTaskLocked(ClassId cls,
                            const algebra::ExtentEvaluator* extents);

  const schema::SchemaGraph* schema_;
  objmodel::SlicingStore* store_;
  mutable std::mutex mu_;
  /// ClassId.value() -> task. A task is removed when its pending set
  /// drains.
  std::map<uint64_t, Task> tasks_;
  std::atomic<size_t> pending_count_{0};
};

}  // namespace tse::update

#endif  // TSE_UPDATE_BACKFILL_H_
