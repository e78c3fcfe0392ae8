#ifndef TSE_ALGEBRA_EXTENT_EVAL_H_
#define TSE_ALGEBRA_EXTENT_EVAL_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "algebra/extent_deps.h"
#include "algebra/object_accessor.h"
#include "algebra/planner.h"
#include "common/result.h"
#include "index/index_manager.h"
#include "objmodel/slicing_store.h"
#include "schema/schema_graph.h"

namespace tse::algebra {

/// Computes class extents, live or as of a snapshot's data epoch.
///
/// Base class extents are the union of the direct extents of every base
/// class provably subsumed by it (objects record direct memberships on
/// base classes only — the update layer guarantees that invariant).
/// Virtual class extents are evaluated from the defining algebra
/// expression, exactly per the operator semantics of Section 3.2, by one
/// set-level interpreter (Eval) and one per-oid interpreter (Member);
/// live and pinned reads differ only in the read point they pass down.
///
/// Evaluated extents are cached and maintained *incrementally* — the
/// "optimization strategies for update propagation" the paper defers to
/// future work (Section 9). Instead of dropping the whole cache on any
/// write, the evaluator pulls per-object deltas from the store's change
/// journal and routes each through the DerivationDepGraph to exactly
/// the affected cached classes:
///
///   - a membership delta at base class B updates the cached extents of
///     the base classes subsuming B, then propagates the one changed
///     oid upward through dependent virtual classes;
///   - select nodes re-evaluate their predicate on the changed oid
///     only; hide/refine/union/intersect/difference recompute the one
///     oid's membership from their (cached) sources as set deltas;
///   - propagation prunes wherever a class's membership did not
///     actually change, so untouched subtrees keep their extents;
///   - schema growth extends the dependency graph with the new classes
///     and only drops cache entries whose per-class version moved.
///
/// Cached extents are handed out as shared immutable snapshots; delta
/// application copies-on-write when a snapshot is still referenced.
///
/// Thread safety: the evaluator may be shared by many concurrent
/// readers (tse::Db hands one instance to every session). Cache hits on
/// a fully synced cache take a shared lock; any path that has to sync
/// the journal, fill an entry, or drop entries upgrades to the
/// exclusive lock. The schema graph and store must not be *mutated*
/// concurrently with evaluator calls — the embedding layer guarantees
/// that with its schema/data latches (see src/db/db.h).
class ExtentEvaluator {
 public:
  /// An immutable shared snapshot of a class extent. Cheap to return on
  /// a cache hit (no per-call set copy); stable while the caller holds
  /// it even if the evaluator keeps applying deltas underneath.
  using ExtentPtr = std::shared_ptr<const std::set<Oid>>;

  /// Counters for the cache, read through stats().
  struct CacheStats {
    uint64_t hits = 0;            ///< Extent()/IsMember() served from cache
    uint64_t misses = 0;          ///< cold evaluations (cache fills)
    uint64_t delta_records = 0;   ///< journal records applied incrementally
    uint64_t delta_updates = 0;   ///< single-oid cache updates performed
    uint64_t full_rebuilds = 0;   ///< whole-cache drops (gap/baseline/fallback)
    uint64_t entries_invalidated = 0;  ///< entries dropped by schema changes
    uint64_t delta_eval_errors = 0;    ///< delta-apply predicate errors
                                       ///< (each forced a fallback rebuild)

    double HitRate() const {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  ExtentEvaluator(const schema::SchemaGraph* schema,
                  objmodel::SlicingStore* store)
      : schema_(schema), store_(store), accessor_(schema, store) {}

  /// The global extent of `cls` as a shared snapshot.
  Result<ExtentPtr> Extent(ClassId cls) const;

  /// The global extent of `cls` copied out in oid order. The copy is
  /// taken under the cache lock: a caller that reads a held ExtentPtr
  /// and then drops it is ordered against a later in-place delta only
  /// through the pointer's relaxed use count.
  Result<std::vector<Oid>> ExtentVector(ClassId cls) const;

  /// Membership test. Served from the cache when the class's extent is
  /// materialized; otherwise walks the derivation per object —
  /// O(derivation depth), not O(extent) — so the update operators'
  /// value-closure and membership checks stay cheap on large databases.
  Result<bool> IsMember(Oid oid, ClassId cls) const;

  /// The extent of `cls` as of data epoch `epoch`, derived fresh from
  /// the store's version chains (SlicingStore::DirectExtentAt /
  /// GetValueAt) by the same interpreter as Extent(). Purely const: it
  /// never touches the shared cache, the journal cursor, or the planner
  /// — the index and batch arms read *live* state and are ineligible at
  /// a pinned epoch, so selects always take the classic per-oid arm
  /// with an epoch-bound resolver. Safe under the embedding layer's
  /// shared latches; serves tse::Snapshot reads.
  Result<std::set<Oid>> ExtentAt(ClassId cls, uint64_t epoch) const;

  /// The members of `cls`'s live extent that satisfy `pred` (read
  /// through `cls`), in oid order: an ad-hoc select (Session::Select).
  /// It runs the planned dispatch a select derivation runs, so an
  /// `attr op literal` predicate gets the index or arena pass; the
  /// status on a predicate error is the classic filter's.
  Result<std::vector<Oid>> Select(ClassId cls,
                                  const objmodel::MethodExpr& pred) const;

  /// Toggles incremental maintenance. When off, the evaluator reverts
  /// to whole-cache invalidation on any data write or schema change —
  /// the pre-optimization behaviour, kept as the cold oracle for tests.
  void set_incremental(bool on) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    incremental_ = on;
  }
  bool incremental() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return incremental_;
  }

  /// Wires in the secondary-index manager the select planner may probe.
  /// May stay null (no index manager => classic/batch plans only).
  void set_index_manager(const index::IndexManager* indexes) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    indexes_ = indexes;
  }

  /// Planner policy for select derivations (default kAuto). The force
  /// modes drive benchmarks and the fuzzer's differential arms.
  void set_planner_mode(PlannerMode mode) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    planner_mode_ = mode;
  }
  PlannerMode planner_mode() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return planner_mode_;
  }

  /// Plans `cls` (which must be a select derivation) against the
  /// current store without executing it — the `explain` surface. Fills
  /// the source extent cache as a side effect.
  Result<SelectPlan> ExplainSelect(ClassId cls) const;

  /// Drops `cls`'s cache entry (and every dependent); the next Extent()
  /// call re-derives it. Benchmark/test aid for timing cold
  /// evaluations without discarding the rest of the cache.
  void Invalidate(ClassId cls) const;
  void InvalidateAll() const;

  /// Journal batches at least this large abandon per-record delta
  /// maintenance and rebuild lazily instead — the cost-based cutover
  /// between plan arm (a) and a fresh derivation.
  static constexpr size_t kDeltaAbandonThreshold =
      objmodel::SlicingStore::kJournalCapacity / 2;

  /// Point-in-time snapshot of the cache counters (counters are relaxed
  /// atomics internally so concurrent sessions can bump them in
  /// parallel).
  CacheStats stats() const;
  void ResetStats();

 private:
  struct Entry {
    std::shared_ptr<std::set<Oid>> extent;
    uint64_t class_version = 0;  ///< schema_->class_version at fill time
    uint64_t floor = 0;          ///< schema_->invalidate_floor at fill time
  };
  /// "Membership of `oid` in `cls` may have changed — recompute."
  using WorkItem = std::pair<ClassId, Oid>;

  /// Relaxed-atomic twins of CacheStats, bumpable under the shared
  /// lock.
  struct AtomicStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> delta_records{0};
    std::atomic<uint64_t> delta_updates{0};
    std::atomic<uint64_t> full_rebuilds{0};
    std::atomic<uint64_t> entries_invalidated{0};
    std::atomic<uint64_t> delta_eval_errors{0};
  };

  /// True when the cache already reflects the current schema generation
  /// and store journal head, i.e. Sync() would be a no-op. Requires at
  /// least the shared lock.
  bool IsSyncedLocked() const;

  /// Brings the cache up to date with the schema (dependency graph,
  /// per-class invalidation) and the store (journal delta application).
  /// Never fails: delta-application errors fall back to a full drop.
  /// Requires the exclusive lock.
  void Sync() const;
  Status ApplyRecord(const objmodel::ChangeRecord& rec) const;
  Status Propagate(std::deque<WorkItem>* work) const;
  /// Drops `cls`'s entry and every cached transitive dependent.
  void DropEntryAndDependents(ClassId cls) const;
  void DropAll() const;
  std::set<Oid>* MutableSet(Entry* entry) const;
  /// Runs `fn` on a synced cache: under the shared lock when the cache
  /// is already synced, else under the exclusive lock after Sync().
  /// `fn(exclusive)` returns its answer, or std::nullopt under the
  /// shared lock to ask for the exclusive one.
  template <typename Fn>
  auto Synced(Fn fn) const ->
      typename std::invoke_result_t<Fn, bool>::value_type;
  /// Extent/ExtentVector body: runs `fn` on the (synced) cached extent
  /// with the cache lock still held.
  template <typename Fn>
  auto WithExtent(ClassId cls, Fn fn) const
      -> Result<decltype(fn(ExtentPtr()))>;

  /// The set-level interpreter: the extent of `cls` at read point `at`,
  /// memoized per derivation node. Live reads memoize into cache_
  /// (stamped entries; requires the exclusive lock) and select through
  /// the planner; pinned reads memoize into the call-local `pinned` map,
  /// never reading or filling cache_, and select with an epoch-bound
  /// resolver. The pointer stays valid until its memo entry is dropped.
  /// No cycle guard: a derivation's sources exist before it (see
  /// SchemaGraph::ValidateDerivation) and never change afterwards.
  Result<const std::set<Oid>*> Eval(
      ClassId cls, ReadPoint at,
      std::map<ClassId, std::set<Oid>>* pinned) const;
  /// The per-oid interpreter: `oid`'s live membership in `cls`
  /// recomputed from its derivation, reading each source's cached set
  /// when materialized and walking the source's derivation when not.
  /// Never consults `cls`'s own entry (delta propagation recomputes it).
  /// Requires at least the shared lock on a synced cache.
  Result<bool> Member(ClassId cls, Oid oid) const;
  /// The select dispatch, shared by select derivations and Select():
  /// fills `out` with the members of `source` (live members of
  /// `source_cls`) that satisfy `pred`, on the planner's chosen arm.
  /// Requires at least the shared lock on a synced cache.
  Status EvalSelect(ClassId source_cls, const objmodel::MethodExpr& pred,
                    const std::set<Oid>& source, std::set<Oid>* out) const;

  const schema::SchemaGraph* schema_;
  objmodel::SlicingStore* store_;
  ObjectAccessor accessor_;
  const index::IndexManager* indexes_ = nullptr;
  PlannerMode planner_mode_ = PlannerMode::kAuto;
  bool incremental_ = true;
  /// Guards every mutable member below (and incremental_). Cache hits
  /// on a synced cache hold it shared; sync/fill/invalidation hold it
  /// exclusive.
  mutable std::shared_mutex mu_;
  mutable std::map<ClassId, Entry> cache_;
  mutable DerivationDepGraph deps_;
  mutable uint64_t synced_generation_ = 0;
  mutable bool synced_once_ = false;
  mutable uint64_t journal_cursor_ = 0;
  mutable uint64_t cached_mutations_ = 0;  ///< baseline-mode cache key
  mutable AtomicStats stats_;
};

}  // namespace tse::algebra

#endif  // TSE_ALGEBRA_EXTENT_EVAL_H_
