#ifndef TSE_FUZZ_DIFFERENTIAL_EXECUTOR_H_
#define TSE_FUZZ_DIFFERENTIAL_EXECUTOR_H_

#include <cstddef>
#include <optional>
#include <string>

#include "baseline/direct_engine.h"
#include "common/status.h"
#include "fuzz/fuzz_case.h"

namespace tse::fuzz {

/// Applies a change TSE accepted to the in-place-modification oracle
/// (the mirroring half of every differential replay; crash-recovery
/// replays reuse it). `sabotage_add_attribute` is the shrinker-test
/// hook described in ExecutorOptions.
Status MirrorIntoDirect(const evolution::SchemaChange& change,
                        baseline::DirectEngine* direct,
                        bool sabotage_add_attribute = false);

/// Knobs for one differential run.
struct ExecutorOptions {
  /// Compare the attribute-value surface after every accepted change,
  /// not just the schema shape.
  bool check_values = true;
  /// Rebuild the view inside an IntersectionStore after every accepted
  /// change and cross-check extents and values (intersection_replica.h).
  bool check_intersection_replica = true;
  /// Theorem 1: every view class must stay updatable.
  bool check_updatability = true;
  /// After every accepted change, compare every view-class extent from
  /// the long-lived incrementally-maintained evaluator against a cold
  /// from-scratch evaluation. Catches delta-propagation bugs the moment
  /// they happen instead of steps later.
  bool check_incremental_extents = true;
  /// Declare secondary indexes over the workload's int attributes plus
  /// equality/range select classes probing them, then compare a
  /// long-lived index-forced evaluator (journal-maintained indexes
  /// riding through every schema change and churn step) and a cold
  /// batch-forced evaluation against a cold scan-forced evaluation after
  /// every accepted change — ok-status and extents must agree exactly.
  bool check_index_vs_scan = true;
  /// Run every store mutation inside an MVCC commit epoch (exactly how
  /// Db stamps them) and, after every accepted change, read the whole
  /// view surface twice — once through the live locked read path and
  /// once through the snapshot path pinned at the current epoch — and
  /// require extents, values, and ok-status to agree exactly. One
  /// earlier epoch's surface digest is retained and re-verified a few
  /// steps (and many mutations, plus a vacuum up to that epoch) later,
  /// proving version chains keep old epochs repeatable and the vacuum
  /// never trims a reachable version.
  bool check_snapshot_vs_locked = true;
  /// Replay every schema change on a second, schema-only TSE stack
  /// whose classifier uses the exhaustive placement scan
  /// (naive_placement.h) instead of the DAG search, and require the same
  /// accept/reject outcome and a byte-identical SchemaGraph::ToDot()
  /// after every operator; also require every new view version's edges
  /// to equal the pairwise subsumption matrix's (NaiveViewEdges).
  bool check_classifier_vs_naive = true;
  /// Test-only divergence plant used to validate the shrinker: accepted
  /// add_attribute changes are mirrored into the oracle under the wrong
  /// name (suffix "_sab"), so the very next equivalence check diverges.
  /// Any script slice that still contains one accepted add_attribute
  /// keeps diverging, which is what lets delta debugging reach a
  /// one-operator repro.
  bool sabotage_add_attribute = false;
};

/// Where and how a run diverged from the oracle.
struct Divergence {
  /// 0-based index into FuzzCase::script; script.size() marks the
  /// end-of-run historical-version audit.
  size_t step = 0;
  /// The operator being applied (evolution::ToString rendering).
  std::string op;
  /// The oracle's description of the mismatch.
  std::string detail;

  std::string ToString() const;
};

/// Outcome of replaying one case through both systems.
struct RunReport {
  /// Harness trouble (the case could not even be built/replayed —
  /// typically a hand-edited or over-shrunk case). NOT a divergence.
  Status error = Status::OK();
  size_t attempted = 0;  ///< script operators processed
  size_t accepted = 0;   ///< operators TSE accepted
  size_t merges = 0;     ///< version merges exercised on the side
  std::optional<Divergence> divergence;

  bool Diverged() const { return divergence.has_value(); }
  /// Built, replayed, and matched the oracle at every step.
  bool Clean() const { return error.ok() && !divergence.has_value(); }
};

/// Replays a FuzzCase in lockstep through the full TSE stack
/// (SchemaGraph + SlicingStore + ViewManager + TseManager + UpdateEngine)
/// and the DirectEngine in-place-modification oracle, checking the
/// paper's S'' = S' propositions after every accepted operator:
///
///   - baseline::CheckEquivalence (class set, visible types, extents
///     through an OidBijection, is-a reachability),
///   - the attribute-value surface read through the view,
///   - the intersection-store replica (a third architecture),
///   - Theorem 1 updatability of every view class,
///   - the classified DAG equals the one the naive classifier builds,
///     and the view's edges the ones the subsumption matrix derives,
///   - rejected operators must leave the view untouched,
///   - every historical view version must still evaluate at the end.
///
/// Interleaved data churn and version merges are derived per-step from
/// FuzzCase::seed, so a run is a pure function of the case — shrinking a
/// script never shifts the randomness of the steps that remain.
class DifferentialExecutor {
 public:
  explicit DifferentialExecutor(const ExecutorOptions& options = {})
      : options_(options) {}

  RunReport Run(const FuzzCase& c) const;

 private:
  ExecutorOptions options_;
};

}  // namespace tse::fuzz

#endif  // TSE_FUZZ_DIFFERENTIAL_EXECUTOR_H_
