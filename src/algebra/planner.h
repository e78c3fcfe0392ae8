#ifndef TSE_ALGEBRA_PLANNER_H_
#define TSE_ALGEBRA_PLANNER_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "index/index_manager.h"
#include "objmodel/method.h"
#include "schema/schema_graph.h"

namespace tse::algebra {

/// How a select derivation's extent gets computed (DESIGN.md §11).
enum class PlanArm : uint8_t {
  kClassic,  ///< per-oid resolver walk + full predicate evaluation
  kBatch,    ///< one clustered pass over the definer's slice arena
  kIndex,    ///< index point/range probe intersected with the source
};

const char* PlanArmName(PlanArm arm);

/// Planner policy. kAuto is the cost-based default; the force modes
/// exist for benchmarks, tests, and the fuzzer's differential arms.
/// A force mode still respects *eligibility* — forcing the index arm on
/// a predicate no index can answer falls back down the ladder, it never
/// changes semantics.
enum class PlannerMode : uint8_t {
  kAuto,
  kForceClassic,
  kForceBatch,
  kForceIndex,
};

/// An `attr op literal` (or mirrored `literal op attr`) comparison —
/// the predicate shape the batch and index arms understand.
struct SimplePredicate {
  objmodel::ExprOp op = objmodel::ExprOp::kEq;  ///< normalized: attr on lhs
  std::string attr;
  objmodel::Value literal;
};

/// Recognizes a simple comparison predicate; nullopt for anything else
/// (conjunctions, arithmetic, methods, dotted paths are left to the
/// classic arm).
std::optional<SimplePredicate> ExtractSimplePredicate(
    const objmodel::MethodExpr& pred);

/// The chosen execution strategy for one select derivation.
struct SelectPlan {
  PlanArm arm = PlanArm::kClassic;
  /// Resolved stored attribute (batch/index arms only).
  const schema::PropertyDef* def = nullptr;
  std::optional<SimplePredicate> pred;
  /// Estimated fraction of the source extent satisfying the predicate
  /// (1.0 when no estimate is available).
  double est_selectivity = 1.0;
  size_t source_size = 0;
  /// Human-readable plan-choice rationale ("explain" output).
  std::string reason;
};

/// Cost-based select planning over the per-index statistics the
/// IndexManager maintains. Stateless aside from the injected schema and
/// index manager; safe to call under the extent evaluator's lock.
class SelectPlanner {
 public:
  SelectPlanner(const schema::SchemaGraph* schema,
                const index::IndexManager* indexes)
      : schema_(schema), indexes_(indexes) {}

  /// Plans the select whose source class is `source_cls` with
  /// `predicate` over a source extent of `source_size` members.
  /// `indexes_` may be null (embedding without indexes): every plan is
  /// then classic or batch.
  SelectPlan Plan(ClassId source_cls, const objmodel::MethodExpr* predicate,
                  size_t source_size, PlannerMode mode) const;

  /// Selectivity threshold below which kAuto prefers the index arm.
  static constexpr double kIndexSelectivityThreshold = 0.10;
  /// Source sizes below this run classic even when batch is eligible —
  /// a clustered arena pass costs more than a handful of point reads.
  static constexpr size_t kBatchMinSource = 64;

 private:
  const schema::SchemaGraph* schema_;
  const index::IndexManager* indexes_;
};

}  // namespace tse::algebra

#endif  // TSE_ALGEBRA_PLANNER_H_
