#include "algebra/planner.h"

#include <cmath>
#include <cstdlib>

#include "common/str_util.h"

namespace tse::algebra {

using objmodel::ExprOp;
using objmodel::MethodExpr;
using objmodel::Value;
using objmodel::ValueType;

const char* PlanArmName(PlanArm arm) {
  switch (arm) {
    case PlanArm::kClassic:
      return "classic";
    case PlanArm::kBatch:
      return "batch";
    case PlanArm::kIndex:
      return "index";
  }
  return "?";
}

namespace {

bool IsComparison(ExprOp op) {
  switch (op) {
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return true;
    default:
      return false;
  }
}

/// `lit op attr` == `attr mirror(op) lit`.
ExprOp Mirror(ExprOp op) {
  switch (op) {
    case ExprOp::kLt:
      return ExprOp::kGt;
    case ExprOp::kLe:
      return ExprOp::kGe;
    case ExprOp::kGt:
      return ExprOp::kLt;
    case ExprOp::kGe:
      return ExprOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

/// Ints whose double image is exact. Predicate evaluation compares
/// numerics as doubles while the ordered index compares int64 keys
/// exactly; below this magnitude the two orders provably agree.
constexpr int64_t kMaxExactInt = int64_t{1} << 52;

}  // namespace

std::optional<SimplePredicate> ExtractSimplePredicate(
    const MethodExpr& pred) {
  if (!IsComparison(pred.op())) return std::nullopt;
  const auto& kids = pred.children();
  if (kids.size() != 2) return std::nullopt;
  const MethodExpr& lhs = *kids[0];
  const MethodExpr& rhs = *kids[1];
  if (lhs.op() == ExprOp::kAttr && rhs.op() == ExprOp::kLiteral) {
    return SimplePredicate{pred.op(), lhs.attr_name(), rhs.literal()};
  }
  if (lhs.op() == ExprOp::kLiteral && rhs.op() == ExprOp::kAttr) {
    return SimplePredicate{Mirror(pred.op()), rhs.attr_name(),
                           lhs.literal()};
  }
  return std::nullopt;
}

SelectPlan SelectPlanner::Plan(ClassId source_cls,
                               const MethodExpr* predicate,
                               size_t source_size,
                               PlannerMode mode) const {
  SelectPlan plan;
  plan.source_size = source_size;
  auto classic = [&](std::string why) {
    plan.arm = PlanArm::kClassic;
    plan.reason = StrCat("classic scan: ", why);
    return plan;
  };
  if (mode == PlannerMode::kForceClassic) return classic("forced");
  if (predicate == nullptr) return classic("no predicate");

  std::optional<SimplePredicate> sp = ExtractSimplePredicate(*predicate);
  if (!sp) return classic("predicate not a simple attr-vs-literal compare");
  if (sp->attr.find('.') != std::string::npos) {
    return classic("dotted attribute path");
  }
  auto def = schema_->ResolveProperty(source_cls, sp->attr);
  if (!def.ok()) return classic("attribute does not resolve");
  if (!def.value()->is_attribute()) return classic("predicate reads a method");

  // Batch-eligible from here: the predicate is one stored-attribute
  // comparison whose semantics (CompareValues) the batch arm reproduces
  // exactly, errors included.
  plan.def = def.value();
  plan.pred = sp;

  // Index eligibility + selectivity estimate.
  bool index_ok = false;
  std::string index_why;
  if (indexes_ == nullptr) {
    index_why = "no index manager";
  } else {
    std::optional<index::IndexProbe> probe = indexes_->Probe(plan.def->id);
    if (!probe) {
      index_why = StrCat("no index on ", sp->attr);
    } else if (sp->op == ExprOp::kEq) {
      if (sp->literal.is_null()) {
        // Null is never indexed; "attr == null" members are exactly the
        // ones the index cannot see.
        index_why = "eq-null probes the unindexed";
      } else {
        index_ok = true;
        const double bucket =
            probe->distinct == 0
                ? 0.0
                : static_cast<double>(probe->entries) / probe->distinct;
        plan.est_selectivity =
            source_size == 0 ? 0.0 : bucket / static_cast<double>(source_size);
      }
    } else if (sp->op == ExprOp::kNe) {
      index_why = "!= needs the complement";
    } else if (probe->kind != index::IndexKind::kOrdered) {
      index_why = "range probe needs an ordered index";
    } else if (!probe->single_type ||
               probe->only_type != sp->literal.type()) {
      // Mixed key types (or a literal of another type) break the
      // map-order == compare-order equivalence; leave it to a scan.
      index_why = "keys not single-typed with the literal";
    } else if (probe->entries != probe->store_objects) {
      // Some object reads Null for this attribute; if it sits in the
      // source, the scan errors on the ordering compare and the index
      // arm must reproduce that. No cheap proof => no index.
      index_why = "attribute not total over the store";
    } else if (sp->literal.type() == ValueType::kInt &&
               std::llabs(sp->literal.AsInt().value()) > kMaxExactInt) {
      index_why = "int literal beyond exact double range";
    } else if (sp->literal.type() != ValueType::kInt &&
               sp->literal.type() != ValueType::kReal &&
               sp->literal.type() != ValueType::kString) {
      index_why = "literal type not orderable";
    } else {
      index_ok = true;
      double frac = 1.0 / 3.0;  // strings: no interpolation, guess
      if (sp->literal.type() != ValueType::kString &&
          probe->entries > 0) {
        const double lo = probe->min_key.AsNumber().value();
        const double hi = probe->max_key.AsNumber().value();
        const double key = sp->literal.AsNumber().value();
        const double width = hi - lo;
        double below = width <= 0 ? (key >= lo ? 1.0 : 0.0)
                                  : (key - lo) / width;
        if (below < 0) below = 0;
        if (below > 1) below = 1;
        frac = (sp->op == ExprOp::kLt || sp->op == ExprOp::kLe)
                   ? below
                   : 1.0 - below;
      }
      plan.est_selectivity =
          source_size == 0
              ? 0.0
              : frac * static_cast<double>(probe->entries) /
                    static_cast<double>(source_size);
    }
  }
  if (plan.est_selectivity > 1.0) plan.est_selectivity = 1.0;

  const bool want_index =
      mode == PlannerMode::kForceIndex ||
      (mode == PlannerMode::kAuto &&
       plan.est_selectivity <= kIndexSelectivityThreshold);
  if (index_ok && want_index) {
    plan.arm = PlanArm::kIndex;
    plan.reason =
        StrCat("index probe on ", sp->attr, " (est selectivity ",
               std::to_string(plan.est_selectivity), ")");
    return plan;
  }
  if (mode == PlannerMode::kAuto && source_size < kBatchMinSource) {
    return classic("source too small for an arena pass");
  }
  plan.arm = PlanArm::kBatch;
  plan.reason = StrCat(
      "batch arena scan on ", sp->attr,
      index_ok ? StrCat(" (index declined: est selectivity ",
                        std::to_string(plan.est_selectivity), ")")
               : StrCat(" (", index_why, ")"));
  return plan;
}

}  // namespace tse::algebra
