#include "algebra/processor.h"

#include "common/str_util.h"

namespace tse::algebra {

using schema::Derivation;
using schema::DerivationOp;

Result<ClassId> AlgebraProcessor::DefineVC(const std::string& name,
                                           const Query::Ptr& query,
                                           const Integrate& integrate) {
  if (!query) return Status::InvalidArgument("null query");
  if (query->kind() == Query::Kind::kClassRef) {
    return Status::InvalidArgument(
        "defineVC of a bare class reference creates nothing; use the class "
        "directly");
  }
  int counter = 0;
  TSE_ASSIGN_OR_RETURN(ClassId cls,
                       Materialize(name, query, &counter, name, integrate));
  if (integrate) return integrate(cls);
  return cls;
}

Result<ClassId> AlgebraProcessor::Materialize(const std::string& name,
                                              const Query::Ptr& query,
                                              int* counter,
                                              const std::string& top_name,
                                              const Integrate& integrate) {
  switch (query->kind()) {
    case Query::Kind::kClassRef:
      return schema_->FindClass(query->class_name());
    default:
      break;
  }
  // Materialize children first (post-order).
  std::vector<ClassId> sources;
  for (const Query::Ptr& child : query->children()) {
    std::string child_name;
    if (child->kind() != Query::Kind::kClassRef) {
      ++*counter;
      child_name = StrCat(top_name, "$", *counter);
    }
    TSE_ASSIGN_OR_RETURN(
        ClassId child_cls,
        Materialize(child_name, child, counter, top_name, integrate));
    if (integrate && child->kind() != Query::Kind::kClassRef) {
      TSE_ASSIGN_OR_RETURN(child_cls, integrate(child_cls));
    }
    sources.push_back(child_cls);
  }

  switch (query->kind()) {
    case Query::Kind::kRefine: {
      // Resolve the `refine C1:x for C2` import pairs to shared defs.
      std::vector<PropertyDefId> imported;
      for (const auto& [cls_name, prop_name] : query->imports()) {
        TSE_ASSIGN_OR_RETURN(ClassId from, schema_->FindClass(cls_name));
        TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                             schema_->ResolveProperty(from, prop_name));
        imported.push_back(def->id);
      }
      return schema_->AddRefineClass(name, sources[0], query->specs(),
                                     imported);
    }
    case Query::Kind::kSelect: {
      Derivation d;
      d.op = DerivationOp::kSelect;
      d.sources = {sources[0]};
      d.predicate = query->predicate();
      return schema_->AddVirtualClass(name, std::move(d));
    }
    case Query::Kind::kHide: {
      // Hidden names must exist on the source type.
      TSE_ASSIGN_OR_RETURN(schema::TypeSet type,
                           schema_->EffectiveType(sources[0]));
      for (const std::string& hidden : query->hidden()) {
        if (!type.ContainsName(hidden)) {
          return Status::InvalidArgument(
              StrCat("cannot hide unknown property '", hidden, "'"));
        }
      }
      Derivation d;
      d.op = DerivationOp::kHide;
      d.sources = {sources[0]};
      d.hidden = query->hidden();
      return schema_->AddVirtualClass(name, std::move(d));
    }
    case Query::Kind::kUnion:
    case Query::Kind::kIntersect:
    case Query::Kind::kDifference: {
      Derivation d;
      d.op = query->kind() == Query::Kind::kUnion
                 ? DerivationOp::kUnion
                 : (query->kind() == Query::Kind::kIntersect
                        ? DerivationOp::kIntersect
                        : DerivationOp::kDifference);
      d.sources = {sources[0], sources[1]};
      return schema_->AddVirtualClass(name, std::move(d));
    }
    case Query::Kind::kClassRef:
      break;  // handled above
  }
  return Status::Internal("unreachable query kind");
}

}  // namespace tse::algebra
