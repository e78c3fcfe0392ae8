#include "algebra/object_accessor.h"

#include "common/str_util.h"

namespace tse::algebra {

using objmodel::Value;

Result<Value> ObjectAccessor::Read(Oid oid, ClassId cls,
                                   const std::string& name,
                                   ReadPoint at) const {
  // Dotted paths navigate Ref attributes hop by hop.
  size_t dot = name.find('.');
  if (dot != std::string::npos) {
    std::string head = name.substr(0, dot);
    std::string tail = name.substr(dot + 1);
    TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                         schema_->ResolveProperty(cls, head));
    if (def->value_type != objmodel::ValueType::kRef ||
        !def->ref_target.valid()) {
      return Status::InvalidArgument(
          StrCat("'", head, "' is not a reference attribute; cannot "
                 "navigate '.", tail, "'"));
    }
    TSE_ASSIGN_OR_RETURN(Value ref, Read(oid, cls, head, at));
    if (ref.is_null()) return Value::Null();  // broken/unset link
    TSE_ASSIGN_OR_RETURN(Oid target, ref.AsRef());
    return Read(target, def->ref_target, tail, at);
  }

  TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                       schema_->ResolveProperty(cls, name));
  if (def->is_method()) {
    if (!def->body) {
      return Status::FailedPrecondition(
          StrCat("method '", name, "' has no body"));
    }
    return def->body->Evaluate(oid, ResolverFor(oid, cls, at));
  }
  return ReadStored(oid, *def, at);
}

Result<Value> ObjectAccessor::ReadDynamic(Oid oid, ClassId cls,
                                          const std::string& name) const {
  // Candidate definitions: for every class the object is a direct
  // member of, the definition its effective type binds to `name`. The
  // most specific one (its binder subsumed by every other binder) wins.
  const schema::PropertyDef* best = nullptr;
  ClassId best_holder;
  for (ClassId direct : store_->DirectClasses(oid)) {
    auto type = schema_->EffectiveType(direct);
    if (!type.ok()) continue;
    auto def_id = type.value().Lookup(name);
    if (!def_id.ok()) continue;
    auto def = schema_->GetProperty(def_id.value());
    if (!def.ok()) continue;
    if (best == nullptr ||
        schema_->ExtentSubsumedBy(direct, best_holder)) {
      best = def.value();
      best_holder = direct;
    }
  }
  if (best == nullptr) {
    // No overriding definition on the object's own classes: static
    // context resolution.
    return Read(oid, cls, name);
  }
  if (best->is_method()) {
    if (!best->body) {
      return Status::FailedPrecondition(
          StrCat("method '", name, "' has no body"));
    }
    // Attribute reads inside the body resolve dynamically too.
    return best->body->Evaluate(
        oid, [this, oid, best_holder](const std::string& attr) {
          return ReadDynamic(oid, best_holder, attr);
        });
  }
  return ReadStored(oid, *best, std::nullopt);
}

Result<Value> ObjectAccessor::ReadStored(Oid oid,
                                         const schema::PropertyDef& def,
                                         ReadPoint at) const {
  if (at) return store_->GetValueAt(oid, def.definer, def.id, *at);
  return store_->GetValue(oid, def.definer, def.id);
}

Status ObjectAccessor::Write(Oid oid, ClassId cls, const std::string& name,
                             Value value) {
  TSE_ASSIGN_OR_RETURN(const schema::PropertyDef* def,
                       schema_->ResolveProperty(cls, name));
  if (def->is_method()) {
    return Status::InvalidArgument(
        StrCat("cannot assign to method '", name, "'"));
  }
  return store_->SetValue(oid, def->definer, def->id, std::move(value));
}

objmodel::AttrResolver ObjectAccessor::ResolverFor(Oid oid, ClassId cls,
                                                   ReadPoint at) const {
  return [this, oid, cls, at](const std::string& name) -> Result<Value> {
    return Read(oid, cls, name, at);
  };
}

Result<bool> ObjectAccessor::Satisfies(const objmodel::MethodExpr& pred,
                                       Oid oid, ClassId cls,
                                       ReadPoint at) const {
  TSE_ASSIGN_OR_RETURN(Value verdict,
                       pred.Evaluate(oid, ResolverFor(oid, cls, at)));
  return verdict.AsBool();
}

}  // namespace tse::algebra
