#include "schema/type_set.h"

#include <algorithm>
#include <functional>

#include "common/str_util.h"

namespace tse::schema {

uint64_t TypeSet::NameBit(const std::string& name) {
  return uint64_t{1} << (std::hash<std::string>{}(name) & 63);
}

void TypeSet::RecomputeSignature() {
  name_signature_ = 0;
  for (const auto& [name, _] : props_) name_signature_ |= NameBit(name);
}

void TypeSet::Add(const std::string& name, PropertyDefId def) {
  name_signature_ |= NameBit(name);
  std::vector<PropertyDefId>& defs = props_[name];
  if (std::find(defs.begin(), defs.end(), def) == defs.end()) {
    defs.push_back(def);
    std::sort(defs.begin(), defs.end());
  }
}

void TypeSet::Override(const std::string& name, PropertyDefId def) {
  name_signature_ |= NameBit(name);
  props_[name] = {def};
}

bool TypeSet::RemoveName(const std::string& name) {
  if (props_.erase(name) == 0) return false;
  RecomputeSignature();
  return true;
}

bool TypeSet::Remove(const std::string& name, PropertyDefId def) {
  auto it = props_.find(name);
  if (it == props_.end()) return false;
  auto& defs = it->second;
  auto dit = std::find(defs.begin(), defs.end(), def);
  if (dit == defs.end()) return false;
  defs.erase(dit);
  if (defs.empty()) {
    props_.erase(it);
    RecomputeSignature();
  }
  return true;
}

bool TypeSet::ContainsName(const std::string& name) const {
  return props_.count(name) != 0;
}

bool TypeSet::Contains(const std::string& name, PropertyDefId def) const {
  auto it = props_.find(name);
  if (it == props_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), def) !=
         it->second.end();
}

bool TypeSet::IsAmbiguous(const std::string& name) const {
  auto it = props_.find(name);
  return it != props_.end() && it->second.size() > 1;
}

Result<PropertyDefId> TypeSet::Lookup(const std::string& name) const {
  auto it = props_.find(name);
  if (it == props_.end()) {
    return Status::NotFound(StrCat("no property named '", name, "'"));
  }
  if (it->second.size() > 1) {
    return Status::FailedPrecondition(
        StrCat("property '", name,
               "' is ambiguous (multiple-inheritance conflict); rename to "
               "disambiguate"));
  }
  return it->second.front();
}

std::vector<PropertyDefId> TypeSet::AllOf(const std::string& name) const {
  auto it = props_.find(name);
  if (it == props_.end()) return {};
  return it->second;
}

void TypeSet::MergeFrom(const TypeSet& other) {
  for (const auto& [name, defs] : other.props_) {
    for (PropertyDefId def : defs) Add(name, def);
  }
}

size_t TypeSet::size() const {
  size_t n = 0;
  for (const auto& [_, defs] : props_) n += defs.size();
  return n;
}

std::vector<std::string> TypeSet::Names() const {
  std::vector<std::string> out;
  out.reserve(props_.size());
  for (const auto& [name, _] : props_) out.push_back(name);
  return out;
}

bool TypeSet::CoversNamesOf(const TypeSet& other) const {
  // Both maps hold distinct names in sorted order: fewer names cannot
  // cover more, a name whose signature bit is missing here cannot be
  // here, and otherwise one merge pass decides.
  if (other.props_.size() > props_.size()) return false;
  if ((other.name_signature_ & ~name_signature_) != 0) return false;
  auto mine = props_.begin();
  for (const auto& [name, _] : other.props_) {
    while (mine != props_.end() && mine->first < name) ++mine;
    if (mine == props_.end() || mine->first != name) return false;
    ++mine;
  }
  return true;
}

std::string TypeSet::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [name, defs] : props_) {
    std::vector<std::string> ids;
    for (PropertyDefId def : defs) ids.push_back(def.ToString());
    parts.push_back(StrCat(name, "(", Join(ids, "|"), ")"));
  }
  return Join(parts, ", ");
}

}  // namespace tse::schema
