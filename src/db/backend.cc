// The tse::Backend defaults and the value-literal parser the backends
// share with the shell. The implementations are tse::Session
// (session.cc), tse::Client and tse::Cluster (src/cluster/).

#include "db/backend.h"

#include <utility>

namespace tse {

using objmodel::Value;

// --- Backend defaults ----------------------------------------------------

Status Backend::SetFromText(Oid oid, const std::string& class_name,
                            const std::string& attr,
                            const std::string& expr_text) {
  TSE_ASSIGN_OR_RETURN(Value value, ParseValueLiteral(expr_text));
  return Set(oid, class_name, attr, std::move(value));
}

Status Backend::ResetStats() {
  return Status::InvalidArgument("stats reset is embedded-only");
}

Result<std::string> Backend::History() {
  return Status::InvalidArgument(
      "history needs the embedded engine; the wire protocol exposes only "
      "the bound view");
}

Result<std::string> Backend::Explain(const std::string&) {
  return Status::InvalidArgument(
      "explain needs the embedded engine; the wire protocol does not "
      "expose query plans");
}

Result<Value> ParseValueLiteral(const std::string& raw) {
  size_t begin = raw.find_first_not_of(" \t");
  size_t end = raw.find_last_not_of(" \t");
  if (begin == std::string::npos) {
    return Status::InvalidArgument("empty value");
  }
  std::string text = raw.substr(begin, end - begin + 1);
  if (text == "true") return Value::Bool(true);
  if (text == "false") return Value::Bool(false);
  if (text == "null") return Value::Null();
  if (text.size() >= 2 && (text.front() == '"' || text.front() == '\'') &&
      text.back() == text.front()) {
    return Value::Str(text.substr(1, text.size() - 2));
  }
  try {
    size_t used = 0;
    if (text.find('.') != std::string::npos) {
      double real = std::stod(text, &used);
      if (used == text.size()) return Value::Real(real);
    } else {
      int64_t whole = std::stoll(text, &used);
      if (used == text.size()) return Value::Int(whole);
    }
  } catch (const std::exception&) {
  }
  return Status::InvalidArgument(
      "remote set takes a literal (int, real, true/false, 'string'); "
      "expressions evaluate only against the embedded engine");
}

}  // namespace tse
