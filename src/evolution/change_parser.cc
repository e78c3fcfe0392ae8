#include "evolution/change_parser.h"

#include <cctype>

#include "common/str_util.h"
#include "objmodel/expr_parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tse::evolution {

namespace {

using objmodel::ValueType;

/// Tiny cursor over the command text.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  /// Reads an identifier ([A-Za-z_][A-Za-z0-9_']*).
  Result<std::string> Ident() {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '_')) {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '\'')) {
        ++pos_;
      }
    }
    if (pos_ == start) {
      return Status::InvalidArgument(
          StrCat("expected identifier at offset ", start, " in '", text_,
                 "'"));
    }
    return text_.substr(start, pos_ - start);
  }

  /// Consumes a literal character; error if absent.
  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::InvalidArgument(
          StrCat("expected '", std::string(1, c), "' at offset ", pos_,
                 " in '", text_, "'"));
    }
    ++pos_;
    return Status::OK();
  }

  /// Consumes the keyword if present.
  bool TryKeyword(const std::string& word) {
    SkipSpace();
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    size_t after = pos_ + word.size();
    if (after < text_.size() &&
        !std::isspace(static_cast<unsigned char>(text_[after]))) {
      return false;
    }
    pos_ = after;
    return true;
  }

  Status ExpectKeyword(const std::string& word) {
    if (!TryKeyword(word)) {
      return Status::InvalidArgument(
          StrCat("expected '", word, "' in '", text_, "'"));
    }
    return Status::OK();
  }

  /// Rest of the input, trimmed at the front.
  std::string Rest() {
    SkipSpace();
    return text_.substr(pos_);
  }

  void Advance(size_t n) { pos_ += n; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

Result<ValueType> ParseType(const std::string& token) {
  if (token == "int") return ValueType::kInt;
  if (token == "real") return ValueType::kReal;
  if (token == "string") return ValueType::kString;
  if (token == "bool") return ValueType::kBool;
  return Status::InvalidArgument(
      StrCat("unknown attribute type '", token,
             "' (expected int|real|string|bool)"));
}

Status NoTrailing(Cursor* cur) {
  if (!cur->AtEnd()) {
    return Status::InvalidArgument(
        StrCat("unexpected trailing input: '", cur->Rest(), "'"));
  }
  return Status::OK();
}

}  // namespace

Result<SchemaChange> ParseChange(const std::string& command) {
  TSE_TRACE_SPAN("evolution.parse");
  TSE_LATENCY_US("evolution.parse.us");
  TSE_COUNT("evolution.parse.requests");
  Cursor cur(command);
  TSE_ASSIGN_OR_RETURN(std::string op, cur.Ident());

  if (op == "add_attribute") {
    AddAttribute c;
    TSE_ASSIGN_OR_RETURN(std::string name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.Expect(':'));
    TSE_ASSIGN_OR_RETURN(std::string type_token, cur.Ident());
    TSE_ASSIGN_OR_RETURN(ValueType type, ParseType(type_token));
    TSE_RETURN_IF_ERROR(cur.ExpectKeyword("to"));
    TSE_ASSIGN_OR_RETURN(c.class_name, cur.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    c.spec = schema::PropertySpec::Attribute(name, type);
    return SchemaChange(c);
  }
  if (op == "delete_attribute") {
    DeleteAttribute c;
    TSE_ASSIGN_OR_RETURN(c.attr_name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.ExpectKeyword("from"));
    TSE_ASSIGN_OR_RETURN(c.class_name, cur.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  if (op == "add_method") {
    AddMethod c;
    TSE_ASSIGN_OR_RETURN(std::string name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.Expect('='));
    // The body is everything up to the final " to <Class>".
    std::string rest = cur.Rest();
    size_t split = rest.rfind(" to ");
    if (split == std::string::npos) {
      return Status::InvalidArgument(
          "add_method needs '... = <expr> to <Class>'");
    }
    std::string body_text = rest.substr(0, split);
    TSE_ASSIGN_OR_RETURN(objmodel::MethodExpr::Ptr body,
                         objmodel::ParseExpr(body_text));
    Cursor tail(rest);
    tail.Advance(split);
    TSE_RETURN_IF_ERROR(tail.ExpectKeyword("to"));
    TSE_ASSIGN_OR_RETURN(c.class_name, tail.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&tail));
    c.spec = schema::PropertySpec::Method(name, std::move(body));
    return SchemaChange(c);
  }
  if (op == "delete_method") {
    DeleteMethod c;
    TSE_ASSIGN_OR_RETURN(c.method_name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.ExpectKeyword("from"));
    TSE_ASSIGN_OR_RETURN(c.class_name, cur.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  if (op == "add_edge") {
    AddEdge c;
    TSE_ASSIGN_OR_RETURN(c.super_name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.Expect('-'));
    TSE_ASSIGN_OR_RETURN(c.sub_name, cur.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  if (op == "delete_edge") {
    DeleteEdge c;
    TSE_ASSIGN_OR_RETURN(c.super_name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.Expect('-'));
    TSE_ASSIGN_OR_RETURN(c.sub_name, cur.Ident());
    if (cur.TryKeyword("connected_to")) {
      TSE_ASSIGN_OR_RETURN(std::string upper, cur.Ident());
      c.connected_to = upper;
    }
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  if (op == "add_class") {
    AddClass c;
    TSE_ASSIGN_OR_RETURN(c.new_class_name, cur.Ident());
    if (cur.TryKeyword("connected_to")) {
      TSE_ASSIGN_OR_RETURN(std::string sup, cur.Ident());
      c.connected_to = sup;
    }
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  if (op == "delete_class") {
    DeleteClass c;
    TSE_ASSIGN_OR_RETURN(c.class_name, cur.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  if (op == "insert_class") {
    InsertClass c;
    TSE_ASSIGN_OR_RETURN(c.new_class_name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.ExpectKeyword("between"));
    TSE_ASSIGN_OR_RETURN(c.super_name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.Expect('-'));
    TSE_ASSIGN_OR_RETURN(c.sub_name, cur.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  if (op == "rename_class") {
    RenameClass c;
    TSE_ASSIGN_OR_RETURN(c.old_name, cur.Ident());
    TSE_RETURN_IF_ERROR(cur.ExpectKeyword("to"));
    TSE_ASSIGN_OR_RETURN(c.new_name, cur.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  if (op == "delete_class_2") {
    DeleteClass2 c;
    TSE_ASSIGN_OR_RETURN(c.class_name, cur.Ident());
    TSE_RETURN_IF_ERROR(NoTrailing(&cur));
    return SchemaChange(c);
  }
  return Status::InvalidArgument(
      StrCat("unknown schema change operator '", op, "'"));
}

}  // namespace tse::evolution
