#include "storage/text_format.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "storage/lexer.h"
#include "util/numeric.h"

namespace itdb {

namespace {

bool IsLrpVariable(const Token& t) {
  // Any identifier starting with 'n' whose remainder is digits: n, n1, n2...
  if (t.kind != TokenKind::kIdent || t.text.empty() || t.text[0] != 'n') {
    return false;
  }
  for (std::size_t i = 1; i < t.text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(t.text[i]))) return false;
  }
  return true;
}

Result<Lrp> ParseLrp(TokenStream& ts) {
  if (IsLrpVariable(ts.Peek())) {  // "n" == 0 + 1n.
    ts.Next();
    return Lrp::Make(0, 1);
  }
  ITDB_ASSIGN_OR_RETURN(std::int64_t first, ts.ExpectInt());
  if (IsLrpVariable(ts.Peek())) {  // "10n" == 0 + 10n.
    ts.Next();
    return Lrp::Make(0, first);
  }
  // "c + kn" / "c - kn", but '+'/'-' may instead belong to the next token
  // stream element only inside constraint context; inside an lrp list the
  // only continuation is the period term.
  if ((ts.Peek().kind == TokenKind::kSymbol &&
       (ts.Peek().text == "+" || ts.Peek().text == "-")) &&
      ts.Peek(1).kind == TokenKind::kInt && IsLrpVariable(ts.Peek(2))) {
    bool negative = ts.Next().text == "-";
    std::int64_t k = ts.Next().int_value;
    ts.Next();  // The variable.
    return Lrp::Make(first, negative ? -k : k);
  }
  return Lrp::Singleton(first);
}

Result<Value> ParseValue(TokenStream& ts, DataType expected) {
  if (ts.Peek().kind == TokenKind::kString) {
    if (expected != DataType::kString) {
      return ts.ErrorHere("expected an integer value");
    }
    return Value(ts.Next().text);
  }
  if (expected != DataType::kInt) {
    return ts.ErrorHere("expected a string value");
  }
  ITDB_ASSIGN_OR_RETURN(std::int64_t v, ts.ExpectInt());
  return Value(v);
}

/// One side of a constraint: either a plain integer or column + offset.
struct Operand {
  std::optional<int> column;
  std::int64_t offset = 0;
};

Result<int> ResolveColumn(TokenStream& ts, const std::string& name,
                          const Schema& schema) {
  if (std::optional<int> c = schema.FindTemporal(name)) return *c;
  // Paper-style X1/X2 or T1/T2, 1-based.
  if (name.size() >= 2 && (name[0] == 'X' || name[0] == 'T')) {
    bool digits = true;
    for (std::size_t i = 1; i < name.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(name[i]))) digits = false;
    }
    if (digits) {
      int idx = std::stoi(name.substr(1)) - 1;
      if (idx >= 0 && idx < schema.temporal_arity()) return idx;
    }
  }
  return ts.ErrorHere("unknown temporal attribute \"" + name + "\"");
}

Result<Operand> ParseOperand(TokenStream& ts, const Schema& schema) {
  Operand out;
  if (ts.Peek().kind == TokenKind::kIdent) {
    ITDB_ASSIGN_OR_RETURN(std::string name, ts.ExpectIdent());
    ITDB_ASSIGN_OR_RETURN(int col, ResolveColumn(ts, name, schema));
    out.column = col;
    if (ts.Peek().kind == TokenKind::kSymbol &&
        (ts.Peek().text == "+" || ts.Peek().text == "-")) {
      // Offset term.
      bool negative = ts.Next().text == "-";
      if (ts.Peek().kind != TokenKind::kInt) {
        return ts.ErrorHere("expected integer offset");
      }
      std::int64_t v = ts.Next().int_value;
      out.offset = negative ? -v : v;
    }
    return out;
  }
  ITDB_ASSIGN_OR_RETURN(out.offset, ts.ExpectInt());
  return out;
}

enum class ConstraintOp { kLe, kGe, kEq, kLt, kGt };

Result<ConstraintOp> ParseConstraintOp(TokenStream& ts) {
  if (ts.TrySymbol("<=")) return ConstraintOp::kLe;
  if (ts.TrySymbol(">=")) return ConstraintOp::kGe;
  if (ts.TrySymbol("=")) return ConstraintOp::kEq;
  if (ts.TrySymbol("<")) return ConstraintOp::kLt;
  if (ts.TrySymbol(">")) return ConstraintOp::kGt;
  return ts.ErrorHere("expected comparison operator");
}

ConstraintOp Flip(ConstraintOp op) {
  switch (op) {
    case ConstraintOp::kLe:
      return ConstraintOp::kGe;
    case ConstraintOp::kGe:
      return ConstraintOp::kLe;
    case ConstraintOp::kLt:
      return ConstraintOp::kGt;
    case ConstraintOp::kGt:
      return ConstraintOp::kLt;
    case ConstraintOp::kEq:
      return ConstraintOp::kEq;
  }
  return op;
}

Status ApplyConstraint(TokenStream& ts, Dbm& dbm, Operand lhs, ConstraintOp op,
                       Operand rhs) {
  if (!lhs.column.has_value() && !rhs.column.has_value()) {
    return ts.ErrorHere("constraint mentions no temporal attribute");
  }
  if (!lhs.column.has_value()) {
    std::swap(lhs, rhs);
    op = Flip(op);
  }
  const int l = *lhs.column;
  if (rhs.column.has_value()) {
    const int r = *rhs.column;
    if (l == r) return ts.ErrorHere("constraint relates an attribute to itself");
    // X_l + lo  op  X_r + ro   <=>   X_l op X_r + (ro - lo).
    ITDB_ASSIGN_OR_RETURN(std::int64_t delta,
                          CheckedSub(rhs.offset, lhs.offset));
    switch (op) {
      case ConstraintOp::kLe:
        dbm.AddDifferenceUpperBound(l, r, delta);
        break;
      case ConstraintOp::kGe:
        dbm.AddDifferenceUpperBound(r, l, -delta);
        break;
      case ConstraintOp::kEq:
        dbm.AddDifferenceEquality(l, r, delta);
        break;
      case ConstraintOp::kLt: {
        ITDB_ASSIGN_OR_RETURN(std::int64_t b, CheckedSub(delta, 1));
        dbm.AddDifferenceUpperBound(l, r, b);
        break;
      }
      case ConstraintOp::kGt: {
        ITDB_ASSIGN_OR_RETURN(std::int64_t b, CheckedAdd(-delta, 1));
        dbm.AddDifferenceUpperBound(r, l, -b);
        break;
      }
    }
    return Status::Ok();
  }
  // X_l + lo  op  c   <=>   X_l op (c - lo).
  ITDB_ASSIGN_OR_RETURN(std::int64_t bound, CheckedSub(rhs.offset, lhs.offset));
  switch (op) {
    case ConstraintOp::kLe:
      dbm.AddUpperBound(l, bound);
      break;
    case ConstraintOp::kGe:
      dbm.AddLowerBound(l, bound);
      break;
    case ConstraintOp::kEq:
      dbm.AddEquality(l, bound);
      break;
    case ConstraintOp::kLt: {
      ITDB_ASSIGN_OR_RETURN(std::int64_t b, CheckedSub(bound, 1));
      dbm.AddUpperBound(l, b);
      break;
    }
    case ConstraintOp::kGt: {
      ITDB_ASSIGN_OR_RETURN(std::int64_t b, CheckedAdd(bound, 1));
      dbm.AddLowerBound(l, b);
      break;
    }
  }
  return Status::Ok();
}

Result<GeneralizedTuple> ParseTuple(TokenStream& ts, const Schema& schema) {
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("["));
  std::vector<Lrp> lrps;
  for (int i = 0; i < schema.temporal_arity(); ++i) {
    if (i > 0) ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    ITDB_ASSIGN_OR_RETURN(Lrp l, ParseLrp(ts));
    lrps.push_back(l);
  }
  std::vector<Value> values;
  if (schema.data_arity() > 0) {
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("|"));
    for (int i = 0; i < schema.data_arity(); ++i) {
      if (i > 0) ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
      ITDB_ASSIGN_OR_RETURN(Value v, ParseValue(ts, schema.data_type(i)));
      values.push_back(std::move(v));
    }
  }
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("]"));
  GeneralizedTuple tuple(std::move(lrps), std::move(values));
  if (ts.TrySymbol(":")) {
    do {
      ITDB_ASSIGN_OR_RETURN(Operand lhs, ParseOperand(ts, schema));
      ITDB_ASSIGN_OR_RETURN(ConstraintOp op, ParseConstraintOp(ts));
      ITDB_ASSIGN_OR_RETURN(Operand rhs, ParseOperand(ts, schema));
      ITDB_RETURN_IF_ERROR(
          ApplyConstraint(ts, tuple.mutable_constraints(), lhs, op, rhs));
    } while (ts.TrySymbol("&&"));
  }
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(";"));
  return tuple;
}

}  // namespace

Result<NamedRelation> ParseRelation(std::string_view text) {
  ITDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  ITDB_ASSIGN_OR_RETURN(NamedRelation out, internal_text_format::ParseRelationBlock(ts));
  if (!ts.AtEnd()) {
    return ts.ErrorHere("trailing input after relation block");
  }
  return out;
}

namespace internal_text_format {

Result<NamedRelation> ParseRelationBlock(TokenStream& ts) {
  if (!ts.TryIdent("relation")) {
    return ts.ErrorHere("expected 'relation'");
  }
  ITDB_ASSIGN_OR_RETURN(std::string name, ts.ExpectIdent());
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("("));
  std::vector<std::string> temporal_names;
  std::vector<std::string> data_names;
  std::vector<DataType> data_types;
  bool first = true;
  while (!ts.TrySymbol(")")) {
    if (!first) ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(","));
    first = false;
    ITDB_ASSIGN_OR_RETURN(std::string attr, ts.ExpectIdent());
    for (const std::string& existing : temporal_names) {
      if (existing == attr) {
        return ts.ErrorHere("duplicate attribute \"" + attr + "\"");
      }
    }
    for (const std::string& existing : data_names) {
      if (existing == attr) {
        return ts.ErrorHere("duplicate attribute \"" + attr + "\"");
      }
    }
    ITDB_RETURN_IF_ERROR(ts.ExpectSymbol(":"));
    ITDB_ASSIGN_OR_RETURN(std::string kind, ts.ExpectIdent());
    if (kind == "time") {
      if (!data_names.empty()) {
        return ts.ErrorHere("temporal attributes must precede data attributes");
      }
      temporal_names.push_back(std::move(attr));
    } else if (kind == "int") {
      data_names.push_back(std::move(attr));
      data_types.push_back(DataType::kInt);
    } else if (kind == "string") {
      data_names.push_back(std::move(attr));
      data_types.push_back(DataType::kString);
    } else {
      return ts.ErrorHere("unknown attribute type \"" + kind + "\"");
    }
  }
  Schema schema(std::move(temporal_names), std::move(data_names),
                std::move(data_types));
  GeneralizedRelation relation(schema);
  ITDB_RETURN_IF_ERROR(ts.ExpectSymbol("{"));
  while (!ts.TrySymbol("}")) {
    ITDB_ASSIGN_OR_RETURN(GeneralizedTuple tuple, ParseTuple(ts, schema));
    ITDB_RETURN_IF_ERROR(relation.AddTuple(std::move(tuple)));
  }
  return NamedRelation{std::move(name), std::move(relation)};
}

}  // namespace internal_text_format

namespace {

void AppendInt(std::string& out, std::int64_t v) {
  char buf[24];  // Enough for any int64, sign included.
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Value::ToString does not escape; the lexer unescapes '\x' inside string
/// literals, so quotes and backslashes must be escaped here for the printed
/// form to parse back to the same value.
void AppendValue(std::string& out, const Value& v) {
  if (v.IsInt()) {
    AppendInt(out, v.AsInt());
    return;
  }
  out += '"';
  for (char c : v.AsString()) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string PrintRelation(const std::string& name,
                          const GeneralizedRelation& relation) {
  const Schema& schema = relation.schema();
  // One growing buffer: every piece below is appended in place.
  std::string out;
  out.reserve(64 + relation.tuples().size() * 64);
  out += "relation ";
  out += name;
  out += '(';
  bool first = true;
  for (const std::string& n : schema.temporal_names()) {
    if (!first) out += ", ";
    out += n;
    out += ": time";
    first = false;
  }
  for (int i = 0; i < schema.data_arity(); ++i) {
    if (!first) out += ", ";
    out += schema.data_name(i);
    out += schema.data_type(i) == DataType::kInt ? ": int" : ": string";
    first = false;
  }
  out += ") {\n";
  for (const GeneralizedTuple& t : relation.tuples()) {
    Dbm closed = t.constraints();
    if (!closed.Close().ok() || !closed.feasible()) {
      // A tuple with contradictory constraints has an empty extension;
      // omitting it preserves the represented set.
      continue;
    }
    out += "  [";
    for (int i = 0; i < t.temporal_arity(); ++i) {
      if (i > 0) out += ", ";
      t.lrp(i).AppendTo(out);
    }
    if (t.data_arity() > 0) {
      out += " | ";
      for (int i = 0; i < t.data_arity(); ++i) {
        if (i > 0) out += ", ";
        AppendValue(out, t.value(i));
      }
    }
    out += ']';
    std::vector<AtomicConstraint> atomics = closed.MinimalAtomics();
    for (std::size_t i = 0; i < atomics.size(); ++i) {
      out += i == 0 ? " : " : " && ";
      const AtomicConstraint& a = atomics[i];
      if (a.lhs != kZeroVar && a.rhs != kZeroVar) {
        out += schema.temporal_name(a.lhs);
        out += " <= ";
        out += schema.temporal_name(a.rhs);
        if (a.bound > 0) {
          out += " + ";
          AppendInt(out, a.bound);
        } else if (a.bound < 0) {
          out += " - ";
          AppendInt(out, -a.bound);
        }
      } else if (a.rhs == kZeroVar) {
        out += schema.temporal_name(a.lhs);
        out += " <= ";
        AppendInt(out, a.bound);
      } else {
        out += schema.temporal_name(a.rhs);
        out += " >= ";
        AppendInt(out, -a.bound);
      }
    }
    out += ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace itdb
