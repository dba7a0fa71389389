#include "storage/database.h"

#include <algorithm>
#include <utility>

#include "storage/lexer.h"
#include "storage/text_format.h"

namespace itdb {

Status Database::Add(const std::string& name, GeneralizedRelation relation) {
  if (relations_.contains(name)) {
    return Status::InvalidArgument("relation \"" + name + "\" already exists");
  }
  relations_.emplace(name, std::move(relation));
  ++version_;
  return Status::Ok();
}

void Database::Put(const std::string& name, GeneralizedRelation relation) {
  relations_.insert_or_assign(name, std::move(relation));
  ++version_;
}

Status Database::Remove(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return Status::NotFound("relation \"" + name + "\" does not exist");
  }
  ++version_;
  return Status::Ok();
}

Result<const GeneralizedRelation&> Database::Get(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation \"" + name + "\" does not exist");
  }
  return it->second;
}

bool Database::Has(const std::string& name) const {
  return relations_.contains(name);
}

std::vector<std::string> Database::Names() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) out.push_back(name);
  return out;
}

const DataDomain& Database::ActiveDomain() const {
  return domain_.Get(*this);
}

const DataDomain& Database::DomainCache::Get(const Database& db) {
  std::lock_guard<std::mutex> lock(mu_);
  if (built_ && version_ == db.version_) return domain_;
  domain_.strings.clear();
  domain_.ints.clear();
  for (const auto& [name, relation] : db.relations_) {
    for (const GeneralizedTuple& t : relation.tuples()) {
      for (const Value& v : t.data()) {
        (v.IsString() ? domain_.strings : domain_.ints).push_back(v);
      }
    }
  }
  for (std::vector<Value>* values : {&domain_.strings, &domain_.ints}) {
    std::sort(values->begin(), values->end());
    values->erase(std::unique(values->begin(), values->end()), values->end());
  }
  built_ = true;
  version_ = db.version_;
  return domain_;
}

namespace {

/// The leading block of `#`-comment lines, stripped of "# " / "#" prefixes.
/// Capture stops at the first line with non-comment content; blank lines
/// inside the block are skipped (they separate the header from the body).
std::vector<std::string> ParseHeaderComments(std::string_view text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) {
      pos = eol + 1;  // Blank line: may still precede more header comments.
      continue;
    }
    if (line[first] != '#') break;
    std::string_view body = line.substr(first + 1);
    if (body.starts_with(" ")) body.remove_prefix(1);
    if (body.ends_with("\r")) body.remove_suffix(1);
    out.emplace_back(body);
    pos = eol + 1;
  }
  return out;
}

void AppendHeaderComments(const std::vector<std::string>& header_comments,
                          std::string* out) {
  for (const std::string& h : header_comments) {
    *out += "# ";
    *out += h;
    *out += "\n";
  }
  if (!header_comments.empty()) *out += "\n";
}

}  // namespace

Result<Database> Database::FromText(std::string_view text) {
  ITDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  Database out;
  while (!ts.AtEnd()) {
    ITDB_ASSIGN_OR_RETURN(NamedRelation named,
                          internal_text_format::ParseRelationBlock(ts));
    ITDB_RETURN_IF_ERROR(out.Add(named.name, std::move(named.relation)));
  }
  out.header_comments_ = ParseHeaderComments(text);
  return out;
}

std::string Database::ToText() const {
  std::string out;
  AppendHeaderComments(header_comments_, &out);
  for (const auto& [name, relation] : relations_) {
    out += PrintRelation(name, relation);
    out += "\n";
  }
  return out;
}

std::string Database::ToText(
    const std::vector<std::string>& header_comments) const {
  std::string out;
  AppendHeaderComments(header_comments, &out);
  for (const auto& [name, relation] : relations_) {
    out += PrintRelation(name, relation);
    out += "\n";
  }
  return out;
}

}  // namespace itdb
