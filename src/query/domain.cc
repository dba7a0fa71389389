#include "query/domain.h"

#include <algorithm>
#include <iterator>
#include <set>

namespace itdb {
namespace query {

namespace {

/// The query's constants that join the active domain: atom string
/// constants and data-position integer constants, plus comparison string
/// constants.
void CollectQueryConstants(const Query& q, std::set<Value>& strings,
                           std::set<Value>& ints, const Database& db) {
  switch (q.kind()) {
    case Query::Kind::kAtom: {
      Result<const GeneralizedRelation&> rel = db.Get(q.relation());
      if (!rel.ok()) return;  // Reported later by sort inference.
      const Schema& schema = rel->schema();
      for (std::size_t i = 0; i < q.args().size(); ++i) {
        const Term& t = q.args()[i];
        bool data_pos = static_cast<int>(i) >= schema.temporal_arity();
        if (t.kind == Term::Kind::kString) {
          strings.insert(Value(t.text));
        } else if (t.kind == Term::Kind::kInt && data_pos) {
          ints.insert(Value(t.number));
        }
      }
      break;
    }
    case Query::Kind::kCmp:
      for (const Term* t : {&q.lhs(), &q.rhs()}) {
        if (t->kind == Term::Kind::kString) strings.insert(Value(t->text));
      }
      break;
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      CollectQueryConstants(*q.left(), strings, ints, db);
      CollectQueryConstants(*q.right(), strings, ints, db);
      break;
    case Query::Kind::kNot:
    case Query::Kind::kExists:
    case Query::Kind::kForall:
      CollectQueryConstants(*q.left(), strings, ints, db);
      break;
  }
}

/// The members of `constants` that `catalog` (sorted) lacks, in order.
std::vector<Value> Missing(const std::set<Value>& constants,
                           const std::vector<Value>& catalog) {
  std::vector<Value> out;
  for (const Value& v : constants) {
    if (!std::binary_search(catalog.begin(), catalog.end(), v)) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace

QueryDomain::QueryDomain(const Database& db, const Query& q)
    : catalog_(db.ActiveDomain()) {
  std::set<Value> strings;
  std::set<Value> ints;
  CollectQueryConstants(q, strings, ints, db);
  extra_.strings = Missing(strings, catalog_.strings);
  extra_.ints = Missing(ints, catalog_.ints);
}

const std::vector<Value>& QueryDomain::OfType(DataType type) const {
  const bool is_string = type == DataType::kString;
  const std::vector<Value>& catalog =
      is_string ? catalog_.strings : catalog_.ints;
  const std::vector<Value>& extra = is_string ? extra_.strings : extra_.ints;
  if (extra.empty()) return catalog;
  std::optional<std::vector<Value>>& merged =
      is_string ? merged_strings_ : merged_ints_;
  if (!merged.has_value()) {
    merged.emplace();
    merged->reserve(catalog.size() + extra.size());
    std::merge(catalog.begin(), catalog.end(), extra.begin(), extra.end(),
               std::back_inserter(*merged));
  }
  return *merged;
}

std::int64_t QueryDomain::size(DataType type) const {
  const bool is_string = type == DataType::kString;
  return static_cast<std::int64_t>(
      is_string ? catalog_.strings.size() + extra_.strings.size()
                : catalog_.ints.size() + extra_.ints.size());
}

}  // namespace query
}  // namespace itdb
