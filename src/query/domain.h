// The active domain a query's data variables range over (Section 4): the
// catalog's data values (Database::ActiveDomain) plus the query's own
// constants, split by type.  The evaluator enumerates it for data
// universes; the abstract interpreter (analysis/absint.h) counts it.

#ifndef ITDB_QUERY_DOMAIN_H_
#define ITDB_QUERY_DOMAIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/schema.h"
#include "core/value.h"
#include "query/ast.h"
#include "storage/database.h"

namespace itdb {
namespace query {

class QueryDomain {
 public:
  /// Borrows `db`'s catalog domain: valid while `db` is not mutated.
  /// Costs the query's size, not the catalog's.
  QueryDomain(const Database& db, const Query& q);

  /// The sorted, distinct values of `type`.  The union with the query's
  /// constants is built on the first call, so a query that never
  /// enumerates a data universe never copies the catalog's values.  Not
  /// safe for concurrent first calls.
  const std::vector<Value>& OfType(DataType type) const;

  /// OfType(type).size(), without building the union.
  std::int64_t size(DataType type) const;

 private:
  const DataDomain& catalog_;
  /// The query's constants that the catalog lacks, sorted and distinct.
  DataDomain extra_;
  mutable std::optional<std::vector<Value>> merged_strings_;
  mutable std::optional<std::vector<Value>> merged_ints_;
};

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_DOMAIN_H_
