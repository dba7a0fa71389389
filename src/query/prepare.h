// The query front end, compiled once per statement.
//
// Section 4 separates a data-independent compile step from evaluation.  Here
// that step is the front end, in two parts, and every consumer -- server
// admission, the batcher and result cache, `explain`, `check`, evaluation --
// reads one PreparedQuery instead of re-running a copy of it:
//
//   Prepare       analysis::Analyze (at most once), the cost grade, and
//                 Optimize of the written tree (the fingerprint the cache
//                 keys on).  A result-cache hit stops here.
//   PlanPrepared  sound rewrites, sort inference, the planner's abstract
//                 interpretation and PlanQuery: the tree evaluation runs,
//                 which is the tree `explain` prints.  A yes/no query is
//                 planned for the emptiness of its body (PlanGoal).
//
// Emptiness proofs and certificates describe the data at `db_version`; a
// PreparedQuery that is no longer current is prepared again before anything
// acts on it.  It belongs to the Database it was prepared against.

#ifndef ITDB_QUERY_PREPARE_H_
#define ITDB_QUERY_PREPARE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/analyzer.h"
#include "query/eval.h"
#include "query/planner.h"

namespace itdb {
namespace query {

struct PreparedQuery {
  QueryPtr query;  // As written.
  /// nullopt when prepared with `analyze` off.
  std::optional<analysis::AnalysisResult> analysis;
  /// From `analysis`; kNormal with a top certificate without one.
  analysis::CostGrade grade;
  QueryPtr optimized;  // Optimize(query) when `optimize` is on, else query.
  std::string fingerprint;  // optimized->ToString().
  std::uint64_t db_version = 0;  // Database::version() at Prepare.
};

/// Analysis runs iff options.analyze, with options.analysis (its
/// stats_cache defaulting to options.stats_cache, its tracer to the
/// evaluation tracer on traced runs).  Never fails.
PreparedQuery Prepare(const Database& db, const QueryPtr& q,
                      const QueryOptions& options);

struct ExecutionPlan {
  /// Null when the analysis proved the root bit-empty: evaluation returns
  /// the empty relation without running a plan.
  QueryPtr tree;
  SortMap sorts;  // Of `tree` (the analysis' sorts when it is null).
  PlanEstimateMap estimates;  // Empty unless cost_plan.
  analysis::CertificateMap certificates;  // Empty unless certified_bounds.
};

/// What the caller reads of the evaluated tree.
enum class PlanGoal {
  /// The result relation, bit-identical with analysis on or off.
  kRelation,
  /// Only whether it is empty (`ask`).  Every EXISTS reachable from the
  /// root through AND / EXISTS nodes whose variable is bound nowhere else
  /// and is not free in the root is dropped before the optimizer runs.
  /// Projection is exact on normal-form tuples (Theorem 3.1), so the body
  /// is nonempty iff the query is, and the binding rule means a dropped
  /// quantifier can neither capture nor merge variables.  EXISTS under
  /// OR / NOT / FORALL stays, and so does a FORALL root.
  kNonEmptiness,
};

/// Plans `prepared` as evaluation under `options` runs it (`prepared`
/// must be current and analyzed if options.analyze).  With
/// options.analyze, error findings fail the call (NotFound for an unknown
/// relation) and a bit-empty root yields a null tree.  Sort conflicts fail.
Result<ExecutionPlan> PlanPrepared(const Database& db,
                                   const PreparedQuery& prepared,
                                   const QueryOptions& options,
                                   PlanGoal goal = PlanGoal::kRelation);

}  // namespace query
}  // namespace itdb

#endif  // ITDB_QUERY_PREPARE_H_
