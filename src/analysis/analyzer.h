// Static query analysis (the front end of EvalQuery).
//
// Analyze runs a fixed sequence of passes over a parsed query AST, before
// any algebra executes, and reports findings as coded Diagnostics
// (util/diagnostic.h):
//
//   1. sort/type checking of the two-sorted language (query/sorts.h,
//      collecting form) plus structural checks: mixed-constant
//      comparisons (A004), data self-comparison (A007), vacuous
//      quantifiers (A013);
//   2. safety / range restriction: a data variable not bound by a positive
//      atom (or a positive equality with a constant) ranges over the whole
//      active domain (A008);
//   3. satisfiability prechecks (emptiness.h): constant temporal
//      constraints of each conjunction are closed with
//      Dbm::TightenAndClose; an infeasible conjunction, an empty relation,
//      or a ground-false comparison proves a subplan empty, and emptiness
//      propagates up the plan (A-and-empty = empty, or of empties = empty,
//      exists of empty = empty, ...) -- reported as A009 on maximal empty
//      nodes;
//   4. complexity / cost estimates (cost.h): complements over wide
//      operands (NP-complete regime, Theorem 3.5; A010), conjunctions with
//      no shared attributes (cross products; A011), and period-blowup
//      estimates from the lcm of operand periods (A012).
//
// Passes 2-4 only run when pass 1 found no errors (their inputs -- the
// SortMap -- would be meaningless otherwise).
//
// Soundness contract (pinned by the fuzz oracle, fuzz/query_oracle.h):
// every node in `proven_empty` denotes the empty relation, and
// ApplySoundRewrites never changes the evaluation result -- bit-identical
// output at any thread count, analysis on or off.  Only the
// `proven_bit_empty` subset (evaluation provably yields ZERO tuples, not
// just the empty set -- see emptiness.h) may drive rewrites or
// short-circuits; DBM-refuted subplans stay diagnostics-only because the
// evaluator may represent them with infeasible tuples.

#ifndef ITDB_ANALYSIS_ANALYZER_H_
#define ITDB_ANALYSIS_ANALYZER_H_

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "analysis/absint.h"
#include "obs/trace.h"
#include "query/ast.h"
#include "query/sorts.h"
#include "storage/database.h"
#include "util/diagnostic.h"

namespace itdb {
namespace analysis {

struct AnalyzeOptions {
  bool check_safety = true;
  bool check_emptiness = true;
  bool check_cost = true;
  /// Pass 5: abstract interpretation (absint.h).  Fills
  /// AnalysisResult::certificates and reports A014-A017.
  bool check_certificates = true;
  /// A012 fires when the lcm of the periods reachable from the root
  /// exceeds this.  A015 is its certified counterpart: it fires when the
  /// CERTIFIED root lcm exceeds the same threshold.
  std::int64_t period_blowup_threshold = 720;
  /// A010 fires for complements (NOT / FORALL) whose operand has at least
  /// this many free temporal variables.
  int complement_width_threshold = 2;
  /// A014 fires when the certified root cardinality exceeds this.
  std::int64_t certified_rows_threshold = 1'000'000;
  /// Budgets for the certificate pass (widening + lcm growth).
  FixpointBudget budget;
  /// Statistics cache for the certificate pass; null computes stats per
  /// relation on the fly.  Not owned.
  StatsCache* stats_cache = nullptr;
  /// Span destination for the "analysis" category; null falls back to the
  /// process-global tracer.  Not owned.
  obs::Tracer* tracer = nullptr;
};

struct AnalysisResult {
  /// Keeps the analyzed tree alive: `proven_empty` points into it.
  query::QueryPtr root;
  /// All findings, in pass order (source order within a pass).
  std::vector<Diagnostic> diagnostics;
  /// Valid when HasErrors() is false.
  query::SortMap sorts;
  /// Every node of `root`'s tree whose denotation is provably empty.
  std::set<const query::Query*> proven_empty;
  /// The subset whose evaluation provably yields zero tuples; the only
  /// proofs strong enough to rewrite or short-circuit on.
  std::set<const query::Query*> proven_bit_empty;
  bool root_proven_empty = false;
  bool root_proven_bit_empty = false;
  /// Pass-5 certificates for every node of `root`'s tree (empty when
  /// check_certificates was off or pass 1 found errors).
  CertificateMap certificates;
  /// The root node's certificate (top when the pass did not run).
  Certificate root_certificate;

  bool HasErrors() const { return itdb::HasErrors(diagnostics); }
  int errors() const { return CountSeverity(diagnostics, Severity::kError); }
  int warnings() const {
    return CountSeverity(diagnostics, Severity::kWarning);
  }
};

/// Runs all passes.  Never fails: problems are diagnostics, not Statuses.
AnalysisResult Analyze(const Database& db, const query::QueryPtr& q,
                       const AnalyzeOptions& options = {});

/// The admission grade of a query (server/admission.h).  kHeavy is
/// worst-case exponential work: certified bounds over the A014 / A015
/// thresholds, or an unbounded certificate with A010 / A012 firing.
enum class CostClass { kNormal, kHeavy };

struct CostGrade {
  CostClass cls = CostClass::kNormal;
  /// Top when the analysis had errors or no certificate pass.  Unbounded
  /// also makes the result ineligible for the result cache.
  Certificate root_certificate;
};

/// Grades an analysis run with `options`.  Errors grade kNormal:
/// evaluation reports them.
CostGrade GradeCost(const AnalysisResult& result,
                    const AnalyzeOptions& options);

/// Applies the provably sound subset of the analysis as a rewrite: an OR
/// branch proven empty whose free variables are a subset of the surviving
/// branch's is dropped (union with zero tuples is the identity on the
/// representation, so the result is bit-identical).  Returns `q` itself
/// when nothing applies; `removed`, if non-null, receives the number of
/// branches dropped.
///
/// `lower` (e.g. query::Optimize) is applied to the tree with each dead
/// branch still in place as a marker, and the branches are dropped from
/// its result (rewrite.h): the result equals lower(q) minus the dead
/// branches, so dropping one cannot change how `lower` treats the rest.
/// Without `lower` the dropped tree is returned as is.
query::QueryPtr ApplySoundRewrites(
    const query::QueryPtr& q, const AnalysisResult& analysis,
    int* removed = nullptr,
    const std::function<query::QueryPtr(const query::QueryPtr&)>& lower = {});

}  // namespace analysis
}  // namespace itdb

#endif  // ITDB_ANALYSIS_ANALYZER_H_
