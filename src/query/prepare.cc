#include "query/prepare.h"

#include <optional>
#include <string>
#include <utility>

#include "analysis/absint.h"
#include "obs/metrics.h"
#include "query/optimize.h"
#include "util/diagnostic.h"

namespace itdb {
namespace query {

namespace {

/// The Status an error-severity analysis turns into: the legacy code for
/// the FIRST error (NotFound for unknown relations, InvalidArgument
/// otherwise), with the whole diagnostic list in the message.
Status AnalysisFailure(const analysis::AnalysisResult& analysis) {
  obs::AddGlobalCounter("analysis.aborts", 1);
  std::string message =
      "static analysis failed:\n" + FormatDiagnosticList(analysis.diagnostics);
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (d.code == diag::kUnknownRelation) return Status::NotFound(message);
    break;
  }
  return Status::InvalidArgument(message);
}

}  // namespace

PreparedQuery Prepare(const Database& db, const QueryPtr& q,
                      const QueryOptions& options) {
  PreparedQuery prepared;
  prepared.query = q;
  prepared.db_version = db.version();
  if (options.analyze) {
    analysis::AnalyzeOptions aopts = options.analysis;
    if (aopts.stats_cache == nullptr) aopts.stats_cache = options.stats_cache;
    // Analysis spans follow the same opt-in as evaluation spans: only a
    // traced run forwards the tracer (an untraced eval opens no spans).
    if (aopts.tracer == nullptr && options.trace) {
      aopts.tracer = options.tracer != nullptr ? options.tracer
                                               : options.algebra.tracer;
    }
    prepared.analysis = analysis::Analyze(db, q, aopts);
    prepared.grade = analysis::GradeCost(*prepared.analysis, aopts);
  }
  prepared.optimized = options.optimize ? Optimize(q) : q;
  prepared.fingerprint = prepared.optimized->ToString();
  return prepared;
}

Result<ExecutionPlan> PlanPrepared(const Database& db,
                                   const PreparedQuery& prepared,
                                   const QueryOptions& options) {
  ExecutionPlan plan;
  // Static analysis: abort on error-severity findings, serve a proven-empty
  // root without a plan, drop provably dead OR branches.
  QueryPtr base = prepared.query;
  if (options.analyze && prepared.analysis.has_value()) {
    const analysis::AnalysisResult& ar = *prepared.analysis;
    if (ar.HasErrors()) return AnalysisFailure(ar);
    // Short-circuit only on a bit-level proof: the plain evaluation of a
    // merely set-empty root can return infeasible tuples, and analysis
    // must be representation-invisible.
    if (ar.root_proven_bit_empty) {
      plan.sorts = ar.sorts;
      return plan;
    }
    base = analysis::ApplySoundRewrites(prepared.query, ar);
  }
  // ApplySoundRewrites returns its input when nothing applies.
  plan.tree = base;
  if (options.optimize) {
    plan.tree = base == prepared.query ? prepared.optimized : Optimize(base);
  }
  ITDB_ASSIGN_OR_RETURN(plan.sorts, InferSorts(db, plan.tree));
  // Cost-based physical planning: reorder AND-chains on the statistics.
  // Planning preserves variable sets, so the sort inference above stays
  // valid for the planned tree.
  if (options.cost_plan) {
    // Certified bounds: interpret the tree being planned so the planner can
    // clamp its heuristics (planner.h).  The active domain is seeded from
    // the WRITTEN query, as the evaluator's is: rewrites may drop
    // constants, but the evaluator's data universes are sized from it.
    std::optional<analysis::AbstractInterpreter> interp;
    if (options.certified_bounds) {
      interp.emplace(db, plan.sorts, options.stats_cache,
                     options.analysis.budget);
      interp->SeedActiveDomain(*prepared.query);
      interp->Interpret(plan.tree);
    }
    PlannedQuery planned =
        PlanQuery(db, plan.tree, plan.sorts, options.stats_cache,
                  interp.has_value() ? &*interp : nullptr);
    plan.tree = std::move(planned.query);
    plan.estimates = std::move(planned.estimates);
    // Copy AFTER planning: the planner registers certificates for the AND
    // nodes it rebuilds, so the planned tree is fully annotated.
    if (interp.has_value()) plan.certificates = interp->certificates();
    obs::AddGlobalCounter("query.cost_plans", 1);
  }
  return plan;
}

}  // namespace query
}  // namespace itdb
