#include "query/prepare.h"

#include <map>
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

void CountBinders(const Query& q, std::map<std::string, int>* binders) {
  switch (q.kind()) {
    case Query::Kind::kAtom:
    case Query::Kind::kCmp:
      return;
    case Query::Kind::kAnd:
    case Query::Kind::kOr:
      CountBinders(*q.right(), binders);
      break;
    case Query::Kind::kExists:
    case Query::Kind::kForall:
      ++(*binders)[q.quantified_var()];
      break;
    case Query::Kind::kNot:
      break;
  }
  CountBinders(*q.left(), binders);
}

/// The kNonEmptiness body (PlanGoal): drops each EXISTS reachable through
/// AND / EXISTS whose variable `binders` counts once.
QueryPtr DropWitnessQuantifiers(const QueryPtr& q,
                                const std::map<std::string, int>& binders) {
  switch (q->kind()) {
    case Query::Kind::kAnd: {
      QueryPtr left = DropWitnessQuantifiers(q->left(), binders);
      QueryPtr right = DropWitnessQuantifiers(q->right(), binders);
      if (left == q->left() && right == q->right()) return q;
      return Query::And(std::move(left), std::move(right));
    }
    case Query::Kind::kExists: {
      QueryPtr body = DropWitnessQuantifiers(q->left(), binders);
      if (binders.at(q->quantified_var()) == 1) return body;
      if (body == q->left()) return q;
      return Query::Exists(q->quantified_var(), std::move(body));
    }
    default:
      return q;
  }
}

QueryPtr DropWitnessQuantifiers(const QueryPtr& q) {
  std::map<std::string, int> binders;
  CountBinders(*q, &binders);
  // A variable free in the root occurs outside every binder's scope: one
  // more count keeps its binders.
  for (const std::string& v : q->FreeVariables()) ++binders[v];
  return DropWitnessQuantifiers(q, binders);
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
                                   const QueryOptions& options,
                                   PlanGoal goal) {
  ExecutionPlan plan;
  // The goal's body, optimized (the written tree's optimization is
  // already in `prepared`).
  auto lower = [&](const QueryPtr& tree) {
    QueryPtr body = goal == PlanGoal::kNonEmptiness
                        ? DropWitnessQuantifiers(tree)
                        : tree;
    if (!options.optimize) return body;
    return body == prepared.query ? prepared.optimized : Optimize(body);
  };
  // Static analysis: abort on error-severity findings, serve a proven-empty
  // root without a plan, drop provably dead OR branches.
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
    plan.tree =
        analysis::ApplySoundRewrites(prepared.query, ar, nullptr, lower);
  } else {
    plan.tree = lower(prepared.query);
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
