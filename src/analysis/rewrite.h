// Analyzer-driven sound rewrites (dead-branch elimination).
//
// The only rewrite applied is the one with a bit-identical justification:
// in OR(a, b) where b is proven BIT-empty (evaluation yields zero tuples,
// not merely the empty set -- see emptiness.h) and free(b) is a subset of
// free(a), the evaluator would compute Union(Eval(a), ExtendTo(Eval(b),
// schema)) -- and appending ZERO tuples to a relation returns the exact
// same representation, so OR(a, b) can be replaced by a outright
// (symmetrically for an empty a).  The free-variable condition matters:
// if b contributed a column that a lacks, dropping b would change the
// result SCHEMA even though b has no tuples.  Set-level proofs (a
// DBM-refuted selection chain) are NOT enough: evaluating such a branch
// can yield infeasible-but-present tuples, and dropping them would be
// visible in the union's representation.
//
// Elimination runs in two steps around the optimizer.  MarkDeadBranches
// replaces each dead branch by a marker atom over the branch's free
// variables; DropDeadBranchMarkers removes the marked OR arms afterwards.
// Dropping a branch before query::Optimize would change what the optimizer
// sees: EXISTS v . (X OR dead) keeps v above the OR, while EXISTS v . X
// lets miniscoping push v into X's conjunction, and projecting before the
// join is a different representation than projecting after it.  The
// optimizer decides on free variables and node kinds only, so an OR arm
// with the dead branch's free variables steers it exactly as the branch
// did.  Because free(b) is a subset of free(a), no quantifier is ever
// pushed into the marker alone: it stays a direct OR arm.
//
// Proven-empty nodes that are not OR branches are left alone -- replacing
// e.g. an AND with a literal "empty" node could skip evaluation work but
// would need a canonical-empty constructor in the AST; the evaluator's
// root short-circuit (eval.cc) covers the root case instead.

#ifndef ITDB_ANALYSIS_REWRITE_H_
#define ITDB_ANALYSIS_REWRITE_H_

#include <set>

#include "query/ast.h"

namespace itdb {
namespace analysis {

/// Replaces the provably-dead OR branches of `q` (per `empty`, which must
/// point into `q`'s tree) by markers.  Returns `q` itself when nothing
/// applies; shares untouched subtrees otherwise.  `marked` counts the
/// replaced branches.
query::QueryPtr MarkDeadBranches(const query::QueryPtr& q,
                                 const std::set<const query::Query*>& empty,
                                 int* marked);

/// Removes every OR arm of `q` that is a marker.  Returns `q` itself when
/// it has none.  A marker anywhere else stays, and sort inference rejects
/// it as an unknown relation.
query::QueryPtr DropDeadBranchMarkers(const query::QueryPtr& q);

}  // namespace analysis
}  // namespace itdb

#endif  // ITDB_ANALYSIS_REWRITE_H_
