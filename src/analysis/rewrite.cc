#include "analysis/rewrite.h"

#include <algorithm>
#include <string>
#include <vector>

namespace itdb {
namespace analysis {

namespace {

using query::Query;
using query::QueryPtr;
using query::Term;

/// The relation name of a marker: no parsed query can name it.
constexpr char kDeadBranchMarker[] = "#dead";

QueryPtr Marker(const Query& branch) {
  std::vector<Term> args;
  for (const std::string& v : branch.FreeVariables()) {
    args.push_back(Term::Variable(v));
  }
  return Query::Atom(kDeadBranchMarker, std::move(args));
}

bool IsMarker(const Query& q) {
  return q.kind() == Query::Kind::kAtom && q.relation() == kDeadBranchMarker;
}

QueryPtr Rebuild(QueryPtr node, const QueryPtr& original) {
  Query::SetSpans(node, original->span());
  return node;
}

/// free(a) subset-of free(b); FreeVariables() returns sorted vectors.
bool FreeVarsSubset(const Query& a, const Query& b) {
  const std::vector<std::string> av = a.FreeVariables();
  const std::vector<std::string> bv = b.FreeVariables();
  return std::includes(bv.begin(), bv.end(), av.begin(), av.end());
}

struct Rewriter {
  const std::set<const Query*>& empty;
  int marked = 0;

  /// `negated` mirrors the pending-negation flag of the optimizer's
  /// PushNegations: it flips at NOT, is inherited by AND / OR / FORALL
  /// operands, and resets at an EXISTS body (the optimizer keeps the
  /// negation outside the quantifier).  Elimination only fires at
  /// non-negated OR nodes -- under a pending negation the optimizer turns
  /// the OR into an AND (De Morgan), and conjoining with the complement of
  /// an empty branch is semantically a no-op but not representation-
  /// preserving, which would break the bit-identity contract.
  QueryPtr Rewrite(const QueryPtr& q, bool negated) {
    switch (q->kind()) {
      case Query::Kind::kAtom:
      case Query::Kind::kCmp:
        return q;
      case Query::Kind::kAnd: {
        QueryPtr left = Rewrite(q->left(), negated);
        QueryPtr right = Rewrite(q->right(), negated);
        if (left == q->left() && right == q->right()) return q;
        return Rebuild(Query::And(std::move(left), std::move(right)), q);
      }
      case Query::Kind::kOr: {
        // Dead-branch elimination: dropping an empty branch whose free
        // variables the sibling covers appends zero tuples fewer to the
        // union -- bit-identical (see rewrite.h).
        if (!negated && empty.contains(q->left().get()) &&
            FreeVarsSubset(*q->left(), *q->right())) {
          ++marked;
          return Rebuild(
              Query::Or(Marker(*q->left()), Rewrite(q->right(), negated)), q);
        }
        if (!negated && empty.contains(q->right().get()) &&
            FreeVarsSubset(*q->right(), *q->left())) {
          ++marked;
          return Rebuild(
              Query::Or(Rewrite(q->left(), negated), Marker(*q->right())), q);
        }
        QueryPtr left = Rewrite(q->left(), negated);
        QueryPtr right = Rewrite(q->right(), negated);
        if (left == q->left() && right == q->right()) return q;
        return Rebuild(Query::Or(std::move(left), std::move(right)), q);
      }
      case Query::Kind::kNot: {
        QueryPtr body = Rewrite(q->left(), !negated);
        if (body == q->left()) return q;
        return Rebuild(Query::Not(std::move(body)), q);
      }
      case Query::Kind::kExists: {
        QueryPtr body = Rewrite(q->left(), /*negated=*/false);
        if (body == q->left()) return q;
        return Rebuild(Query::Exists(q->quantified_var(), std::move(body)), q);
      }
      case Query::Kind::kForall: {
        QueryPtr body = Rewrite(q->left(), negated);
        if (body == q->left()) return q;
        return Rebuild(Query::Forall(q->quantified_var(), std::move(body)), q);
      }
    }
    return q;
  }
};

}  // namespace

QueryPtr MarkDeadBranches(const QueryPtr& q,
                          const std::set<const Query*>& empty, int* marked) {
  Rewriter rewriter{empty};
  QueryPtr out = rewriter.Rewrite(q, /*negated=*/false);
  if (marked != nullptr) *marked = rewriter.marked;
  return out;
}

QueryPtr DropDeadBranchMarkers(const QueryPtr& q) {
  switch (q->kind()) {
    case Query::Kind::kAtom:
    case Query::Kind::kCmp:
      return q;
    case Query::Kind::kAnd:
    case Query::Kind::kOr: {
      const bool is_or = q->kind() == Query::Kind::kOr;
      if (is_or && IsMarker(*q->left())) {
        return DropDeadBranchMarkers(q->right());
      }
      if (is_or && IsMarker(*q->right())) {
        return DropDeadBranchMarkers(q->left());
      }
      QueryPtr left = DropDeadBranchMarkers(q->left());
      QueryPtr right = DropDeadBranchMarkers(q->right());
      if (left == q->left() && right == q->right()) return q;
      return Rebuild(is_or ? Query::Or(std::move(left), std::move(right))
                           : Query::And(std::move(left), std::move(right)),
                     q);
    }
    case Query::Kind::kNot:
    case Query::Kind::kExists:
    case Query::Kind::kForall: {
      QueryPtr body = DropDeadBranchMarkers(q->left());
      if (body == q->left()) return q;
      if (q->kind() == Query::Kind::kNot) {
        return Rebuild(Query::Not(std::move(body)), q);
      }
      return Rebuild(q->kind() == Query::Kind::kExists
                         ? Query::Exists(q->quantified_var(), std::move(body))
                         : Query::Forall(q->quantified_var(), std::move(body)),
                     q);
    }
  }
  return q;
}

}  // namespace analysis
}  // namespace itdb
