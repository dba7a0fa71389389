#include "analysis/emptiness.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/dbm.h"
#include "util/numeric.h"

namespace itdb {
namespace analysis {

namespace {

using query::Query;
using query::QueryCmp;
using query::Sort;
using query::SortMap;
using query::Term;

bool IsTemporalVar(const Term& t, const SortMap& sorts) {
  if (t.kind != Term::Kind::kVariable) return false;
  auto it = sorts.find(t.var);
  return it != sorts.end() && it->second == Sort::kTime;
}

bool CmpHolds(std::int64_t l, QueryCmp op, std::int64_t r) {
  switch (op) {
    case QueryCmp::kEq:
      return l == r;
    case QueryCmp::kNe:
      return l != r;
    case QueryCmp::kLe:
      return l <= r;
    case QueryCmp::kLt:
      return l < r;
    case QueryCmp::kGe:
      return l >= r;
    case QueryCmp::kGt:
      return l > r;
  }
  return false;
}

/// Truth value of a comparison with no degrees of freedom, or nullopt.
/// Same-variable comparisons are only ground over the temporal sort
/// ((t + a) op (t + b) reduces to a op b); the evaluator rejects a data
/// variable compared with itself, so claiming a truth value there would
/// let the rewriter hide an evaluation error.
std::optional<bool> GroundCmpTruth(const Query& q, const SortMap& sorts) {
  const Term& l = q.lhs();
  const Term& r = q.rhs();
  if (l.kind == Term::Kind::kVariable && r.kind == Term::Kind::kVariable) {
    if (l.var == r.var && IsTemporalVar(l, sorts)) {
      return CmpHolds(l.number, q.cmp(), r.number);
    }
    return std::nullopt;
  }
  if (l.kind == Term::Kind::kInt && r.kind == Term::Kind::kInt) {
    return CmpHolds(l.number, q.cmp(), r.number);
  }
  if (l.kind == Term::Kind::kString && r.kind == Term::Kind::kString &&
      (q.cmp() == QueryCmp::kEq || q.cmp() == QueryCmp::kNe)) {
    bool eq = l.text == r.text;
    return q.cmp() == QueryCmp::kEq ? eq : !eq;
  }
  return std::nullopt;
}

/// Collects the conjuncts of a maximal AND-chain.
void FlattenConjuncts(const Query& q, std::vector<const Query*>& out) {
  if (q.kind() == Query::Kind::kAnd) {
    FlattenConjuncts(*q.left(), out);
    FlattenConjuncts(*q.right(), out);
    return;
  }
  out.push_back(&q);
}

/// Per-node proof strength (see EmptinessProof in the header).
struct Proof {
  bool empty = false;
  bool bit = false;
};

struct EmptinessProver {
  const Database& db;
  const SortMap& sorts;
  EmptinessProof out;

  Proof Mark(const Query& q, Proof p) {
    if (p.empty) out.empty.insert(&q);
    if (p.bit) out.bit_empty.insert(&q);
    return p;
  }

  /// Difference constraints implied by the purely constant temporal
  /// comparisons among `conjuncts`; infeasibility of their closure proves
  /// the conjunction empty.  Comparisons that do not fit the difference
  /// form (data sort, !=, overflow) are simply skipped -- dropping a
  /// constraint can only make the system MORE feasible, so skipping is
  /// sound.
  bool ConjunctionInfeasible(const std::vector<const Query*>& conjuncts) {
    std::map<std::string, int> index;
    auto var_index = [&](const std::string& name) {
      return index.emplace(name, static_cast<int>(index.size())).first->second;
    };
    auto sub = [](std::int64_t a, std::int64_t b) -> std::optional<std::int64_t> {
      Result<std::int64_t> r = CheckedSub(a, b);
      if (!r.ok()) return std::nullopt;
      return r.value();
    };
    std::vector<AtomicConstraint> constraints;
    // Turns `x op bound` (x a difference of nodes) into <= constraints;
    // kEq contributes both directions, kNe nothing.
    auto push = [&](int i, int j, QueryCmp op, std::int64_t bound) -> bool {
      switch (op) {
        case QueryCmp::kLe:
          constraints.push_back({i, j, bound});
          return true;
        case QueryCmp::kLt: {
          std::optional<std::int64_t> b = sub(bound, 1);
          if (!b.has_value()) return true;
          constraints.push_back({i, j, *b});
          return true;
        }
        case QueryCmp::kGe: {
          std::optional<std::int64_t> b = sub(0, bound);
          if (!b.has_value()) return true;
          constraints.push_back({j, i, *b});
          return true;
        }
        case QueryCmp::kGt: {
          std::optional<std::int64_t> b = sub(-1, bound);
          if (!b.has_value()) return true;
          constraints.push_back({j, i, *b});
          return true;
        }
        case QueryCmp::kEq: {
          constraints.push_back({i, j, bound});
          std::optional<std::int64_t> b = sub(0, bound);
          if (!b.has_value()) return true;
          constraints.push_back({j, i, *b});
          return true;
        }
        case QueryCmp::kNe:
          return true;
      }
      return true;
    };
    for (const Query* c : conjuncts) {
      if (c->kind() != Query::Kind::kCmp || c->cmp() == QueryCmp::kNe) {
        continue;
      }
      const Term& l = c->lhs();
      const Term& r = c->rhs();
      bool l_temporal = IsTemporalVar(l, sorts);
      bool r_temporal = IsTemporalVar(r, sorts);
      if (l_temporal && r_temporal && l.var != r.var) {
        // (vl + cl) op (vr + cr)  <=>  vl - vr op cr - cl.
        std::optional<std::int64_t> delta = sub(r.number, l.number);
        if (!delta.has_value()) continue;
        push(var_index(l.var), var_index(r.var), c->cmp(), *delta);
      } else if (l_temporal && r.kind == Term::Kind::kInt) {
        // (v + cl) op k  <=>  v op k - cl.
        std::optional<std::int64_t> bound = sub(r.number, l.number);
        if (!bound.has_value()) continue;
        push(var_index(l.var), kZeroVar, c->cmp(), *bound);
      } else if (r_temporal && l.kind == Term::Kind::kInt) {
        // k op (v + cr)  <=>  v flip(op) k - cr.
        std::optional<std::int64_t> bound = sub(l.number, r.number);
        if (!bound.has_value()) continue;
        QueryCmp flipped = c->cmp();
        switch (c->cmp()) {
          case QueryCmp::kLe:
            flipped = QueryCmp::kGe;
            break;
          case QueryCmp::kLt:
            flipped = QueryCmp::kGt;
            break;
          case QueryCmp::kGe:
            flipped = QueryCmp::kLe;
            break;
          case QueryCmp::kGt:
            flipped = QueryCmp::kLt;
            break;
          case QueryCmp::kEq:
          case QueryCmp::kNe:
            break;
        }
        push(var_index(r.var), kZeroVar, flipped, *bound);
      }
    }
    if (constraints.empty()) return false;
    Dbm dbm(static_cast<int>(index.size()));
    if (!dbm.Close().ok()) return false;
    for (const AtomicConstraint& c : constraints) {
      switch (dbm.TightenAndClose(c)) {
        case Dbm::TightenResult::kInfeasible:
          return true;
        case Dbm::TightenResult::kFallbackNeeded:
          // Skipping the constraint keeps the check sound (see above).
          break;
        case Dbm::TightenResult::kClosed:
          break;
      }
    }
    return false;
  }

  /// Recurses over the whole tree (so nodes inside negations still get
  /// marked for diagnostics) and returns the proof strength of `q`.
  /// Bit-level emptiness descends only from leaves the evaluator renders
  /// with zero tuples: an empty atom, a ground-false comparison (every
  /// ground branch of EvalCmp returns a zero-tuple relation on false).
  /// DBM conjunction proofs are set-level only -- a chain of selections
  /// can keep tuples whose constraint sets are infeasible -- as are
  /// FORALL proofs, whose double complement rebuilds a representation.
  Proof Prove(const Query& q) {
    switch (q.kind()) {
      case Query::Kind::kAtom: {
        Result<const GeneralizedRelation&> rel = db.Get(q.relation());
        bool empty = rel.ok() && rel.value().tuples().empty();
        return Mark(q, {empty, empty});
      }
      case Query::Kind::kCmp: {
        std::optional<bool> truth = GroundCmpTruth(q, sorts);
        bool empty = truth.has_value() && !truth.value();
        return Mark(q, {empty, empty});
      }
      case Query::Kind::kAnd: {
        Proof left = Prove(*q.left());
        Proof right = Prove(*q.right());
        // A join with a zero-tuple operand yields zero tuples.
        Proof p{left.empty || right.empty, left.bit || right.bit};
        if (!p.empty) {
          std::vector<const Query*> conjuncts;
          FlattenConjuncts(q, conjuncts);
          p.empty = ConjunctionInfeasible(conjuncts);
        }
        return Mark(q, p);
      }
      case Query::Kind::kOr: {
        Proof left = Prove(*q.left());
        Proof right = Prove(*q.right());
        return Mark(q, {left.empty && right.empty, left.bit && right.bit});
      }
      case Query::Kind::kNot:
        Prove(*q.left());
        return {};
      case Query::Kind::kExists: {
        // Projection of zero tuples is zero tuples.
        return Mark(q, Prove(*q.left()));
      }
      case Query::Kind::kForall: {
        Proof child = Prove(*q.left());
        auto it = sorts.find(q.quantified_var());
        bool safe_var = it == sorts.end() || it->second == Sort::kTime;
        return Mark(q, {child.empty && safe_var, false});
      }
    }
    return {};
  }
};

}  // namespace

EmptinessProof ProveEmptySubplans(const Database& db, const Query& q,
                                  const SortMap& sorts) {
  EmptinessProver prover{db, sorts, {}};
  prover.Prove(q);
  return std::move(prover.out);
}

}  // namespace analysis
}  // namespace itdb
