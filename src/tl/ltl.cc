#include "tl/ltl.h"

#include <limits>
#include <utility>
#include <vector>

#include "util/numeric.h"

namespace itdb {
namespace tl {

struct TlBuilder : TlFormula {
  using TlFormula::TlFormula;
  Kind& kind() { return kind_; }
  std::string& prop() { return prop_; }
  TlPtr& left() { return left_; }
  TlPtr& right() { return right_; }
  std::int64_t& lo() { return lo_; }
  std::int64_t& hi() { return hi_; }
};

namespace {

std::shared_ptr<TlBuilder> NewNode(TlFormula::Kind kind) {
  auto node = std::make_shared<TlBuilder>();
  node->kind() = kind;
  return node;
}

std::shared_ptr<TlBuilder> Unary(TlFormula::Kind kind, TlPtr a) {
  auto node = NewNode(kind);
  node->left() = std::move(a);
  return node;
}

std::shared_ptr<TlBuilder> Binary(TlFormula::Kind kind, TlPtr a, TlPtr b) {
  auto node = NewNode(kind);
  node->left() = std::move(a);
  node->right() = std::move(b);
  return node;
}

}  // namespace

TlPtr TlFormula::Prop(std::string relation_name) {
  auto node = NewNode(Kind::kProp);
  node->prop() = std::move(relation_name);
  return node;
}
TlPtr TlFormula::Not(TlPtr a) { return Unary(Kind::kNot, std::move(a)); }
TlPtr TlFormula::And(TlPtr a, TlPtr b) {
  return Binary(Kind::kAnd, std::move(a), std::move(b));
}
TlPtr TlFormula::Or(TlPtr a, TlPtr b) {
  return Binary(Kind::kOr, std::move(a), std::move(b));
}
TlPtr TlFormula::Implies(TlPtr a, TlPtr b) {
  return Or(Not(std::move(a)), std::move(b));
}
TlPtr TlFormula::Next(TlPtr a) { return Unary(Kind::kNext, std::move(a)); }
TlPtr TlFormula::Prev(TlPtr a) { return Unary(Kind::kPrev, std::move(a)); }
TlPtr TlFormula::Eventually(TlPtr a) {
  return Unary(Kind::kEventually, std::move(a));
}
TlPtr TlFormula::Always(TlPtr a) { return Unary(Kind::kAlways, std::move(a)); }
TlPtr TlFormula::Once(TlPtr a) { return Unary(Kind::kOnce, std::move(a)); }
TlPtr TlFormula::Historically(TlPtr a) {
  return Unary(Kind::kHistorically, std::move(a));
}
TlPtr TlFormula::Until(TlPtr a, TlPtr b) {
  return Binary(Kind::kUntil, std::move(a), std::move(b));
}
TlPtr TlFormula::Since(TlPtr a, TlPtr b) {
  return Binary(Kind::kSince, std::move(a), std::move(b));
}
TlPtr TlFormula::EventuallyWithin(TlPtr a, std::int64_t lo, std::int64_t hi) {
  auto node = Unary(Kind::kEventuallyWithin, std::move(a));
  node->lo() = lo;
  node->hi() = hi;
  return node;
}
TlPtr TlFormula::AlwaysWithin(TlPtr a, std::int64_t lo, std::int64_t hi) {
  auto node = Unary(Kind::kAlwaysWithin, std::move(a));
  node->lo() = lo;
  node->hi() = hi;
  return node;
}
TlPtr TlFormula::WeakUntil(TlPtr a, TlPtr b) {
  TlPtr always_a = Always(a);
  return Or(std::move(always_a), Until(std::move(a), std::move(b)));
}
TlPtr TlFormula::Release(TlPtr a, TlPtr b) {
  return Not(Until(Not(std::move(a)), Not(std::move(b))));
}

std::string TlFormula::ToString() const {
  switch (kind_) {
    case Kind::kProp:
      return prop_;
    case Kind::kNot:
      return "!(" + left_->ToString() + ")";
    case Kind::kAnd:
      return "(" + left_->ToString() + " & " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " | " + right_->ToString() + ")";
    case Kind::kNext:
      return "X(" + left_->ToString() + ")";
    case Kind::kPrev:
      return "Y(" + left_->ToString() + ")";
    case Kind::kEventually:
      return "F(" + left_->ToString() + ")";
    case Kind::kAlways:
      return "G(" + left_->ToString() + ")";
    case Kind::kOnce:
      return "P(" + left_->ToString() + ")";
    case Kind::kHistorically:
      return "H(" + left_->ToString() + ")";
    case Kind::kUntil:
      return "(" + left_->ToString() + " U " + right_->ToString() + ")";
    case Kind::kSince:
      return "(" + left_->ToString() + " S " + right_->ToString() + ")";
    case Kind::kEventuallyWithin:
      return "F[" + std::to_string(lo_) + "," + std::to_string(hi_) + "](" +
             left_->ToString() + ")";
    case Kind::kAlwaysWithin:
      return "G[" + std::to_string(lo_) + "," + std::to_string(hi_) + "](" +
             left_->ToString() + ")";
  }
  return "?";
}

namespace {

constexpr std::int64_t kNoBound = std::numeric_limits<std::int64_t>::min();

Schema UnarySchema() { return Schema({"T"}, {}, {}); }

GeneralizedRelation UniverseT() {
  GeneralizedRelation out(UnarySchema());
  Status s = out.AddTuple(GeneralizedTuple({Lrp::Make(0, 1)}));
  (void)s;
  return out;
}

/// {t | exists u in S: lo <= u - t <= hi}, where either bound may be
/// kNoBound (absent).  This one combinator yields F, P, and the bounded
/// variants.
Result<GeneralizedRelation> ExistsAtOffset(const GeneralizedRelation& s,
                                           std::int64_t lo, std::int64_t hi,
                                           const AlgebraOptions& options) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation u_named,
                        Rename(s, {{"T", "U"}}));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation pairs,
                        CrossProduct(u_named, UniverseT(), options));
  // Columns: U = 0, T = 1.
  if (lo != kNoBound) {
    // u - t >= lo  <=>  T <= U - lo.
    ITDB_ASSIGN_OR_RETURN(std::int64_t b, CheckedSub(0, lo));
    ITDB_ASSIGN_OR_RETURN(
        pairs,
        SelectTemporal(pairs, TemporalCondition{1, 0, CmpOp::kLe, b},
                       options));
  }
  if (hi != kNoBound) {
    // u - t <= hi  <=>  U <= T + hi.
    ITDB_ASSIGN_OR_RETURN(
        pairs,
        SelectTemporal(pairs, TemporalCondition{0, 1, CmpOp::kLe, hi},
                       options));
  }
  return Project(pairs, {"T"}, options);
}

Result<GeneralizedRelation> Sat(const Database& db, const TlFormula& f,
                                const AlgebraOptions& options);

Result<GeneralizedRelation> SatNegated(const Database& db, const TlPtr& f,
                                       const AlgebraOptions& options) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation inner, Sat(db, *f, options));
  return Complement(inner, options);
}

/// Until / Since.  For Until (past = false):
///   t |= a U b  iff  exists u >= t: b(u) and for all v in [t, u): a(v).
/// Computed as Project_T( GOOD - BAD ) where
///   GOOD = {(t,u) | u in Sat(b), t <= u}
///   BAD  = {(t,u) | exists v: t <= v <= u-1, v not in Sat(a)}.
Result<GeneralizedRelation> SatUntil(const Database& db, const TlFormula& f,
                                     bool past,
                                     const AlgebraOptions& options) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation sat_a, Sat(db, *f.left(), options));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation sat_b,
                        Sat(db, *f.right(), options));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation not_a, Complement(sat_a, options));
  // GOOD pairs.
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation b_named,
                        Rename(sat_b, {{"T", "U"}}));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation good,
                        CrossProduct(b_named, UniverseT(), options));
  {  // Columns: U = 0, T = 1.
    TemporalCondition order = past ? TemporalCondition{0, 1, CmpOp::kLe, 0}
                                   : TemporalCondition{1, 0, CmpOp::kLe, 0};
    ITDB_ASSIGN_OR_RETURN(good, SelectTemporal(good, order, options));
    ITDB_ASSIGN_OR_RETURN(good, Project(good, {"T", "U"}, options));
  }
  // BAD pairs: a violation strictly between t and u (exclusive of u for
  // Until, exclusive of u for Since mirrored: v in (u, t]).
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation v_named,
                        Rename(not_a, {{"T", "V"}}));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation tu,
                        CrossProduct(UniverseT(), v_named, options));
  // Columns now: T = 0, V = 1.  Add U via another cross product.
  GeneralizedRelation u_universe(Schema({"U"}, {}, {}));
  ITDB_RETURN_IF_ERROR(
      u_universe.AddTuple(GeneralizedTuple({Lrp::Make(0, 1)})));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation triples,
                        CrossProduct(tu, u_universe, options));
  // Columns: T = 0, V = 1, U = 2.
  if (!past) {
    // t <= v <= u - 1.
    ITDB_ASSIGN_OR_RETURN(
        triples,
        SelectTemporal(triples, TemporalCondition{0, 1, CmpOp::kLe, 0},
                       options));
    ITDB_ASSIGN_OR_RETURN(
        triples,
        SelectTemporal(triples, TemporalCondition{1, 2, CmpOp::kLe, -1},
                       options));
  } else {
    // u + 1 <= v <= t.
    ITDB_ASSIGN_OR_RETURN(
        triples,
        SelectTemporal(triples, TemporalCondition{2, 1, CmpOp::kLe, -1},
                       options));
    ITDB_ASSIGN_OR_RETURN(
        triples,
        SelectTemporal(triples, TemporalCondition{1, 0, CmpOp::kLe, 0},
                       options));
  }
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation bad,
                        Project(triples, {"T", "U"}, options));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation witnesses,
                        Subtract(good, bad, options));
  return Project(witnesses, {"T"}, options);
}

Result<GeneralizedRelation> Sat(const Database& db, const TlFormula& f,
                                const AlgebraOptions& options) {
  switch (f.kind()) {
    case TlFormula::Kind::kProp: {
      ITDB_ASSIGN_OR_RETURN(const GeneralizedRelation& rel,
                            db.Get(f.prop()));
      if (rel.schema().temporal_arity() != 1 ||
          rel.schema().data_arity() != 0) {
        return Status::InvalidArgument(
            "proposition \"" + f.prop() +
            "\" must be a purely temporal unary relation");
      }
      return Rename(rel, {{rel.schema().temporal_name(0), "T"}});
    }
    case TlFormula::Kind::kNot:
      return SatNegated(db, f.left(), options);
    case TlFormula::Kind::kAnd: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation l, Sat(db, *f.left(), options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation r,
                            Sat(db, *f.right(), options));
      return Intersect(l, r, options);
    }
    case TlFormula::Kind::kOr: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation l, Sat(db, *f.left(), options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation r,
                            Sat(db, *f.right(), options));
      return Union(l, r, options);
    }
    case TlFormula::Kind::kNext: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation s, Sat(db, *f.left(), options));
      return ShiftTemporalColumn(s, 0, -1);
    }
    case TlFormula::Kind::kPrev: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation s, Sat(db, *f.left(), options));
      return ShiftTemporalColumn(s, 0, 1);
    }
    case TlFormula::Kind::kEventually: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation s, Sat(db, *f.left(), options));
      return ExistsAtOffset(s, 0, kNoBound, options);
    }
    case TlFormula::Kind::kOnce: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation s, Sat(db, *f.left(), options));
      return ExistsAtOffset(s, kNoBound, 0, options);
    }
    case TlFormula::Kind::kAlways: {
      // G a == !F !a.
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation not_a,
                            SatNegated(db, f.left(), options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation f_not_a,
                            ExistsAtOffset(not_a, 0, kNoBound, options));
      return Complement(f_not_a, options);
    }
    case TlFormula::Kind::kHistorically: {
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation not_a,
                            SatNegated(db, f.left(), options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation p_not_a,
                            ExistsAtOffset(not_a, kNoBound, 0, options));
      return Complement(p_not_a, options);
    }
    case TlFormula::Kind::kEventuallyWithin: {
      if (f.lo() > f.hi()) {
        return Status::InvalidArgument("EventuallyWithin: lo > hi");
      }
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation s, Sat(db, *f.left(), options));
      return ExistsAtOffset(s, f.lo(), f.hi(), options);
    }
    case TlFormula::Kind::kAlwaysWithin: {
      if (f.lo() > f.hi()) {
        return Status::InvalidArgument("AlwaysWithin: lo > hi");
      }
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation not_a,
                            SatNegated(db, f.left(), options));
      ITDB_ASSIGN_OR_RETURN(GeneralizedRelation violated,
                            ExistsAtOffset(not_a, f.lo(), f.hi(), options));
      return Complement(violated, options);
    }
    case TlFormula::Kind::kUntil:
      return SatUntil(db, f, /*past=*/false, options);
    case TlFormula::Kind::kSince:
      return SatUntil(db, f, /*past=*/true, options);
  }
  return Status::InvalidArgument("unreachable formula kind");
}

}  // namespace

Result<GeneralizedRelation> SatisfactionSet(const Database& db, const TlPtr& f,
                                            const AlgebraOptions& options) {
  return Sat(db, *f, options);
}

Result<bool> HoldsAt(const Database& db, const TlPtr& f, std::int64_t t,
                     const AlgebraOptions& options) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation s, SatisfactionSet(db, f, options));
  return s.Contains({{t}, {}});
}

Result<bool> HoldsEverywhere(const Database& db, const TlPtr& f,
                             const AlgebraOptions& options) {
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation s, SatisfactionSet(db, f, options));
  ITDB_ASSIGN_OR_RETURN(GeneralizedRelation gaps, Complement(s, options));
  ITDB_ASSIGN_OR_RETURN(bool empty, IsEmpty(gaps, options));
  return empty;
}

}  // namespace tl
}  // namespace itdb
