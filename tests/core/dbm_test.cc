#include "core/dbm.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace itdb {

// Readable gtest failure messages for atomic lists.
void PrintTo(const AtomicConstraint& a, std::ostream* os) {
  *os << a.ToString();
}

namespace {

TEST(AtomicConstraintTest, Negation) {
  // not(X0 - X1 <= 3)  ==  X1 - X0 <= -4.
  AtomicConstraint a{0, 1, 3};
  AtomicConstraint n = a.Negated();
  EXPECT_EQ(n.lhs, 1);
  EXPECT_EQ(n.rhs, 0);
  EXPECT_EQ(n.bound, -4);
  // Double negation is the strict complement boundary again.
  AtomicConstraint nn = n.Negated();
  EXPECT_EQ(nn.lhs, 0);
  EXPECT_EQ(nn.rhs, 1);
  EXPECT_EQ(nn.bound, 3);
}

TEST(AtomicConstraintTest, ToString) {
  EXPECT_EQ((AtomicConstraint{0, 1, 3}.ToString()), "X0 - X1 <= 3");
  EXPECT_EQ((AtomicConstraint{0, kZeroVar, 3}.ToString()), "X0 <= 3");
  EXPECT_EQ((AtomicConstraint{kZeroVar, 1, -3}.ToString()), "X1 >= 3");
}

TEST(DbmTest, UnconstrainedIsFeasible) {
  Dbm d(3);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_TRUE(d.feasible());
  EXPECT_TRUE(d.IsSatisfiedBy({100, -100, 0}));
}

TEST(DbmTest, SimpleChainIsFeasible) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, -1);  // X0 <= X1 - 1
  d.AddUpperBound(1, 10);
  d.AddLowerBound(0, 5);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_TRUE(d.feasible());
  EXPECT_TRUE(d.IsSatisfiedBy({5, 10}));
  EXPECT_FALSE(d.IsSatisfiedBy({10, 10}));
  EXPECT_FALSE(d.IsSatisfiedBy({4, 10}));
}

TEST(DbmTest, NegativeCycleIsInfeasible) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, -1);  // X0 < X1
  d.AddDifferenceUpperBound(1, 0, -1);  // X1 < X0
  ASSERT_TRUE(d.Close().ok());
  EXPECT_FALSE(d.feasible());
}

TEST(DbmTest, BoundsInfeasible) {
  Dbm d(1);
  d.AddUpperBound(0, 3);
  d.AddLowerBound(0, 4);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_FALSE(d.feasible());
}

TEST(DbmTest, EqualityPropagatesThroughClosure) {
  Dbm d(3);
  d.AddDifferenceEquality(0, 1, 2);  // X0 = X1 + 2
  d.AddDifferenceEquality(1, 2, 3);  // X1 = X2 + 3
  ASSERT_TRUE(d.Close().ok());
  EXPECT_TRUE(d.feasible());
  // Derived: X0 = X2 + 5.
  EXPECT_EQ(d.bound_node(1, 3), 5);
  EXPECT_EQ(d.bound_node(3, 1), -5);
}

TEST(DbmTest, ClosureTightensTransitively) {
  Dbm d(3);
  d.AddDifferenceUpperBound(0, 1, 2);
  d.AddDifferenceUpperBound(1, 2, 3);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_EQ(d.bound_node(1, 3), 5);  // X0 - X2 <= 5 derived.
}

TEST(DbmTest, EliminateVariableKeepsProjection) {
  // X0 <= X1 - 1, X1 <= X2 - 1  =>  after eliminating X1: X0 <= X2 - 2.
  Dbm d(3);
  d.AddDifferenceUpperBound(0, 1, -1);
  d.AddDifferenceUpperBound(1, 2, -1);
  ASSERT_TRUE(d.Close().ok());
  Dbm p = d.EliminateVariable(1);
  EXPECT_EQ(p.num_vars(), 2);
  EXPECT_TRUE(p.feasible());
  // In the reduced system the old X2 is now variable 1.
  EXPECT_EQ(p.bound_node(1, 2), -2);
}

TEST(DbmTest, EliminationDropsUnrelatedConstraintsCorrectly) {
  Dbm d(2);
  d.AddUpperBound(0, 7);
  d.AddEquality(1, 3);
  ASSERT_TRUE(d.Close().ok());
  Dbm p = d.EliminateVariable(1);
  EXPECT_EQ(p.num_vars(), 1);
  EXPECT_EQ(p.bound_node(1, 0), 7);
  EXPECT_EQ(p.bound_node(0, 1), Dbm::kInf);
}

TEST(DbmTest, AppendVariables) {
  Dbm d(1);
  d.AddEquality(0, 5);
  Dbm e = d.AppendVariables(2);
  EXPECT_EQ(e.num_vars(), 3);
  ASSERT_TRUE(e.Close().ok());
  EXPECT_TRUE(e.feasible());
  EXPECT_TRUE(e.IsSatisfiedBy({5, 123, -9}));
  EXPECT_FALSE(e.IsSatisfiedBy({4, 0, 0}));
}

TEST(DbmTest, MapVariables) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, -2);  // X0 <= X1 - 2
  // Map old 0 -> new 2, old 1 -> new 0, in a 3-var system.
  Dbm e = d.MapVariables({2, 0}, 3);
  ASSERT_TRUE(e.Close().ok());
  EXPECT_TRUE(e.IsSatisfiedBy({10, 999, 8}));   // X2 <= X0 - 2
  EXPECT_FALSE(e.IsSatisfiedBy({10, 999, 9}));
}

TEST(DbmTest, Conjoin) {
  Dbm a(1);
  a.AddUpperBound(0, 10);
  Dbm b(1);
  b.AddLowerBound(0, 5);
  Dbm c = Dbm::Conjoin(a, b);
  ASSERT_TRUE(c.Close().ok());
  EXPECT_TRUE(c.IsSatisfiedBy({7}));
  EXPECT_FALSE(c.IsSatisfiedBy({11}));
  EXPECT_FALSE(c.IsSatisfiedBy({4}));
}

TEST(DbmTest, ImpliesBasics) {
  Dbm narrow(1);
  narrow.AddUpperBound(0, 5);
  narrow.AddLowerBound(0, 0);
  ASSERT_TRUE(narrow.Close().ok());
  Dbm wide(1);
  wide.AddUpperBound(0, 10);
  EXPECT_TRUE(narrow.Implies(wide));
  Dbm other(1);
  other.AddLowerBound(0, 3);
  EXPECT_FALSE(narrow.Implies(other));
}

TEST(DbmTest, MinimalAtomicsDropRedundant) {
  Dbm d(3);
  d.AddDifferenceUpperBound(0, 1, 1);
  d.AddDifferenceUpperBound(1, 2, 1);
  d.AddDifferenceUpperBound(0, 2, 5);  // Implied by the two above (<= 2).
  ASSERT_TRUE(d.Close().ok());
  std::vector<AtomicConstraint> min = d.MinimalAtomics();
  // Reconstructed system must be equivalent to the closure.
  Dbm rebuilt(3);
  for (const AtomicConstraint& a : min) rebuilt.AddAtomic(a);
  ASSERT_TRUE(rebuilt.Close().ok());
  EXPECT_TRUE(rebuilt == d);
  // And it must not contain the slack X0 - X2 bound as a separate atom
  // beyond the implied value.
  EXPECT_LE(min.size(), 2u);
}

TEST(DbmTest, MinimalAtomicsHandleEqualities) {
  Dbm pair(2);
  pair.AddDifferenceEquality(0, 1, 0);  // X0 == X1
  pair.AddEquality(0, 4);               // X0 == 4  =>  X1 == 4 too.
  // X0 == X1 == X2 == 5: every node pair is tied both ways, the case where
  // a greedy that drops an atomic can change which later ones are kept.
  Dbm chain(3);
  chain.AddDifferenceEquality(0, 1, 0);
  chain.AddDifferenceEquality(1, 2, 0);
  chain.AddEquality(2, 5);
  for (Dbm d : {pair, chain}) {
    ASSERT_TRUE(d.Close().ok());
    std::vector<AtomicConstraint> min = d.MinimalAtomics();
    EXPECT_EQ(min, d.MinimalAtomicsReference());
    Dbm rebuilt(d.num_vars());
    for (const AtomicConstraint& a : min) rebuilt.AddAtomic(a);
    ASSERT_TRUE(rebuilt.Close().ok());
    EXPECT_TRUE(rebuilt == d);
    // No kept atomic follows from the others.
    for (std::size_t i = 0; i < min.size(); ++i) {
      Dbm others(d.num_vars());
      for (std::size_t j = 0; j < min.size(); ++j) {
        if (j != i) others.AddAtomic(min[j]);
      }
      ASSERT_TRUE(others.Close().ok());
      EXPECT_GT(others.bound_node(min[i].lhs + 1, min[i].rhs + 1),
                min[i].bound)
          << min[i].ToString();
    }
  }
}

TEST(DbmTest, PaperReductionExample) {
  // Appendix A footnote: X1 <= X2 + 4 && X1 <= X2 - 5  ==  X1 <= X2 - 5.
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, 4);
  d.AddDifferenceUpperBound(0, 1, -5);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_EQ(d.bound_node(1, 2), -5);
  std::vector<AtomicConstraint> min = d.MinimalAtomics();
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(min[0], (AtomicConstraint{0, 1, -5}));
}

TEST(DbmTest, OverflowDetected) {
  Dbm d(2);
  constexpr std::int64_t kHuge = std::int64_t{1} << 61;
  d.AddDifferenceUpperBound(0, 1, kHuge - 1);
  d.AddDifferenceUpperBound(1, 0, kHuge - 1);
  d.AddUpperBound(0, kHuge - 1);
  Status s = d.Close();
  // Either closure succeeds within range or reports overflow; bounds at the
  // limit must not wrap silently.
  if (!s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kOverflow);
  }
}

TEST(DbmTest, ZeroVariableSystem) {
  Dbm d(0);
  ASSERT_TRUE(d.Close().ok());
  EXPECT_TRUE(d.feasible());
  EXPECT_TRUE(d.IsSatisfiedBy({}));
}

// ---------------------------------------------------------------------------
// MinimalAtomics: the tight-path fast path must return the reference's list,
// element for element and in the same order.

// A random closed feasible system over `m` variables, or nullopt when the
// drawn constraints are infeasible.  Half the draws take bounds uniformly
// from [-3, 3]; the other half add slack 0 or 1 to the differences of a
// random point in [-1, 1]^m, so many atomics are tight and many paths tie.
// Atomics against the zero node and equalities are drawn too.
std::optional<Dbm> RandomClosedDbm(std::mt19937& rng, int m) {
  Dbm d(m);
  if (m == 0) return d;
  std::uniform_int_distribution<int> var(-1, m - 1);
  std::uniform_int_distribution<int> count(0, m * (m + 1));
  std::uniform_int_distribution<std::int64_t> uniform(-3, 3);
  std::uniform_int_distribution<std::int64_t> coord(-1, 1);
  std::uniform_int_distribution<std::int64_t> slack(0, 1);
  std::uniform_int_distribution<int> coin(0, 3);
  const bool from_point = coin(rng) < 2;
  std::vector<std::int64_t> x(static_cast<std::size_t>(m) + 1, 0);
  for (int i = 1; i <= m; ++i) x[static_cast<std::size_t>(i)] = coord(rng);
  const int atoms = count(rng);
  for (int a = 0; a < atoms; ++a) {
    const int lhs = var(rng);
    const int rhs = var(rng);
    if (lhs == rhs) continue;
    const std::int64_t bound =
        from_point ? x[static_cast<std::size_t>(lhs + 1)] -
                         x[static_cast<std::size_t>(rhs + 1)] + slack(rng)
                   : uniform(rng);
    d.AddAtomic({lhs, rhs, bound});
    // One draw in four is an equality: the reverse edge at -bound.
    if (coin(rng) == 0) {
      if (from_point) {
        d.AddAtomic({rhs, lhs,
                     x[static_cast<std::size_t>(rhs + 1)] -
                         x[static_cast<std::size_t>(lhs + 1)]});
      } else {
        d.AddAtomic({rhs, lhs, -bound});
      }
    }
  }
  if (!d.Close().ok() || !d.feasible()) return std::nullopt;
  return d;
}

TEST(MinimalAtomicsTest, FastPathMatchesReferenceOnRandomClosedSystems) {
  std::mt19937 rng(20261019);
  std::uniform_int_distribution<int> arity(0, 6);
  constexpr int kSystems = 100000;
  int checked = 0;
  int heap_sized = 0;
  std::vector<int> per_arity(7, 0);
  const obs::Counter& closures =
      *obs::MetricsRegistry::Global().GetCounter("dbm.close_full");
  std::int64_t fast_closures = 0;
  while (checked < kSystems) {
    const int m = arity(rng);
    std::optional<Dbm> d = RandomClosedDbm(rng, m);
    if (!d.has_value()) continue;
    const std::int64_t before = closures.value();
    const std::vector<AtomicConstraint> fast = d->MinimalAtomics();
    fast_closures += closures.value() - before;
    const std::vector<AtomicConstraint> reference =
        d->MinimalAtomicsReference();
    ASSERT_EQ(fast, reference)
        << "system " << checked << " over " << m << " variables, atomics "
        << ::testing::PrintToString(d->ToAtomics());
    ++checked;
    ++per_arity[static_cast<std::size_t>(m)];
    if (static_cast<std::size_t>(m) + 1 > Dbm::kMaxInlineNodes) ++heap_sized;
  }
  // Every arity, the heap-backed ones included, got a real share.
  for (int m = 0; m <= 6; ++m) {
    EXPECT_GT(per_arity[static_cast<std::size_t>(m)], kSystems / 20) << m;
  }
  EXPECT_GT(heap_sized, kSystems / 10);
  EXPECT_EQ(fast_closures, 0);  // The fast path runs no closure.
}

TEST(MinimalAtomicsTest, BoundsNearTheLimitMatchTheReference) {
  // X1 - X0 <= H, X0 <= H, X1 <= H and X2 == X1, with H above
  // kBoundLimit / 4.  Every bound is within kBoundLimit, so the system
  // closes.  Once X1 <= H is dropped (X1 == X2 <= H entails it), the only
  // path left for X2 <= H is X2 -> X1 -> X0 -> 0 of weight 2H: the
  // reference's trial closure overflows and keeps the atomic, and the fast
  // path keeps it because that path is not tight.
  const std::int64_t h = Dbm::kBoundLimit / 2 + 1;
  Dbm d(3);
  d.AddDifferenceUpperBound(1, 0, h);
  d.AddUpperBound(0, h);
  d.AddUpperBound(1, h);
  d.AddDifferenceEquality(2, 1, 0);
  ASSERT_TRUE(d.Close().ok());
  ASSERT_TRUE(d.feasible());
  const std::vector<AtomicConstraint> min = d.MinimalAtomics();
  EXPECT_EQ(min, d.MinimalAtomicsReference());
  EXPECT_NE(std::find(min.begin(), min.end(), AtomicConstraint{2, kZeroVar, h}),
            min.end());
  Dbm rebuilt(3);
  for (const AtomicConstraint& a : min) rebuilt.AddAtomic(a);
  ASSERT_TRUE(rebuilt.Close().ok());
  EXPECT_EQ(rebuilt, d);
}

// ---------------------------------------------------------------------------
// TightenAndClose: the O(n^2) incremental closure must agree with
// AddAtomic + Close on every outcome, and must leave the matrix untouched
// when it punts (kFallbackNeeded).

TEST(TightenAndCloseTest, AgreesWithFullClosureOnRandomSystems) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<std::int64_t> bound_pick(-20, 20);
  std::uniform_int_distribution<int> var_pick(0, 2);
  for (int trial = 0; trial < 200; ++trial) {
    Dbm d(3);
    for (int c = 0; c < 3; ++c) {
      int i = var_pick(rng);
      int j = var_pick(rng);
      if (i != j) d.AddDifferenceUpperBound(i, j, bound_pick(rng));
      d.AddUpperBound(var_pick(rng), bound_pick(rng));
    }
    if (!d.Close().ok() || !d.feasible()) continue;
    AtomicConstraint extra{var_pick(rng), var_pick(rng), bound_pick(rng)};
    Dbm incremental = d;
    Dbm::TightenResult tr = incremental.TightenAndClose(extra);
    Dbm naive = d;
    naive.AddAtomic(extra);
    Status s = naive.Close();
    ASSERT_TRUE(s.ok()) << "trial " << trial;  // Bounds are tiny.
    switch (tr) {
      case Dbm::TightenResult::kClosed:
        EXPECT_TRUE(naive.feasible()) << "trial " << trial;
        EXPECT_EQ(incremental, naive) << "trial " << trial;
        break;
      case Dbm::TightenResult::kInfeasible:
        EXPECT_FALSE(naive.feasible()) << "trial " << trial;
        EXPECT_FALSE(incremental.feasible()) << "trial " << trial;
        break;
      case Dbm::TightenResult::kFallbackNeeded:
        // Only degenerate i == i contradictions can punt at these magnitudes.
        EXPECT_EQ(extra.lhs, extra.rhs) << "trial " << trial;
        break;
    }
  }
}

TEST(TightenAndCloseTest, VacuousAndContradictorySelfEdges) {
  Dbm d(2);
  d.AddUpperBound(0, 5);
  ASSERT_TRUE(d.Close().ok());
  Dbm copy = d;
  // x0 - x0 <= 3 is vacuous: no change, still closed.
  EXPECT_EQ(copy.TightenAndClose({0, 0, 3}), Dbm::TightenResult::kClosed);
  EXPECT_EQ(copy, d);
  // x0 - x0 <= -1 is the AddAtomic contradiction encoding: punt untouched.
  EXPECT_EQ(copy.TightenAndClose({0, 0, -1}),
            Dbm::TightenResult::kFallbackNeeded);
  EXPECT_EQ(copy, d);
}

TEST(TightenAndCloseTest, FallbackOnOverflowAdjacentBoundsLeavesMatrixAlone) {
  // An improving path through bounds near the overflow guard: the
  // incremental step must refuse (the naive closure's overflow check is
  // global) and must not leave a half-updated matrix behind.
  const std::int64_t kHuge = (std::int64_t{1} << 61) - 1;
  Dbm d(2);
  d.AddUpperBound(0, kHuge);
  ASSERT_TRUE(d.Close().ok());
  ASSERT_TRUE(d.feasible());
  Dbm copy = d;
  // x1 - x0 <= kHuge makes the closure derive x1 <= 2 * kHuge > kBoundLimit.
  EXPECT_EQ(copy.TightenAndClose({1, 0, kHuge}),
            Dbm::TightenResult::kFallbackNeeded);
  EXPECT_EQ(copy, d);
  Dbm naive = d;
  naive.AddAtomic({1, 0, kHuge});
  EXPECT_FALSE(naive.Close().ok());  // The full path overflows too.
}

TEST(TightenAndCloseTest, DetectsInfeasibilityIncrementally) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, -5);  // x0 - x1 <= -5.
  ASSERT_TRUE(d.Close().ok());
  EXPECT_EQ(d.TightenAndClose({1, 0, 4}),  // x1 - x0 <= 4: cycle -1.
            Dbm::TightenResult::kInfeasible);
  EXPECT_FALSE(d.feasible());
}

TEST(AppendVariablesClosedTest, StaysClosedAndMatchesAppendPlusClose) {
  Dbm d(2);
  d.AddDifferenceUpperBound(0, 1, 3);
  d.AddLowerBound(0, -7);
  ASSERT_TRUE(d.Close().ok());
  Dbm fast = d.AppendVariablesClosed(2);
  Dbm naive = d.AppendVariables(2);
  ASSERT_TRUE(naive.Close().ok());
  EXPECT_TRUE(naive.feasible());
  EXPECT_EQ(fast, naive);
}

// Property sweep: closure preserves the solution set on a grid.
class DbmClosurePropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(DbmClosurePropertyTest, ClosurePreservesSolutions) {
  auto [a, b, c] = GetParam();
  Dbm raw(2);
  raw.AddDifferenceUpperBound(0, 1, a);
  raw.AddUpperBound(0, b);
  raw.AddLowerBound(1, c);
  Dbm closed = raw;
  ASSERT_TRUE(closed.Close().ok());
  for (std::int64_t x = -6; x <= 6; ++x) {
    for (std::int64_t y = -6; y <= 6; ++y) {
      EXPECT_EQ(raw.IsSatisfiedBy({x, y}), closed.IsSatisfiedBy({x, y}))
          << "x=" << x << " y=" << y << " a=" << a << " b=" << b << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DbmClosurePropertyTest,
                         ::testing::Combine(::testing::Values(-3, 0, 2, 5),
                                            ::testing::Values(-4, 0, 3),
                                            ::testing::Values(-5, 0, 2)));

}  // namespace
}  // namespace itdb
