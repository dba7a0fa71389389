#include "core/dbm_batch.h"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/dbm.h"
#include "util/arena.h"

namespace itdb {
namespace {

// A random constraint system over `num_vars` variables.  `wild` mixes in
// huge bounds so some systems brush the kBoundLimit overflow guard.
Dbm RandomDbm(std::mt19937_64& rng, int num_vars, bool wild) {
  Dbm d(num_vars);
  std::uniform_int_distribution<int> count_dist(0, 2 * num_vars + 2);
  std::uniform_int_distribution<int> var_dist(-1, num_vars - 1);
  std::uniform_int_distribution<std::int64_t> bound_dist(-50, 50);
  std::uniform_int_distribution<std::int64_t> wild_dist(
      Dbm::kBoundLimit - 100, Dbm::kBoundLimit + 100);
  int count = count_dist(rng);
  for (int c = 0; c < count; ++c) {
    int lhs = var_dist(rng);
    int rhs = var_dist(rng);
    if (lhs == rhs) continue;
    std::int64_t bound = bound_dist(rng);
    if (wild && rng() % 4 == 0) bound = wild_dist(rng);
    if (wild && rng() % 8 == 0) bound = -bound;
    d.AddAtomic({lhs, rhs, bound});
  }
  return d;
}

// CloseAll over a slab of random systems must reproduce the scalar Close()
// per system: same feasibility, same overflow report, same closed matrix.
TEST(DbmBatchTest, CloseAllMatchesScalarClose) {
  std::mt19937_64 rng(20260807);
  Arena arena;
  for (int num_vars = 0; num_vars <= 5; ++num_vars) {
    for (bool wild : {false, true}) {
      constexpr std::int64_t kCount = 64;
      std::vector<Dbm> originals;
      originals.reserve(kCount);
      for (std::int64_t t = 0; t < kCount; ++t) {
        originals.push_back(RandomDbm(rng, num_vars, wild));
      }
      ArenaScope scope(arena);
      DbmSlab slab(&arena, num_vars, kCount);
      for (std::int64_t t = 0; t < kCount; ++t) {
        slab.Load(t, originals[static_cast<std::size_t>(t)]);
      }
      bool* feasible = arena.AllocateArray<bool>(kCount);
      bool* overflow = arena.AllocateArray<bool>(kCount);
      slab.CloseAll(feasible, overflow);
      for (std::int64_t t = 0; t < kCount; ++t) {
        Dbm scalar = originals[static_cast<std::size_t>(t)];
        Status st = scalar.Close();
        SCOPED_TRACE("vars=" + std::to_string(num_vars) +
                     " wild=" + std::to_string(wild) +
                     " t=" + std::to_string(t));
        EXPECT_EQ(overflow[t], !st.ok());
        EXPECT_EQ(feasible[t], scalar.feasible());
        if (st.ok() && scalar.feasible()) {
          Dbm extracted = slab.Extract(t);
          EXPECT_TRUE(extracted == scalar);
          EXPECT_TRUE(extracted.closed());
          EXPECT_TRUE(extracted.feasible());
        }
      }
    }
  }
}

// InitUnconstrained produces exactly the unconstrained scalar matrices.
TEST(DbmBatchTest, InitUnconstrainedMatchesScalar) {
  Arena arena;
  ArenaScope scope(arena);
  DbmSlab slab(&arena, 3, 5);
  slab.InitUnconstrained();
  Dbm fresh(3);
  for (std::int64_t t = 0; t < 5; ++t) {
    for (int p = 0; p <= 3; ++p) {
      for (int q = 0; q <= 3; ++q) {
        EXPECT_EQ(slab.at(p, q, t), fresh.bound_node(p, q));
      }
    }
  }
}

}  // namespace
}  // namespace itdb
