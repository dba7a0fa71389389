// Database::ActiveDomain: the catalog's data values, built lazily per
// version.  Checked against a brute-force scan after every mutation, across
// copies, moves and assignments, for a second catalog built at the same
// address and version, and under concurrent readers (run under TSan in CI).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/database.h"

namespace itdb {
namespace {

/// The catalog's data values by a full scan, sorted and distinct.
DataDomain BruteForceDomain(const Database& db) {
  DataDomain out;
  for (const std::string& name : db.Names()) {
    for (const GeneralizedTuple& t : db.Get(name)->tuples()) {
      for (const Value& v : t.data()) {
        (v.IsString() ? out.strings : out.ints).push_back(v);
      }
    }
  }
  for (std::vector<Value>* values : {&out.strings, &out.ints}) {
    std::sort(values->begin(), values->end());
    values->erase(std::unique(values->begin(), values->end()), values->end());
  }
  return out;
}

void ExpectDomain(const Database& db, const DataDomain& want) {
  const DataDomain& got = db.ActiveDomain();
  EXPECT_EQ(got.strings, want.strings);
  EXPECT_EQ(got.ints, want.ints);
}

/// One relation of `rows` tuples over (T: time, Who: string, N: int) whose
/// values come from `rng`.
GeneralizedRelation RandomRelation(std::mt19937_64& rng, int rows) {
  GeneralizedRelation r(Schema({"T"}, {"Who", "N"},
                               {DataType::kString, DataType::kInt}));
  for (int i = 0; i < rows; ++i) {
    std::int64_t who = static_cast<std::int64_t>(rng() % 12);
    std::int64_t n = static_cast<std::int64_t>(rng() % 40) - 20;
    Status s = r.AddTuple(GeneralizedTuple(
        {Lrp::Make(static_cast<std::int64_t>(rng() % 5), 5)},
        {Value("w" + std::to_string(who)), Value(n)}));
    EXPECT_TRUE(s.ok()) << s;
  }
  return r;
}

TEST(ActiveDomainTest, MatchesAFullScanAfterEveryMutation) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    Database db;
    ExpectDomain(db, {});
    for (int step = 0; step < 40; ++step) {
      const std::string name = "R" + std::to_string(rng() % 4);
      const int rows = static_cast<int>(rng() % 6);
      switch (rng() % 3) {
        case 0:
          (void)db.Add(name, RandomRelation(rng, rows));
          break;
        case 1:
          db.Put(name, RandomRelation(rng, rows));
          break;
        default:
          (void)db.Remove(name);
          break;
      }
      ExpectDomain(db, BruteForceDomain(db));
      if (HasFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(ActiveDomainTest, CopiesAndAssignmentsNeverServeTheOldDomain) {
  std::mt19937_64 rng(3);
  Database db;
  db.Put("R", RandomRelation(rng, 5));
  const DataDomain before = db.ActiveDomain();
  db.Put("S", RandomRelation(rng, 5));
  const DataDomain after = BruteForceDomain(db);
  ASSERT_NE(before.ints, after.ints);

  Database copy(db);
  ExpectDomain(copy, after);
  Database assigned;
  assigned.Put("X", RandomRelation(rng, 3));
  (void)assigned.ActiveDomain();
  assigned = db;
  ExpectDomain(assigned, after);

  // A copy taken after a mutation, then mutated to the same version as the
  // original: each answers from its own relations.
  Database forked(db);
  ASSERT_TRUE(forked.Remove("S").ok());
  db.Put("S", RandomRelation(rng, 0));
  ASSERT_EQ(forked.version(), db.version());
  ExpectDomain(forked, BruteForceDomain(forked));
  ExpectDomain(db, BruteForceDomain(db));

  // A move hands the relations over; the emptied source rebuilds its own.
  Database moved(std::move(copy));
  ExpectDomain(moved, after);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  ExpectDomain(copy, BruteForceDomain(copy));
}

TEST(ActiveDomainTest, AFreshCatalogAtTheSameAddressAndVersionGetsItsOwn) {
  std::optional<Database> slot;
  const Database* address = nullptr;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    slot.emplace();
    if (address != nullptr) {
      ASSERT_EQ(&*slot, address);
    }
    address = &*slot;
    std::mt19937_64 rng(seed);
    slot->Put("R", RandomRelation(rng, 6));
    ASSERT_EQ(slot->version(), 1u);
    ExpectDomain(*slot, BruteForceDomain(*slot));
  }
  // The same through assignment of a freshly built catalog.
  Database db;
  for (std::uint64_t seed = 11; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    Database fresh;
    fresh.Put("R", RandomRelation(rng, 6));
    db = std::move(fresh);
    ASSERT_EQ(db.version(), 1u);
    ExpectDomain(db, BruteForceDomain(db));
  }
}

TEST(ActiveDomainTest, ConcurrentReadersAtOneVersionAgree) {
  std::mt19937_64 rng(9);
  Database db;
  for (int i = 0; i < 6; ++i) {
    db.Put("R" + std::to_string(i), RandomRelation(rng, 20));
  }
  const DataDomain want = BruteForceDomain(db);
  for (int round = 0; round < 3; ++round) {
    // Each round reads a version no thread has built yet.
    db.Put("Round", RandomRelation(rng, 0));
    std::vector<const DataDomain*> seen(4, nullptr);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < seen.size(); ++t) {
      readers.emplace_back([&db, &seen, t] { seen[t] = &db.ActiveDomain(); });
    }
    for (std::thread& r : readers) r.join();
    for (const DataDomain* d : seen) {
      ASSERT_EQ(d, seen[0]);
      EXPECT_EQ(d->strings, want.strings);
      EXPECT_EQ(d->ints, want.ints);
    }
  }
}

}  // namespace
}  // namespace itdb
