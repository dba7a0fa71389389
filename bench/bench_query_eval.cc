// Theorem 4.1: with the query fixed, evaluating yes/no queries is PTIME in
// the database size (data complexity).  The bench holds three queries of
// increasing logical depth fixed and sweeps the number of tuples.  A pair
// of benches pins what `ask` gains from reading only the emptiness of its
// body (query/prepare.h, PlanGoal::kNonEmptiness), and another that a
// point lookup's cost does not grow with the catalog it is not reading.

#include <cstdlib>
#include <optional>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/algebra.h"
#include "core/stats.h"
#include "perfbench.h"
#include "query/eval.h"
#include "query/parser.h"
#include "storage/database.h"

namespace {

using itdb::Database;
using itdb::GeneralizedRelation;
using itdb::Schema;

// N activity tuples with period 32, interval length 2, spread offsets.
Database MakeDb(int n) {
  GeneralizedRelation r(Schema({"S", "E"}, {"Who"}, {itdb::DataType::kString}));
  for (int i = 0; i < n; ++i) {
    std::int64_t offset = (i * 7) % 30;
    itdb::GeneralizedTuple t(
        {itdb::Lrp::Make(offset, 32), itdb::Lrp::Make(offset + 2, 32)},
        {itdb::Value("w" + std::to_string(i % 4))});
    t.mutable_constraints().AddDifferenceEquality(0, 1, -2);
    benchmark::DoNotOptimize(r.AddTuple(std::move(t)));
  }
  Database db;
  db.Put("Busy", std::move(r));
  return db;
}

void RunQuery(benchmark::State& state, const std::string& text) {
  const int n = static_cast<int>(state.range(0));
  Database db = MakeDb(n);
  itdb::query::QueryOptions options;
  options.algebra.max_tuples = std::int64_t{1} << 26;
  options.algebra.max_complement_universe = std::int64_t{1} << 26;
  for (auto _ : state) {
    auto r = itdb::query::EvalBooleanQueryString(db, text, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(n);
}

// Existential conjunctive query (join + projection).
void BM_Query_ExistentialJoin(benchmark::State& state) {
  RunQuery(state,
           "EXISTS t . EXISTS s1 . EXISTS e1 . EXISTS s2 . EXISTS e2 . "
           "EXISTS w1 . EXISTS w2 . "
           "Busy(s1, e1, w1) AND Busy(s2, e2, w2) AND "
           "s1 <= t AND t <= e1 AND s2 <= t AND t <= e2 AND NOT w1 = w2");
}
BENCHMARK(BM_Query_ExistentialJoin)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

// One negation (complement over a one-column relation).
void BM_Query_SingleNegation(benchmark::State& state) {
  RunQuery(state,
           "EXISTS t . 0 <= t AND t <= 1000000 AND "
           "NOT (EXISTS s . EXISTS e . EXISTS w . "
           "Busy(s, e, w) AND s <= t AND t <= e)");
}
BENCHMARK(BM_Query_SingleNegation)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

// Universal quantification (two complements).
void BM_Query_Universal(benchmark::State& state) {
  RunQuery(state,
           "FORALL t . EXISTS s . EXISTS e . EXISTS w . "
           "Busy(s, e, w) AND s <= t AND t <= e");
}
BENCHMARK(BM_Query_Universal)->RangeMultiplier(2)->Range(4, 128)->Complexity();

// Jobs of period 7 and readiness marks of period 9 (coprime): projecting
// a quantifier out of their join normalizes every tuple to lcm 63, while
// the join itself stays small.
Database MakeMixedPeriodDb() {
  std::string text = "relation Task(From: time, To: time, Job: int) {\n";
  for (int i = 0; i < 6; ++i) {
    text += "  [" + std::to_string(i % 7) + "+7n, " +
            std::to_string(i % 7 + 3) + "+7n | " + std::to_string(i % 4) +
            "] : From <= To - 3;\n";
  }
  text += "}\nrelation Ready(T: time, Job: int) {\n";
  for (int i = 0; i < 4; ++i) {
    text += "  [" + std::to_string(i % 9) + "+9n | " + std::to_string(i % 4) +
            "];\n";
  }
  text += "}\n";
  itdb::Result<Database> db = Database::FromText(text);
  if (!db.ok()) std::abort();
  return std::move(db).value();
}

constexpr const char* kExistentialJoin =
    "EXISTS f . EXISTS g . EXISTS j . EXISTS t . "
    "Task(f, g, j) AND Ready(t, j) AND t <= f AND f >= 1000";

// `ask` of the existential join: the body is evaluated without its
// quantifiers and IsEmpty stops at its first nonempty tuple.
void BM_Ask_ExistentialJoin(benchmark::State& state) {
  Database db = MakeMixedPeriodDb();
  itdb::Result<itdb::query::QueryPtr> q =
      itdb::query::ParseQuery(kExistentialJoin);
  for (auto _ : state) {
    auto r = itdb::query::EvalBooleanQuery(db, q.value());
    if (!r.ok() || !r.value()) {
      state.SkipWithError("ask did not answer true");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Ask_ExistentialJoin);

// The same sentence through `query` and IsEmpty: every quantifier is
// projected out before the emptiness test reads the result.
void BM_Query_ExistentialJoin_IsEmpty(benchmark::State& state) {
  Database db = MakeMixedPeriodDb();
  itdb::Result<itdb::query::QueryPtr> q =
      itdb::query::ParseQuery(kExistentialJoin);
  for (auto _ : state) {
    auto rel = itdb::query::EvalQuery(db, q.value());
    auto empty = rel.ok() ? itdb::IsEmpty(rel.value(), {})
                          : itdb::Result<bool>(rel.status());
    if (!empty.ok() || empty.value()) {
      state.SkipWithError("query + IsEmpty did not find a tuple");
      break;
    }
    benchmark::DoNotOptimize(empty);
  }
}
BENCHMARK(BM_Query_ExistentialJoin_IsEmpty);

// The point_lookups catalog of perfbench (six relations, 190 tuples) plus
// `copies` renamed copies of every relation.
Database MakeLookupCatalog(int copies) {
  std::optional<perfbench::Workload> w =
      perfbench::MakeWorkload("point_lookups", 1, 4);
  if (!w.has_value()) std::abort();
  itdb::Result<Database> db = Database::FromText(w->catalog);
  if (!db.ok()) std::abort();
  for (const std::string& name : db->Names()) {
    for (int i = 1; i <= copies; ++i) {
      GeneralizedRelation copy = *db->Get(name);
      if (!db->Add(name + "_" + std::to_string(i), std::move(copy)).ok()) {
        std::abort();
      }
    }
  }
  return std::move(db).value();
}

// One point_lookups read -- a one-atom selection -- through EvalQuery, with
// the shared statistics cache a server session passes.
void RunLookup(benchmark::State& state, int copies) {
  Database db = MakeLookupCatalog(copies);
  itdb::Result<itdb::query::QueryPtr> q = itdb::query::ParseQuery(
      "Shift(t, 2, s) AND t >= 840 AND t <= 1340");
  if (!q.ok()) std::abort();
  itdb::StatsCache stats;
  itdb::query::QueryOptions options;
  options.stats_cache = &stats;
  for (auto _ : state) {
    auto r = itdb::query::EvalQuery(db, q.value(), options);
    if (!r.ok() || r.value().size() == 0) {
      state.SkipWithError("the lookup found no tuple");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["relations"] = static_cast<double>(db.size());
}

void BM_Prepare_Lookup_Catalog1x(benchmark::State& state) {
  RunLookup(state, 0);
}
BENCHMARK(BM_Prepare_Lookup_Catalog1x);

// The same lookup against ten times the relations (same data values, so
// the active domain keeps its size): gated at <= 2x the 1x time.
void BM_Prepare_Lookup_Catalog10x(benchmark::State& state) {
  RunLookup(state, 9);
}
BENCHMARK(BM_Prepare_Lookup_Catalog10x);

}  // namespace

ITDB_BENCHMARK_MAIN();
