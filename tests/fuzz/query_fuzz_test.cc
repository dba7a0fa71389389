#include "fuzz/query_oracle.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/generator.h"
#include "fuzz/query_gen.h"
#include "query/ast.h"
#include "query/eval.h"
#include "query/parser.h"

#ifndef ITDB_FUZZ_CORPUS_DIR
#error "ITDB_FUZZ_CORPUS_DIR must be defined by the build"
#endif

namespace itdb {
namespace fuzz {
namespace {

using query::Query;
using query::QueryCmp;
using query::QueryPtr;
using query::Term;

TEST(QueryGenTest, DeterministicForFixedSeed) {
  Database db = MakeRandomDatabase(7, {});
  QueryGenConfig cfg;
  QueryPtr a = MakeRandomQuery(42, db, cfg);
  QueryPtr b = MakeRandomQuery(42, db, cfg);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->ToString(), b->ToString());
  QueryPtr c = MakeRandomQuery(43, db, cfg);
  EXPECT_NE(a->ToString(), c->ToString());
}

TEST(QueryOracleTest, PassesOnAHandWrittenCase) {
  Database db = MakeRandomDatabase(3, {});
  // U0(t) AND t <= 4: well-formed, no analysis findings expected.
  QueryPtr q = Query::And(
      Query::Atom("U0", {Term::Variable("t")}),
      Query::Compare(Term::Variable("t"), QueryCmp::kLe, Term::Int(4)));
  QueryCaseOutcome outcome = CheckQueryCase(db, q);
  EXPECT_FALSE(outcome.skipped);
  EXPECT_FALSE(outcome.failure.has_value()) << *outcome.failure;
  EXPECT_EQ(outcome.variants_checked, 6);
  // A single atom with a comparison gets a fully bounded certificate, so
  // the soundness oracle must have verified it against the plain result.
  EXPECT_EQ(outcome.certificates_checked, 1);
}

TEST(QueryOracleTest, ChecksAProvenEmptySubplan) {
  Database db = MakeRandomDatabase(3, {});
  // The right OR branch is a DBM contradiction; the analyzer proves it
  // empty and the oracle evaluates it standalone.
  QueryPtr contradiction = Query::And(
      Query::Compare(Term::Variable("t"), QueryCmp::kGt, Term::Int(3)),
      Query::Compare(Term::Variable("t"), QueryCmp::kLt, Term::Int(3)));
  QueryPtr q = Query::Or(
      Query::Atom("U0", {Term::Variable("t")}),
      Query::And(Query::Atom("U0", {Term::Variable("t")}),
                 std::move(contradiction)));
  QueryCaseOutcome outcome = CheckQueryCase(db, q);
  EXPECT_FALSE(outcome.skipped);
  EXPECT_FALSE(outcome.failure.has_value()) << *outcome.failure;
  EXPECT_GT(outcome.empties_checked, 0);
}

// The acceptance gate: 500 random queries, zero violations of any oracle --
// analysis never changes results (at 1 and N threads), every proven-empty
// subplan really is empty, and actual cardinality / periods / hulls never
// exceed the root certificate.
TEST(QueryFuzzTest, FiveHundredCasesNoFindings) {
  QueryFuzzConfig config;
  config.seed = 20260806;
  config.cases = 500;
  ASSERT_GE(config.cases, 500);
  QueryFuzzReport report = RunQueryFuzz(config);
  EXPECT_TRUE(report.ok()) << report.Summary()
                           << (report.failures.empty()
                                   ? ""
                                   : "\nfirst: " +
                                         report.failures[0].description +
                                         "\nquery: " +
                                         report.failures[0].query);
  EXPECT_EQ(report.cases, 500);
  // The generator's contradiction/dead-branch rates make both oracles
  // fire many times over 500 cases; a silent no-op run is itself a bug.
  EXPECT_GT(report.variants_checked, 1000);
  EXPECT_GT(report.empties_checked, 20) << report.Summary();
  // Most generated queries earn at least a partial certificate, so the
  // soundness oracle must run on a large fraction of the cases.
  EXPECT_GT(report.certificates_checked, 100) << report.Summary();
  // Every case with a successful baseline also checks its yes/no answer.
  EXPECT_GT(report.asks_checked, 100) << report.Summary();
}

// Shrunk failures of `itdb_fuzz --cases 0 --seed 11 --threads 3
// --query-cases 2000` (case seeds 18128189449026936861,
// 6324516530963949483, 1504705473609475332).  Each is a quantifier over
// X OR (X AND dead): dropping the dead branch before the optimizer let its
// miniscoping push the quantifier into X's conjunction, so analysis on
// projected before the join where analysis off projected after it.
TEST(QueryOracleTest, DeadBranchUnderQuantifierKeepsTheRepresentation) {
  struct Case {
    const char* database;
    const char* query;
  };
  const Case cases[] = {
      {R"(relation R0(A: time, B: time) {
            [1+2n, 1+2n] : B >= -2 && A <= B;
            [-1, 3+4n];
          }
          relation R1(A: time, B: time) {
            [1+2n, 0+2n];
            [0+4n, 1+4n];
            [2+3n, 1+4n];
          })",
       "EXISTS t0 . (((((((R0(5, t0) AND R1(t1, t1)) AND R1(t1, t2)) AND "
       "t1 + 2 <= t2) AND t1 != 3) AND (3 < 2 AND 0 = 0)) OR ((((R0(5, t0) "
       "AND R1(t1, t1)) AND R1(t1, t2)) AND t1 + 2 <= t2) AND t1 != 3)))"},
      {R"(relation S1(B: time, C: time) {
            [0+2n, 0+3n] : C >= 1;
            [1+3n, 4+6n] : C <= B + 5;
          }
          relation U1(T: time) {
            [3+4n];
          })",
       "EXISTS t1 . (((((((S1(t0, t1 - 2) AND S1(t2, 3)) AND U1(-5)) AND "
       "t0 != 1) AND t2 != 0) AND NOT ((t2 > -1 AND t2 < -1))) OR "
       "((((((S1(t0, t1 - 2) AND S1(t2, 3)) AND U1(-5)) AND t0 != 1) AND "
       "t2 != 0) AND NOT ((t2 > -1 AND t2 < -1))) AND (3 < 2 AND 0 = 0))))"},
      {R"(relation R1(A: time, B: time) {
            [0+4n, 4+6n] : A <= B + 2;
            [2+3n, 0+2n];
          }
          relation U0(T: time) {
            [2+3n];
            [1+4n];
            [2+4n] : T >= -4;
          })",
       "EXISTS t2 . (((((R1(t0, t1) AND U0(t2)) AND t2 <= t0) AND "
       "t0 + 2 <= -3) OR ((((R1(t0, t1) AND U0(t2)) AND t2 <= t0) AND "
       "t0 + 2 <= -3) AND (3 < 2 AND 0 = 0))))"},
  };
  for (const Case& c : cases) {
    Result<Database> db = Database::FromText(c.database);
    ASSERT_TRUE(db.ok()) << db.status();
    Result<QueryPtr> q = query::ParseQuery(c.query);
    ASSERT_TRUE(q.ok()) << q.status();
    QueryCaseOutcome outcome = CheckQueryCase(db.value(), q.value());
    EXPECT_FALSE(outcome.skipped) << c.query;
    EXPECT_FALSE(outcome.failure.has_value())
        << c.query << ": " << *outcome.failure;
    EXPECT_EQ(outcome.variants_checked, 6) << c.query;
  }
}

// Certificate soundness as a property over the checked-in corpus: every
// `# check:` query annotated in tests/fuzz/corpus/*.itdb (deliberately
// delicate constructions -- NP-regime complements, statically empty
// intersections) must pass all three oracles against its own database,
// and the corpus as a whole must exercise the certificate check.
TEST(QueryOracleTest, CorpusCheckQueriesRespectTheirCertificates) {
  int certificates = 0;
  int queries = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(ITDB_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() != ".itdb") continue;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file) << entry.path();
    std::stringstream buffer;
    buffer << file.rdbuf();
    std::vector<std::string> checks;
    std::istringstream lines(buffer.str());
    for (std::string line; std::getline(lines, line);) {
      const std::string marker = "# check: ";
      if (line.rfind(marker, 0) == 0) {
        checks.push_back(line.substr(marker.size()));
      }
    }
    if (checks.empty()) continue;
    Result<Database> db = Database::FromText(buffer.str());
    ASSERT_TRUE(db.ok()) << entry.path() << ": " << db.status();
    for (const std::string& text : checks) {
      Result<QueryPtr> q = query::ParseQuery(text);
      ASSERT_TRUE(q.ok()) << entry.path() << ": " << q.status();
      QueryCaseOutcome outcome = CheckQueryCase(db.value(), q.value());
      EXPECT_FALSE(outcome.failure.has_value())
          << entry.path() << ": " << text << ": " << *outcome.failure;
      certificates += outcome.certificates_checked;
      ++queries;
    }
  }
  EXPECT_GE(queries, 3);
  EXPECT_GT(certificates, 0);
}

TEST(QueryOracleTest, ShrinkReturnsRootWhenNoSubtreeFails) {
  Database db = MakeRandomDatabase(3, {});
  QueryPtr q = Query::And(
      Query::Atom("U0", {Term::Variable("t")}),
      Query::Compare(Term::Variable("t"), QueryCmp::kLe, Term::Int(4)));
  // A passing case shrinks to itself: no subtree "still fails".
  QueryPtr shrunk = ShrinkFailingQuery(db, q);
  EXPECT_EQ(shrunk->ToString(), q->ToString());
}

}  // namespace
}  // namespace fuzz
}  // namespace itdb
