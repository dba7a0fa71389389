// The yes/no plan (PlanGoal::kNonEmptiness): `ask` evaluates its body
// without the witness quantifiers.  Every case pins the answer to the
// emptiness of the full evaluation, under each front-end configuration.

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "query/eval.h"
#include "query/parser.h"
#include "query/prepare.h"

namespace itdb {
namespace query {
namespace {

Database SmallDb() {
  Result<Database> db = Database::FromText(R"(
    relation P(T: time) { [3+10n] : T >= 3; }     # {3, 13, 23, ...}
    relation Q(T: time) { [10n]; }                # multiples of 10
    relation R(A: time, B: time) { [2n, 3n] : A <= B + 10; [1+2n, 1+5n]; }
    relation Less(A: time, B: time) { [n, n] : A <= B - 1; }
    relation Who(T: time, W: string) { [2n | "alice"]; [1+2n | "bob"]; }
    relation Gone(T: time) { }
  )");
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

std::vector<QueryOptions> Configurations() {
  std::vector<QueryOptions> out(5);
  out[1].analyze = false;
  out[2].optimize = false;
  out[3].cost_plan = false;
  out[4].analyze = false;
  out[4].optimize = false;
  out[4].cost_plan = false;
  return out;
}

/// The ask plan's tree ("" when it failed or the root is statically
/// empty), after checking under every configuration that `ask` answers
/// the emptiness of the full evaluation, or fails with its status code.
std::string CheckAsk(const Database& db, const std::string& text,
                     std::optional<bool> expect = std::nullopt) {
  Result<QueryPtr> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  if (!q.ok()) return "";
  std::string tree;
  for (const QueryOptions& options : Configurations()) {
    const std::string config =
        text + " [analyze=" + std::to_string(options.analyze) +
        " optimize=" + std::to_string(options.optimize) +
        " cost_plan=" + std::to_string(options.cost_plan) + "]";
    const PreparedQuery prepared = Prepare(db, q.value(), options);
    Result<bool> ask = EvalBooleanPrepared(db, prepared, options);
    Result<GeneralizedRelation> full = EvalPrepared(db, prepared, options);
    if (!full.ok()) {
      EXPECT_FALSE(ask.ok()) << config;
      if (!ask.ok()) {
        EXPECT_EQ(ask.status().code(), full.status().code()) << config;
      }
      continue;
    }
    Result<bool> empty = IsEmpty(full.value(), options.algebra);
    EXPECT_TRUE(empty.ok()) << config;
    EXPECT_TRUE(ask.ok()) << config << ": " << ask.status();
    if (!empty.ok() || !ask.ok()) continue;
    EXPECT_EQ(ask.value(), !empty.value()) << config;
    if (expect.has_value()) {
      EXPECT_EQ(ask.value(), *expect) << config;
    }
    if (options.analyze && options.optimize && options.cost_plan) {
      Result<ExecutionPlan> plan =
          PlanPrepared(db, prepared, options, PlanGoal::kNonEmptiness);
      EXPECT_TRUE(plan.ok()) << config;
      if (plan.ok() && plan->tree != nullptr) tree = plan->tree->ToString();
    }
  }
  return tree;
}

TEST(AskPlanTest, ExistentialJoinLosesItsQuantifiers) {
  Database db = SmallDb();
  std::string tree =
      CheckAsk(db, "EXISTS t . EXISTS u . P(t) AND R(t, u) AND u >= 5", true);
  EXPECT_EQ(tree.find("EXISTS"), std::string::npos) << tree;
  tree = CheckAsk(db, "EXISTS t . EXISTS u . P(t) AND Q(u) AND t = u", false);
  EXPECT_EQ(tree.find("EXISTS"), std::string::npos) << tree;
}

TEST(AskPlanTest, VariableBoundTwiceKeepsItsQuantifiers) {
  Database db = SmallDb();
  const std::string text = "(EXISTS t . P(t)) AND (EXISTS t . Q(t))";
  CheckAsk(db, text);
  // Without analysis the planned tree reaches sort inference, which
  // rejects the second binder: both binders are still there.  Dropping
  // them would have merged the two t's into P(t) AND Q(t).
  QueryOptions options;
  options.analyze = false;
  Result<QueryPtr> q = ParseQuery(text);
  ASSERT_TRUE(q.ok());
  Result<ExecutionPlan> plan = PlanPrepared(
      db, Prepare(db, q.value(), options), options, PlanGoal::kNonEmptiness);
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("quantified more than once"),
            std::string::npos)
      << plan.status();
}

TEST(AskPlanTest, ExistsUnderOrAndNotStays) {
  Database db = SmallDb();
  std::string tree =
      CheckAsk(db, "(EXISTS t . P(t) AND t < 0) OR (EXISTS u . Q(u))", true);
  EXPECT_NE(tree.find("EXISTS t"), std::string::npos) << tree;
  EXPECT_NE(tree.find("EXISTS u"), std::string::npos) << tree;
  tree = CheckAsk(
      db, "EXISTS u . Q(u) AND NOT (EXISTS t . P(t) AND t <= u)", true);
  EXPECT_NE(tree.find("EXISTS t"), std::string::npos) << tree;
  EXPECT_EQ(tree.find("EXISTS u"), std::string::npos) << tree;
  tree = CheckAsk(db, "NOT (EXISTS t . P(t))", false);
  EXPECT_NE(tree.find("EXISTS t"), std::string::npos) << tree;
}

TEST(AskPlanTest, ForallRootStays) {
  Database db = SmallDb();
  std::string tree = CheckAsk(db, "FORALL t . EXISTS u . Less(t, u)", true);
  EXPECT_NE(tree.find("FORALL t"), std::string::npos) << tree;
  EXPECT_NE(tree.find("EXISTS u"), std::string::npos) << tree;
  CheckAsk(db, "FORALL t . P(t)", false);
}

TEST(AskPlanTest, DataSortedQuantifier) {
  Database db = SmallDb();
  std::string tree =
      CheckAsk(db, "EXISTS w . EXISTS t . Who(t, w) AND w = \"bob\"", true);
  EXPECT_EQ(tree.find("EXISTS"), std::string::npos) << tree;
  // "carol" joins the active domain but no tuple of Who.
  CheckAsk(db, "EXISTS w . EXISTS t . Who(t, w) AND w = \"carol\"", false);
  CheckAsk(db, "EXISTS w . NOT (EXISTS t . Who(t, w))", false);
  CheckAsk(db, "EXISTS w . w = \"carol\" AND NOT (EXISTS t . Who(t, w))",
           true);
}

TEST(AskPlanTest, StaticallyEmptyRoot) {
  Database db = SmallDb();
  // Bit-empty: the analysis answers without a plan.
  EXPECT_EQ(CheckAsk(db, "EXISTS t . P(t) AND Gone(t)", false), "");
  EXPECT_EQ(CheckAsk(db, "EXISTS t . P(t) AND 3 < 2", false), "");
  // A dead OR branch under the dropped quantifier.
  std::string tree =
      CheckAsk(db, "EXISTS t . (P(t) AND t > 20) OR (Q(t) AND 3 < 2)", true);
  EXPECT_EQ(tree, "(P(t) AND t > 20)") << tree;
}

TEST(AskPlanTest, TracedAskRecordsNoProject) {
  Database db = SmallDb();
  Result<QueryPtr> q =
      ParseQuery("EXISTS t . EXISTS u . P(t) AND R(t, u) AND u >= 5");
  ASSERT_TRUE(q.ok());
  auto project_spans = [&](bool ask) {
    obs::Tracer tracer;
    QueryOptions options;
    options.trace = true;
    options.tracer = &tracer;
    const PreparedQuery prepared = Prepare(db, q.value(), options);
    if (ask) {
      Result<bool> truth = EvalBooleanPrepared(db, prepared, options);
      EXPECT_TRUE(truth.ok() && truth.value());
    } else {
      EXPECT_TRUE(EvalPrepared(db, prepared, options).ok());
    }
    // Atoms project too (to order their columns); count the projections
    // that eliminate a quantifier, the Project spans under an EXISTS node.
    const std::vector<obs::SpanRecord> records = tracer.records();
    std::set<std::uint64_t> exists_nodes;
    for (const obs::SpanRecord& r : records) {
      if (r.name.rfind("EXISTS ", 0) == 0) exists_nodes.insert(r.id);
    }
    int n = 0;
    for (const obs::SpanRecord& r : records) {
      n += r.name == "Project" && exists_nodes.contains(r.parent);
    }
    return n;
  };
  EXPECT_GT(project_spans(/*ask=*/false), 0);  // The query projects...
  EXPECT_EQ(project_spans(/*ask=*/true), 0);   // ...the ask does not.
}

}  // namespace
}  // namespace query
}  // namespace itdb
