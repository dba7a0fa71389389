#include "server/session.h"

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/prepare.h"
#include "server/shared_database.h"
#include "storage/database.h"

namespace itdb {
namespace server {
namespace {

constexpr const char* kCatalog = R"(
relation P(T: time) {
  [3+10n] : T >= 3;
}
relation Q(T: time) {
  [4n];
}
)";

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Database> db = Database::FromText(kCatalog);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    shared_.emplace(&db_);
  }

  std::string Run(Session& session, const std::string& statement,
                  Status* status = nullptr) {
    std::ostringstream out;
    Status s = session.Execute(statement, out);
    if (status != nullptr) *status = s;
    return out.str();
  }

  Database db_;
  std::optional<SharedDatabase> shared_;
};

TEST_F(SessionTest, FeedAssemblesExecutesAndQuits) {
  Session session(&*shared_);
  std::ostringstream out;
  using Disposition = Session::FeedResult::Disposition;
  EXPECT_EQ(session.Feed("define relation R(T: time) {", out).disposition,
            Disposition::kNeedMore);
  EXPECT_TRUE(session.has_pending());
  EXPECT_EQ(session.Feed("  [2n];", out).disposition, Disposition::kNeedMore);
  Session::FeedResult done = session.Feed("}", out);
  EXPECT_EQ(done.disposition, Disposition::kDone);
  EXPECT_TRUE(done.status.ok()) << done.status;
  EXPECT_TRUE(db_.Has("R"));
  EXPECT_EQ(session.Feed("quit", out).disposition, Disposition::kQuit);
}

TEST_F(SessionTest, AbortPendingLeavesCatalogUntouched) {
  Session session(&*shared_);
  std::ostringstream out;
  session.Feed("define relation Half(T: time) {", out);
  session.Feed("  [5n];", out);
  EXPECT_TRUE(session.has_pending());
  EXPECT_TRUE(session.AbortPending());
  EXPECT_FALSE(session.has_pending());
  EXPECT_FALSE(db_.Has("Half"));
  EXPECT_FALSE(session.AbortPending());
  // The session still works after the abort.
  Status status;
  Run(session, "list", &status);
  EXPECT_TRUE(status.ok());
}

TEST_F(SessionTest, CommentsApplyToFirstLineOnly) {
  Session session(&*shared_);
  // '#' on a statement-initial line is a comment ...
  EXPECT_EQ(session.AppendLine("list # trailing"),
            std::optional<std::string>("list "));
  // ... but inside a define block it reaches the parser untouched.
  EXPECT_EQ(session.AppendLine("define relation C(T: time) {"), std::nullopt);
  EXPECT_EQ(session.AppendLine("  [2n]; # kept"), std::nullopt);
  std::optional<std::string> statement = session.AppendLine("}");
  ASSERT_TRUE(statement.has_value());
  EXPECT_NE(statement->find("# kept"), std::string::npos);
}

TEST_F(SessionTest, LongDefineAssemblesAtTheSameLineAsAWholeBufferScan) {
  Session session(&*shared_);
  // Continuation lines open and close braces of their own; the statement
  // must end exactly where a brace count over the whole buffer first drops
  // to zero, and come back verbatim.
  std::vector<std::string> lines = {"define relation Long(T: time) {"};
  for (int i = 0; i < 300; ++i) {
    switch (i % 5) {
      case 0:
        lines.push_back("  {");
        break;
      case 1:
        lines.push_back("  [" + std::to_string(i) + "n]; }{");
        break;
      case 2:
        lines.push_back("  }");
        break;
      default:
        lines.push_back("  [" + std::to_string(i) + "+1000n];");
    }
  }
  lines.push_back("}");
  std::string expected;
  int balance = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) expected += "\n";
    expected += lines[i];
    for (char c : lines[i]) balance += c == '{' ? 1 : c == '}' ? -1 : 0;
    std::optional<std::string> statement = session.AppendLine(lines[i]);
    if (balance > 0) {
      ASSERT_EQ(statement, std::nullopt) << "line " << i;
    } else {
      ASSERT_EQ(i + 1, lines.size()) << "closed early at line " << i;
      ASSERT_EQ(statement, std::optional<std::string>(expected));
    }
  }
  EXPECT_FALSE(session.has_pending());
}

TEST_F(SessionTest, AbortedDefineLeavesNoOpenBraces) {
  Session session(&*shared_);
  std::ostringstream out;
  session.Feed("define relation Half(T: time) {", out);
  session.Feed("  {", out);
  ASSERT_TRUE(session.AbortPending());
  using Disposition = Session::FeedResult::Disposition;
  EXPECT_EQ(session.Feed("define relation Whole(T: time) {", out).disposition,
            Disposition::kNeedMore);
  EXPECT_EQ(session.Feed("  [2n];", out).disposition, Disposition::kNeedMore);
  Session::FeedResult done = session.Feed("}", out);
  EXPECT_EQ(done.disposition, Disposition::kDone);
  EXPECT_TRUE(done.status.ok()) << done.status;
  EXPECT_TRUE(db_.Has("Whole"));
  EXPECT_FALSE(db_.Has("Half"));
}

TEST_F(SessionTest, FetchPaginatesTheLastQueryResult) {
  Session session(&*shared_);
  Status status;
  Run(session, "query Q(t) OR P(t)", &status);
  ASSERT_TRUE(status.ok()) << status;
  std::string page = Run(session, "fetch 1", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(page.find("relation fetch"), std::string::npos) << page;
  EXPECT_NE(page.find("1 tuple(s), 1 remaining"), std::string::npos) << page;
  page = Run(session, "fetch", &status);
  ASSERT_TRUE(status.ok());
  EXPECT_NE(page.find("0 remaining"), std::string::npos) << page;
  // Drained: further fetches return empty pages, not errors.
  page = Run(session, "fetch 5", &status);
  EXPECT_TRUE(status.ok());
  EXPECT_NE(page.find("0 tuple(s), 0 remaining"), std::string::npos) << page;
}

TEST_F(SessionTest, WriteAfterQueryLeavesTheCursorOnTheOldResult) {
  // The cursor holds the query's own result: a later write to a relation
  // the query read changes what a new query sees, not what `fetch` pages.
  Status status;
  Session before(&*shared_);
  Run(before, "query Q(t) OR P(t)", &status);
  ASSERT_TRUE(status.ok()) << status;
  const std::string first = Run(before, "fetch 1");
  const std::string rest = Run(before, "fetch 5");

  Session session(&*shared_);
  Run(session, "query Q(t) OR P(t)", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(Run(session, "fetch 1"), first);
  Run(session, "drop Q", &status);
  ASSERT_TRUE(status.ok()) << status;
  Run(session, "define relation Q(T: time) { [7n]; }", &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(Run(session, "fetch 5"), rest);
  // A new query reads the new Q.
  EXPECT_EQ(Run(session, "query Q(t)").find("[0+4n]"), std::string::npos);
}

TEST_F(SessionTest, FetchWithoutQueryFails) {
  Session session(&*shared_);
  Status status;
  Run(session, "fetch", &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, SetListsAndUpdatesOptions) {
  Session session(&*shared_);
  Status status;
  std::string listing = Run(session, "set", &status);
  ASSERT_TRUE(status.ok());
  EXPECT_NE(listing.find("analyze      on"), std::string::npos) << listing;
  EXPECT_NE(listing.find("deadline_ms  0"), std::string::npos) << listing;
  Run(session, "set analyze off", &status);
  ASSERT_TRUE(status.ok());
  Run(session, "set deadline_ms 250", &status);
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(session.options().query.analyze);
  EXPECT_EQ(session.options().deadline_ms, 250);
  Run(session, "set bogus 1", &status);
  EXPECT_FALSE(status.ok());
  Run(session, "set threads lots", &status);
  EXPECT_FALSE(status.ok());
}

TEST_F(SessionTest, ReadOnlySessionRejectsMutation) {
  SessionOptions options;
  options.read_only = true;
  Session session(&*shared_, options);
  Status status;
  for (const char* statement :
       {"define relation X(T: time) { [2n]; }", "drop P", "coalesce P",
        "simplify P", "load /nonexistent", "save /nonexistent"}) {
    std::string out = Run(session, statement, &status);
    EXPECT_FALSE(status.ok()) << statement;
    EXPECT_NE(out.find("read-only session"), std::string::npos) << statement;
  }
  EXPECT_TRUE(db_.Has("P"));
  // Reads still work.
  Run(session, "ask EXISTS t . P(t)", &status);
  EXPECT_TRUE(status.ok());
}

TEST_F(SessionTest, DeadlineAbortsExpensiveQueries) {
  SessionOptions options;
  options.deadline_ms = 1;
  Session session(&*shared_, options);
  // Two complements joined on nothing: ~half a million candidate pairs --
  // far past a 1 ms budget, aborted by the cooperative checks.
  Status status;
  Run(session,
      "define relation Wide(T: time) { [720n]; }", &status);
  ASSERT_TRUE(status.ok());
  Run(session,
      "define relation Tall(T: time) { [1+720n]; }", &status);
  ASSERT_TRUE(status.ok());
  Run(session, "set analyze off", &status);
  ASSERT_TRUE(status.ok());
  Run(session, "query NOT Wide(t) AND NOT Tall(u)", &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  // The failed query seats no cursor.
  Run(session, "fetch", &status);
  EXPECT_FALSE(status.ok());
  // Clearing the deadline restores normal service for cheap queries.
  Run(session, "set deadline_ms 0", &status);
  ASSERT_TRUE(status.ok());
  std::string answer = Run(session, "ask EXISTS t . P(t)", &status);
  EXPECT_TRUE(status.ok());
  EXPECT_NE(answer.find("true"), std::string::npos);
}

TEST_F(SessionTest, StatsCountCommandsQueriesAndErrors) {
  Session session(&*shared_);
  Status status;
  Run(session, "list", &status);
  Run(session, "ask EXISTS t . P(t)", &status);
  Run(session, "show nope", &status);
  EXPECT_EQ(session.stats().commands, 3);
  EXPECT_EQ(session.stats().queries, 1);
  EXPECT_EQ(session.stats().errors, 1);
}

TEST_F(SessionTest, ExecuteMatchesShellOutputShapes) {
  // The session IS the shell's engine; spot-check the classic outputs.
  Session session(&*shared_);
  Status status;
  EXPECT_NE(Run(session, "help", &status).find("commands:"),
            std::string::npos);
  EXPECT_NE(Run(session, "ask P(3)", &status).find("true"),
            std::string::npos);
  EXPECT_NE(Run(session, "query P(t) AND t <= 23", &status)
                .find("relation result"),
            std::string::npos);
  std::string unknown = Run(session, "frobnicate", &status);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(unknown.find("unknown command \"frobnicate\" (try: help)"),
            std::string::npos);
}

TEST_F(SessionTest, WriteBetweenPrepareAndExecuteIsSeen) {
  Session reader(&*shared_);
  Session writer(&*shared_);
  Status status;
  Run(writer, "define relation R(T: time) {\n}", &status);
  ASSERT_TRUE(status.ok()) << status;
  // Prepared while R has no tuples: the root is proven bit-empty.
  std::optional<query::PreparedQuery> prepared = reader.Prepare("query R(t)");
  ASSERT_TRUE(prepared.has_value());
  ASSERT_TRUE(prepared->analysis.has_value());
  EXPECT_TRUE(prepared->analysis->root_proven_bit_empty);
  // A second session gives R tuples before the statement executes.
  Run(writer, "drop R", &status);
  ASSERT_TRUE(status.ok()) << status;
  Run(writer, "define relation R(T: time) {\n  [5n];\n}", &status);
  ASSERT_TRUE(status.ok()) << status;
  std::ostringstream out;
  status = reader.Execute("query R(t)", out, &*prepared);
  ASSERT_TRUE(status.ok()) << status;
  // The stale proof is not used: the result holds the new tuple.
  EXPECT_NE(out.str().find("5n"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("1 generalized tuple(s)"), std::string::npos)
      << out.str();
}

TEST_F(SessionTest, PrepareCoversEvaluatingVerbsOnly) {
  Session session(&*shared_);
  EXPECT_TRUE(session.Prepare("ask EXISTS t . P(t)").has_value());
  EXPECT_TRUE(session.Prepare("profile P(t)").has_value());
  EXPECT_FALSE(session.Prepare("explain P(t)").has_value());
  EXPECT_FALSE(session.Prepare("list").has_value());
  // Parse errors are left to Execute, which reports them.
  EXPECT_FALSE(session.Prepare("query P(").has_value());
}

TEST_F(SessionTest, IsQuitStatement) {
  EXPECT_TRUE(Session::IsQuitStatement("quit"));
  EXPECT_TRUE(Session::IsQuitStatement("  exit  "));
  EXPECT_FALSE(Session::IsQuitStatement("quitter"));
  EXPECT_FALSE(Session::IsQuitStatement(""));
}

}  // namespace
}  // namespace server
}  // namespace itdb
