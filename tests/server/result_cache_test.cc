#include "server/result_cache.h"

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/session.h"
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

CachedResult TextResult(const std::string& text) {
  return CachedResult{text, nullptr};
}

TEST(ResultCacheTest, HitReturnsTheInsertedResult) {
  ResultCache cache(1 << 20);
  EXPECT_FALSE(cache.Lookup("k", 1).has_value());
  cache.Insert("k", 1, TextResult("hello\n"));
  std::optional<CachedResult> hit = cache.Lookup("k", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->text, "hello\n");
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, VersionBumpInvalidatesWholesale) {
  ResultCache cache(1 << 20);
  cache.Insert("a", 1, TextResult("a"));
  cache.Insert("b", 1, TextResult("b"));
  EXPECT_EQ(cache.stats().entries, 2u);
  // A lookup at a newer version clears everything first.
  EXPECT_FALSE(cache.Lookup("a", 2).has_value());
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  // Stale inserts (computed against the old catalog) are dropped.
  cache.Insert("a", 1, TextResult("a"));
  EXPECT_FALSE(cache.Lookup("a", 2).has_value());
  EXPECT_FALSE(cache.Lookup("a", 1).has_value());
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Each entry charges ~128 overhead + key + text; a 600-byte budget holds
  // about three 60-byte entries.
  ResultCache cache(600);
  const std::string payload(60, 'x');
  cache.Insert("a", 1, TextResult(payload));
  cache.Insert("b", 1, TextResult(payload));
  cache.Insert("c", 1, TextResult(payload));
  // Refresh "a" so "b" is the least recently used.
  EXPECT_TRUE(cache.Lookup("a", 1).has_value());
  cache.Insert("d", 1, TextResult(payload));
  ResultCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 600u);
  EXPECT_TRUE(cache.Lookup("a", 1).has_value());
  EXPECT_FALSE(cache.Lookup("b", 1).has_value());
}

TEST(ResultCacheTest, OversizedEntriesAreNotCached) {
  ResultCache cache(64);
  cache.Insert("k", 1, TextResult(std::string(1024, 'x')));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup("k", 1).has_value());
}

class CachedSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Database> db = Database::FromText(kCatalog);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    shared_.emplace(&db_);
  }

  SessionOptions Options() {
    SessionOptions options;
    options.result_cache = &cache_;
    return options;
  }

  std::string Run(Session& session, const std::string& statement) {
    std::ostringstream out;
    Status s = session.Execute(statement, out);
    EXPECT_TRUE(s.ok()) << s << " for " << statement;
    return out.str();
  }

  Database db_;
  std::optional<SharedDatabase> shared_;
  ResultCache cache_{std::size_t{1} << 20};
};

TEST_F(CachedSessionTest, WarmHitIsByteIdenticalAndSeatsTheCursor) {
  Session cold(&*shared_, Options());
  const std::string cold_text = Run(cold, "query P(t) AND t <= 33");
  EXPECT_EQ(cold.stats().cache_hits, 0);

  Session warm(&*shared_, Options());
  const std::string warm_text = Run(warm, "query P(t) AND t <= 33");
  EXPECT_EQ(warm_text, cold_text);
  EXPECT_EQ(warm.stats().cache_hits, 1);
  // The cached relation re-seats the fetch cursor.
  const std::string page = Run(warm, "fetch 100");
  EXPECT_NE(page.find("remaining"), std::string::npos) << page;
}

TEST_F(CachedSessionTest, FetchAfterAHitPagesTheSameTuples) {
  Session cold(&*shared_, Options());
  Run(cold, "query Q(t) OR P(t)");
  const std::string cold_first = Run(cold, "fetch 1");
  const std::string cold_rest = Run(cold, "fetch 100");

  Session warm(&*shared_, Options());
  Run(warm, "query Q(t) OR P(t)");
  ASSERT_EQ(warm.stats().cache_hits, 1);
  EXPECT_EQ(Run(warm, "fetch 1"), cold_first);
  EXPECT_EQ(Run(warm, "fetch 100"), cold_rest);
  // Paging one session's cursor does not move another's over the same
  // cached relation.
  Session again(&*shared_, Options());
  Run(again, "query Q(t) OR P(t)");
  EXPECT_EQ(Run(again, "fetch 1"), cold_first);
}

TEST_F(CachedSessionTest, CatalogWriteInvalidates) {
  Session session(&*shared_, Options());
  Run(session, "ask EXISTS t . Q(t) AND t = 8");
  Run(session, "define relation R(T: time) { [2n]; }");
  // Same query, new catalog version: recomputed, not served stale.
  Run(session, "ask EXISTS t . Q(t) AND t = 8");
  EXPECT_EQ(session.stats().cache_hits, 0);
  Run(session, "ask EXISTS t . Q(t) AND t = 8");
  EXPECT_EQ(session.stats().cache_hits, 1);
}

TEST_F(CachedSessionTest, AskResultsAreCachedToo) {
  Session session(&*shared_, Options());
  const std::string first = Run(session, "ask EXISTS t . P(t)");
  const std::string second = Run(session, "ask EXISTS t . P(t)");
  EXPECT_EQ(first, second);
  EXPECT_EQ(session.stats().cache_hits, 1);
}

TEST_F(CachedSessionTest, EightConcurrentClientsStayCoherent) {
  // TSan-checked in CI: concurrent sessions share one cache while a writer
  // bumps the catalog version.
  constexpr int kClients = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c]() {
      Session session(&*shared_, Options());
      for (int r = 0; r < kRounds; ++r) {
        std::ostringstream out;
        Status s = session.Execute("query P(t) AND t <= 33", out);
        EXPECT_TRUE(s.ok()) << s;
        if (c == 0 && r % 10 == 5) {
          std::ostringstream define;
          Status ds = session.Execute(
              "define relation W" + std::to_string(r) +
                  "(T: time) { [5n]; }",
              define);
          EXPECT_TRUE(ds.ok()) << ds;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ResultCache::Stats stats = cache_.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  // One more read must agree with a fresh evaluation.
  Session check(&*shared_, Options());
  std::string cached = Run(check, "query P(t) AND t <= 33");
  SessionOptions plain;
  Session fresh(&*shared_, plain);
  EXPECT_EQ(cached, Run(fresh, "query P(t) AND t <= 33"));
}

}  // namespace
}  // namespace server
}  // namespace itdb
