#include "storage/database.h"

#include <gtest/gtest.h>

namespace itdb {
namespace {

constexpr const char* kTwoRelations = R"(
relation Trains(Leave: time, Arrive: time) {
  [2+60n, 80+60n] : Leave = Arrive - 78;
  [46+60n, 110+60n] : Leave = Arrive - 64;
}

relation Maintenance(T: time) {
  [30n] : T >= 0;
}
)";

TEST(DatabaseTest, AddGetRemove) {
  Database db;
  GeneralizedRelation r(Schema::Temporal(1));
  EXPECT_TRUE(db.Add("a", r).ok());
  EXPECT_FALSE(db.Add("a", r).ok());  // Duplicate.
  EXPECT_TRUE(db.Has("a"));
  EXPECT_TRUE(db.Get("a").ok());
  EXPECT_FALSE(db.Get("b").ok());
  EXPECT_EQ(db.Get("b").status().code(), StatusCode::kNotFound);
  db.Put("a", r);  // Replace is fine.
  EXPECT_EQ(db.size(), 1);
  EXPECT_TRUE(db.Remove("a").ok());
  EXPECT_FALSE(db.Remove("a").ok());
}

TEST(DatabaseTest, FromTextParsesMultipleRelations) {
  Result<Database> db = Database::FromText(kTwoRelations);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db.value().size(), 2);
  EXPECT_EQ(db.value().Names(),
            (std::vector<std::string>{"Maintenance", "Trains"}));
  Result<const GeneralizedRelation&> trains = db.value().Get("Trains");
  ASSERT_TRUE(trains.ok());
  EXPECT_EQ(trains.value().size(), 2);
  // 7:02 -> 8:20 expressed in minutes-past-some-hour arithmetic: the tuple
  // (2, 80) is a member.
  EXPECT_TRUE(trains.value().Contains({{2, 80}, {}}));
  EXPECT_TRUE(trains.value().Contains({{62, 140}, {}}));
  EXPECT_FALSE(trains.value().Contains({{2, 140}, {}}));
}

TEST(DatabaseTest, RoundTrip) {
  Result<Database> db = Database::FromText(kTwoRelations);
  ASSERT_TRUE(db.ok());
  std::string text = db.value().ToText();
  Result<Database> again = Database::FromText(text);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << text;
  EXPECT_EQ(again.value().Names(), db.value().Names());
  for (const std::string& name : db.value().Names()) {
    EXPECT_EQ(again.value().Get(name).value().Enumerate(-100, 100),
              db.value().Get(name).value().Enumerate(-100, 100))
        << name;
  }
}

TEST(DatabaseTest, FromTextRejectsDuplicates) {
  EXPECT_FALSE(Database::FromText("relation A(T: time) {}\n"
                                  "relation A(T: time) {}")
                   .ok());
}

}  // namespace
}  // namespace itdb
