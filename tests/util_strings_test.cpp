#include "util/strings.h"

#include <gtest/gtest.h>

namespace eid::util {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitEmptyStringYieldsOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(to_lower("WwW.ExAmPle.COM"), "www.example.com");
  EXPECT_EQ(to_lower("already lower 123"), "already lower 123");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("www.example.com", "www."));
  EXPECT_FALSE(starts_with("example.com", "www."));
}

}  // namespace
}  // namespace eid::util
