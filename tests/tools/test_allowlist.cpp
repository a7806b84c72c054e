// Allowlist/baseline grammar tests for the shared parser both checkers use
// (tfl-lint --allow, tfl-analyze --baseline). The edge cases here — blank
// lines, comments, unknown rule ids, duplicates, trailing whitespace, missing
// justifications — are exactly the ways a hand-edited allow file goes wrong.
#include "lint_common.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

namespace tfl_tools {
namespace {

const std::set<std::string>& rules() {
  static const std::set<std::string> kRules = {"raw-thread", "parallel-capture"};
  return kRules;
}

TEST(AllowParse, BlankAndCommentLinesAreSkipped) {
  const AllowParse parsed = parse_allow_text(
      "\n"
      "# full-line comment\n"
      "   \t  \n"
      "raw-thread src/common/parallel.cpp\n"
      "\n",
      rules(), /*require_justification=*/false);
  EXPECT_TRUE(parsed.errors.empty());
  EXPECT_TRUE(parsed.warnings.empty());
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].rule, "raw-thread");
  EXPECT_EQ(parsed.entries[0].path_suffix, "src/common/parallel.cpp");
  EXPECT_EQ(parsed.entries[0].line, 4u);
}

TEST(AllowParse, TrailingWhitespaceAndCommentsStripped) {
  const AllowParse parsed = parse_allow_text(
      "raw-thread src/a.cpp   \t\n"
      "parallel-capture src/b.cpp  # the reason   \n",
      rules(), false);
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].path_suffix, "src/a.cpp");
  EXPECT_EQ(parsed.entries[1].path_suffix, "src/b.cpp");
  EXPECT_EQ(parsed.entries[1].justification, "the reason");
}

TEST(AllowParse, UnknownRuleIdWarns) {
  const AllowParse parsed =
      parse_allow_text("no-such-rule src/a.cpp\n", rules(), false);
  ASSERT_EQ(parsed.warnings.size(), 1u);
  EXPECT_NE(parsed.warnings[0].find("no-such-rule"), std::string::npos);
  // The entry is kept: a stale id suppresses nothing but must not crash scans.
  EXPECT_EQ(parsed.entries.size(), 1u);
}

TEST(AllowParse, UnknownRuleNotCheckedWithoutCatalog) {
  const AllowParse parsed = parse_allow_text("no-such-rule src/a.cpp\n", {}, false);
  EXPECT_TRUE(parsed.warnings.empty());
}

TEST(AllowParse, DuplicateEntriesWarnAndDeduplicate) {
  const AllowParse parsed = parse_allow_text(
      "raw-thread src/a.cpp\n"
      "raw-thread src/a.cpp  # same thing again\n",
      rules(), false);
  ASSERT_EQ(parsed.entries.size(), 1u);
  ASSERT_EQ(parsed.warnings.size(), 1u);
  EXPECT_NE(parsed.warnings[0].find("duplicate"), std::string::npos);
}

TEST(AllowParse, MissingPathSuffixWarnsAndDropsTheLine) {
  const AllowParse parsed = parse_allow_text("raw-thread\n", rules(), false);
  EXPECT_EQ(parsed.entries.size(), 0u);
  ASSERT_EQ(parsed.warnings.size(), 1u);
  EXPECT_NE(parsed.warnings[0].find("rule-id"), std::string::npos);
}

TEST(AllowParse, BaselinePolicyRequiresJustification) {
  const AllowParse parsed = parse_allow_text(
      "raw-thread src/a.cpp\n"
      "parallel-capture src/b.cpp  # reviewed: disjoint slots\n",
      rules(), /*require_justification=*/true);
  ASSERT_EQ(parsed.errors.size(), 1u);
  EXPECT_NE(parsed.errors[0].find("justification"), std::string::npos);
  // The offending line is dropped; the justified one survives.
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].rule, "parallel-capture");
  EXPECT_EQ(parsed.entries[0].justification, "reviewed: disjoint slots");
}

TEST(AllowParse, JustificationMustBeNonEmptyText) {
  // A bare `#` with nothing behind it is not a justification.
  const AllowParse parsed =
      parse_allow_text("raw-thread src/a.cpp  #   \n", rules(), true);
  EXPECT_EQ(parsed.errors.size(), 1u);
}

TEST(Allowed, MatchesRuleAndPathSuffix) {
  AllowEntry entry;
  entry.rule = "raw-thread";
  entry.path_suffix = "common/parallel.cpp";
  Finding hit{"src/common/parallel.cpp", 10, "raw-thread", "m"};
  Finding wrong_rule{"src/common/parallel.cpp", 10, "parallel-capture", "m"};
  Finding wrong_path{"src/common/parallel.h", 10, "raw-thread", "m"};
  EXPECT_TRUE(allowed(hit, {entry}));
  EXPECT_FALSE(allowed(wrong_rule, {entry}));
  EXPECT_FALSE(allowed(wrong_path, {entry}));
}

TEST(LoadAllowFile, MissingFileFailsWithError) {
  AllowParse parsed;
  std::string error;
  EXPECT_FALSE(load_allow_file("/nonexistent/allow.txt", rules(), false, parsed, error));
  EXPECT_FALSE(error.empty());
}

TEST(LoadAllowFile, RoundTripsThroughDisk) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("tfl_test_allow_" + std::to_string(::getpid()) + ".txt");
  {
    std::ofstream out(path);
    out << "raw-thread src/a.cpp  # pinned\n";
  }
  AllowParse parsed;
  std::string error;
  ASSERT_TRUE(load_allow_file(path.string(), rules(), true, parsed, error));
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].justification, "pinned");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tfl_tools
