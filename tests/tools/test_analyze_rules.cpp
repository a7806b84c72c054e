// In-process tests for the tfl-analyze rule passes. The CLI self-test proves
// each rule end to end; these tests pin down the pieces the fixtures reach
// through — token-walking helpers, local-declaration collection, and the
// finding metadata (paths, lines, messages) the fixtures don't assert on.
#include "analyze/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace tfl_analyze {
namespace {

Analysis run(const std::vector<SourceFile>& files, const Options& options = {}) {
  return analyze(files, options);
}

// ---------------------------------------------------------------------------
// Token-walking helpers
// ---------------------------------------------------------------------------

TEST(Helpers, MatchForwardBalancesMixedBrackets) {
  const auto t = lex("f([&](int a) { g(a); }, b)");
  ASSERT_TRUE(is_punct(t[1], "("));
  const std::size_t close = match_forward(t, 1);
  ASSERT_LT(close, t.size());
  EXPECT_TRUE(is_punct(t[close], ")"));
  EXPECT_EQ(close, t.size() - 1);
}

TEST(Helpers, MatchForwardUnbalancedReturnsEnd) {
  const auto t = lex("f(a, g(b)");
  EXPECT_EQ(match_forward(t, 1), t.size());
}

TEST(Helpers, SplitArgsIgnoresNestedCommas) {
  const auto t = lex("f(a, g(b, c), {d, e})");
  const std::size_t close = match_forward(t, 1);
  const auto args = split_args(t, 1, close);
  ASSERT_EQ(args.size(), 3u);
  EXPECT_TRUE(is_ident(t[args[0].first], "a"));
  EXPECT_TRUE(is_ident(t[args[1].first], "g"));
}

TEST(Helpers, CollectLocalsSeesPlainAndRangeFor) {
  const auto t = lex(
      "double total = 0.0;\n"
      "for (std::size_t i = lo; i < hi; ++i) { }\n"
      "for (const auto& entry : table) { }\n");
  const Locals locals = collect_locals(t, 0, t.size());
  EXPECT_TRUE(locals.contains("total"));
  EXPECT_TRUE(locals.contains("i"));
  EXPECT_TRUE(locals.contains("entry"));
  EXPECT_FALSE(locals.contains("table"));
}

TEST(Helpers, CollectLocalsWalksDeclaratorChains) {
  // The gemm kernel's four-lane accumulators regressed this once: every name
  // in a multi-declarator statement is a local, not just the first.
  const auto t = lex("float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;");
  const Locals locals = collect_locals(t, 0, t.size());
  EXPECT_TRUE(locals.contains("acc0"));
  EXPECT_TRUE(locals.contains("acc1"));
  EXPECT_TRUE(locals.contains("acc2"));
  EXPECT_TRUE(locals.contains("acc3"));
}

// ---------------------------------------------------------------------------
// parallel-* pass: finding metadata
// ---------------------------------------------------------------------------

TEST(ParallelRule, RaceFindingPointsAtTheWrite) {
  const Analysis analysis = run({{"x/race.cpp",
                                  "void f(tradefl::ThreadPool* pool, std::vector<double>& w) {\n"
                                  "  double total = 0.0;\n"
                                  "  parallel_for(pool, 0, w.size(), 64,\n"
                                  "               [&](std::size_t lo, std::size_t hi, std::size_t) {\n"
                                  "    for (std::size_t i = lo; i < hi; ++i) total += w[i];\n"
                                  "  });\n"
                                  "}\n"}});
  ASSERT_EQ(analysis.findings.size(), 1u);
  EXPECT_EQ(analysis.findings[0].rule, "parallel-capture");
  EXPECT_EQ(analysis.findings[0].path, "x/race.cpp");
  EXPECT_EQ(analysis.findings[0].line, 5u);
  EXPECT_NE(analysis.findings[0].message.find("total"), std::string::npos);
}

TEST(ParallelRule, LambdaLocalAccumulatorIsClean) {
  const Analysis analysis =
      run({{"x/local.cpp",
            "void f(tradefl::ThreadPool* pool, std::vector<double>& w) {\n"
            "  parallel_for(pool, 0, w.size(), 64,\n"
            "               [&](std::size_t lo, std::size_t hi, std::size_t) {\n"
            "    double total = 0.0;\n"
            "    for (std::size_t i = lo; i < hi; ++i) total += w[i];\n"
            "  });\n"
            "}\n"}});
  EXPECT_TRUE(analysis.findings.empty());
}

TEST(ParallelRule, SequentialCodeNeverFires) {
  const Analysis analysis = run({{"x/serial.cpp",
                                  "void f(std::vector<double>& w, double& total) {\n"
                                  "  for (std::size_t i = 0; i < w.size(); ++i) total += w[i];\n"
                                  "  tradefl::Rng rng(7);\n"
                                  "  total += rng.uniform01();\n"
                                  "}\n"}});
  EXPECT_TRUE(analysis.findings.empty());
}

TEST(ParallelRule, FindingsAreSortedAndStable) {
  const std::vector<SourceFile> files = {
      {"b/second.cpp",
       "void f(tradefl::ThreadPool* pool, double& acc) {\n"
       "  run_chunks(pool, 4, [&](std::size_t c, std::size_t) { acc += c; });\n"
       "}\n"},
      {"a/first.cpp",
       "void g(tradefl::ThreadPool* pool, double& acc) {\n"
       "  run_chunks(pool, 4, [&](std::size_t c, std::size_t) { acc += c; });\n"
       "}\n"}};
  const Analysis analysis = run(files);
  ASSERT_EQ(analysis.findings.size(), 2u);
  EXPECT_EQ(analysis.findings[0].path, "a/first.cpp");
  EXPECT_EQ(analysis.findings[1].path, "b/second.cpp");
}

// ---------------------------------------------------------------------------
// obs pass: wildcard grammar
// ---------------------------------------------------------------------------

TEST(VocabRule, WildcardMatchesExactlyOneSegment) {
  Options options;
  options.vocab_lines = {"contract.*"};
  options.vocab_path = "vocab.txt";
  // Two-segment suffix must NOT match a one-segment wildcard.
  const Analysis analysis =
      run({{"x/obs.cpp", "void f() { TFL_SPAN(\"contract.calls.count\"); }\n"}}, options);
  // The unknown name fires AND the entry is orphaned: nothing matched it.
  ASSERT_EQ(analysis.findings.size(), 2u);
  std::vector<std::string> rules;
  for (const auto& finding : analysis.findings) rules.push_back(finding.rule);
  std::sort(rules.begin(), rules.end());
  EXPECT_EQ(rules, (std::vector<std::string>{"obs-orphan", "obs-vocab"}));
}

TEST(VocabRule, CommentsAndBlanksInVocabIgnored) {
  Options options;
  options.vocab_lines = {"# header", "", "fl.round", "  "};
  options.vocab_path = "vocab.txt";
  const Analysis analysis =
      run({{"x/obs.cpp", "void f() { TFL_COUNTER_INC(\"fl.round\"); }\n"}}, options);
  EXPECT_TRUE(analysis.findings.empty());
}

TEST(VocabRule, EmptyVocabDisablesBothRules) {
  const Analysis analysis =
      run({{"x/obs.cpp", "void f() { TFL_COUNTER_INC(\"never.registered\"); }\n"}});
  EXPECT_TRUE(analysis.findings.empty());
}

}  // namespace
}  // namespace tfl_analyze
