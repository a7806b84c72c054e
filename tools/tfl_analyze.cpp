// tfl-analyze: semantic determinism analyzer for the TradeFL tree. Where
// tfl-lint pattern-matches scrubbed lines, tfl-analyze lexes real C++ (raw
// strings, splices, preprocessor awareness) and runs flow-aware passes that
// need scopes, captures, and a cross-file view:
//
//   parallel-capture    writes to by-ref-captured non-local state inside
//                       parallel_for/run_chunks/ordered_reduce-map lambdas
//   parallel-rng        Rng draws in parallel lambdas without a per-chunk
//                       stream (Rng::derive_stream_seed or a *_rng factory)
//   unordered-hash-iter iteration over std::unordered_* feeding hashing or
//                       serialization
//   obs-vocab           TFL_* names missing from tools/obs_vocab.txt
//   obs-orphan          vocabulary entries matching no site
//
// Usage:
//   tfl-analyze [--baseline FILE] [--vocab FILE] [--format text|json|sarif]
//               [--list-rules] PATH...
//   tfl-analyze --self-test
//
// Baseline entries (`<rule-id> <path-suffix>  # justification`) suppress
// known findings; unlike tfl-lint's allowlist, the justification comment is
// mandatory. Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage.
#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "lint_common.h"

namespace {

using tfl_analyze::Analysis;
using tfl_analyze::Options;
using tfl_analyze::SourceFile;
using tfl_tools::Finding;

std::set<std::string> known_rule_ids() {
  std::set<std::string> ids;
  for (const tfl_tools::RuleInfo& rule : tfl_analyze::rule_catalog()) ids.insert(rule.id);
  return ids;
}

// ---------------------------------------------------------------------------
// Self-test fixtures. Each fixture is a miniature multi-file tree; `expected`
// is the multiset of rule ids the analysis must produce, and `exercises`
// names the rules the fixture deliberately stresses without firing (its
// negative coverage). The summary enforces >= 2 positives and >= 2 negatives
// per rule.
// ---------------------------------------------------------------------------
struct Fixture {
  std::string name;
  std::vector<SourceFile> files;
  std::vector<std::string> vocab;
  std::vector<std::string> expected;   // rule id per expected finding
  std::vector<std::string> exercises;  // rules exercised negatively
};

const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> kFixtures = {
      // ----- parallel-capture ------------------------------------------------
      {"capture-accumulate-race",
       {{"fix/capture_pos1.cpp",
         "void f(tradefl::ThreadPool* pool, std::vector<double>& weights) {\n"
         "  double total = 0.0;\n"
         "  parallel_for(pool, 0, weights.size(), 64,\n"
         "               [&](std::size_t lo, std::size_t hi, std::size_t) {\n"
         "    for (std::size_t i = lo; i < hi; ++i) total += weights[i];\n"
         "  });\n"
         "}\n"}},
       {},
       {"parallel-capture"},
       {}},
      {"capture-container-mutation",
       {{"fix/capture_pos2.cpp",
         "void g(tradefl::ThreadPool* pool, std::vector<int>& results, int rounds) {\n"
         "  run_chunks(pool, 8, [&](std::size_t chunk, std::size_t) {\n"
         "    results.push_back(static_cast<int>(chunk));\n"
         "    ++rounds;\n"
         "  });\n"
         "}\n"}},
       {},
       {"parallel-capture", "parallel-capture"},
       {}},
      {"capture-disjoint-slot-ok",
       {{"fix/capture_neg1.cpp",
         "void f(tradefl::ThreadPool* pool, std::vector<double>& out,\n"
         "       const std::vector<double>& in) {\n"
         "  parallel_for(pool, 0, out.size(), 32,\n"
         "               [&](std::size_t lo, std::size_t hi, std::size_t worker) {\n"
         "    double scale = 2.0;\n"
         "    for (std::size_t i = lo; i < hi; ++i) out[i] = in[i] * scale;\n"
         "  });\n"
         "}\n"}},
       {},
       {},
       {"parallel-capture"}},
      {"capture-ordered-reduce-fold-ok",
       {{"fix/capture_neg2.cpp",
         "double f(tradefl::ThreadPool* pool, std::size_t chunks) {\n"
         "  double folded = 0.0;\n"
         "  folded = ordered_reduce(pool, chunks, 0.0,\n"
         "      [&](std::size_t chunk, std::size_t) { return static_cast<double>(chunk); },\n"
         "      [&](double& acc, double value) { acc += value; folded = acc; });\n"
         "  return folded;\n"
         "}\n"}},
       {},
       {},
       {"parallel-capture"}},
      {"capture-named-lambda-flagged",
       {{"fix/capture_pos3.cpp",
         "void f(tradefl::ThreadPool* pool, std::vector<double>& grid, double bias) {\n"
         "  const auto scan_chunk = [&](std::size_t chunk, std::size_t) {\n"
         "    bias = grid[chunk];\n"
         "  };\n"
         "  run_chunks(pool, grid.size(), scan_chunk);\n"
         "}\n"}},
       {},
       {"parallel-capture"},
       {}},
      // ----- parallel-rng ----------------------------------------------------
      {"rng-captured-stream",
       {{"fix/rng_pos1.cpp",
         "void f(tradefl::ThreadPool* pool, std::vector<double>& noise, std::uint64_t seed) {\n"
         "  tradefl::Rng rng(seed);\n"
         "  parallel_for(pool, 0, noise.size(), 16,\n"
         "               [&](std::size_t lo, std::size_t hi, std::size_t) {\n"
         "    for (std::size_t i = lo; i < hi; ++i) noise[i] = rng.normal(0.0, 1.0);\n"
         "  });\n"
         "}\n"}},
       {},
       {"parallel-rng"},
       {}},
      {"rng-ad-hoc-local-seed",
       {{"fix/rng_pos2.cpp",
         "void g(tradefl::ThreadPool* pool, std::vector<double>& draws, std::uint64_t seed) {\n"
         "  run_chunks(pool, draws.size(), [&](std::size_t chunk, std::size_t) {\n"
         "    tradefl::Rng local(seed + chunk);\n"
         "    draws[chunk] = local.uniform01();\n"
         "  });\n"
         "}\n"}},
       {},
       {"parallel-rng"},
       {}},
      {"rng-derived-stream-ok",
       {{"fix/rng_neg1.cpp",
         "void f(tradefl::ThreadPool* pool, std::vector<double>& out, std::uint64_t seed) {\n"
         "  run_chunks(pool, out.size(), [&](std::size_t chunk, std::size_t) {\n"
         "    tradefl::Rng stream(tradefl::Rng::derive_stream_seed(seed, chunk));\n"
         "    out[chunk] = stream.uniform01();\n"
         "  });\n"
         "}\n"}},
       {},
       {},
       {"parallel-rng"}},
      {"rng-stream-factory-ok",
       {{"fix/rng_neg2.cpp",
         "void g(tradefl::ThreadPool* pool, FaultPlan* faults, std::vector<double>& vals,\n"
         "       std::size_t round) {\n"
         "  run_chunks(pool, vals.size(), [&](std::size_t chunk, std::size_t) {\n"
         "    tradefl::Rng noise = faults->corruption_rng(round, chunk);\n"
         "    vals[chunk] = noise.normal(0.0, 1.0);\n"
         "  });\n"
         "}\n"}},
       {},
       {},
       {"parallel-rng"}},
      // ----- unordered-hash-iter ---------------------------------------------
      {"unordered-feeds-writer",
       {{"fix/unordered_pos1.cpp",
         "std::unordered_map<std::string, std::uint64_t> g_balances;\n"
         "void tally(std::uint64_t& h) {\n"
         "  for (const auto& entry : g_balances) {\n"
         "    hash_combine(h, entry.second);\n"
         "  }\n"
         "}\n"}},
       {},
       {"unordered-hash-iter"},
       {}},
      {"unordered-feeds-sha256",
       {{"fix/unordered_pos2.cpp",
         "std::unordered_set<std::string> g_members;\n"
         "Hash256 membership_root() {\n"
         "  Bytes all;\n"
         "  for (const std::string& member : g_members) append(all, sha256(member));\n"
         "  return sha256(all);\n"
         "}\n"}},
       {},
       {"unordered-hash-iter"},
       {}},
      {"ordered-map-serialization-ok",
       {{"fix/unordered_neg1.cpp",
         "std::map<std::string, std::uint64_t> g_ledger;\n"
         "void write_ledger(SnapshotWriter& writer) {\n"
         "  writer.put_u64(g_ledger.size());\n"
         "  for (const auto& entry : g_ledger) {\n"
         "    writer.put_string(entry.first);\n"
         "    writer.put_u64(entry.second);\n"
         "  }\n"
         "}\n"
         "void read_ledger(SnapshotReader& reader) {\n"
         "  g_ledger.clear();\n"
         "  const std::uint64_t n = reader.get_u64();\n"
         "  for (std::uint64_t i = 0; i < n; ++i) {\n"
         "    const std::string key = reader.get_string();\n"
         "    g_ledger[key] = reader.get_u64();\n"
         "  }\n"
         "}\n"}},
       {},
       {},
       {"unordered-hash-iter"}},
      {"unordered-plain-accumulation-ok",
       {{"fix/unordered_neg2.cpp",
         "std::unordered_map<int, int> g_counts;\n"
         "int total() {\n"
         "  int sum = 0;\n"
         "  for (const auto& kv : g_counts) sum += kv.second;\n"
         "  return sum;\n"
         "}\n"}},
       {},
       {},
       {"unordered-hash-iter"}},
      // ----- obs-vocab / obs-orphan ------------------------------------------
      {"vocab-unknown-name",
       {{"fix/vocab_pos1.cpp",
         "void f() {\n"
         "  TFL_COUNTER_INC(\"fl.rounds\");\n"
         "  TFL_SPAN(\"fl.round\");\n"
         "}\n"}},
       {"fl.round"},
       {"obs-vocab"},
       {}},
      {"vocab-dynamic-needs-wildcard",
       {{"fix/vocab_pos2.cpp",
         "void call(const std::string& method) {\n"
         "  TFL_SPAN(\"contract.\" + method);\n"
         "  TFL_COUNTER_INC(\"contract.calls\");\n"
         "}\n"}},
       {"contract.calls"},
       {"obs-vocab"},
       {}},
      {"vocab-exact-and-wildcard-ok",
       {{"fix/vocab_neg1.cpp",
         "void call(const std::string& method) {\n"
         "  TFL_COUNTER_INC(\"fl.round\");\n"
         "  TFL_SPAN(\"contract.\" + method);\n"
         "}\n"}},
       {"fl.round", "contract.*"},
       {},
       {"obs-vocab", "obs-orphan"}},
      {"vocab-non-literal-skipped",
       {{"fix/vocab_neg2.cpp",
         "void f(const char* dynamic_name, double depth) {\n"
         "  TFL_GAUGE_SET(dynamic_name, depth);\n"
         "  TFL_GAUGE_SET(\"queue.depth\", depth);\n"
         "}\n"}},
       {"queue.depth"},
       {},
       {"obs-vocab", "obs-orphan"}},
      {"vocab-orphan-entry",
       {{"fix/orphan_pos1.cpp",
         "void f() { TFL_COUNTER_INC(\"fl.round\"); }\n"}},
       {"fl.round", "solver.retired"},
       {"obs-orphan"},
       {}},
      {"vocab-orphan-wildcard",
       {{"fix/orphan_pos2.cpp",
         "void f() { TFL_SPAN(\"session.run\"); }\n"}},
       {"session.run", "contract.*"},
       {"obs-orphan"},
       {}},
      // ----- lexer corners exercised through the rules -----------------------
      {"lexer-raw-string-and-splice-ok",
       {{"fix/lexer_neg1.cpp",
         "const char* kDoc = R\"x(run_chunks(pool, 8, [&](std::size_t c, std::size_t) {\n"
         "  total += c; }); also \"quoted\" rand() )x\";\n"
         "#define WIDE_MACRO(x) do { \\\n"
         "  TFL_COUNTER_INC(\"not.checked.in.directives\"); \\\n"
         "} while (false)\n"
         "void f() { TFL_SPAN(\"fl.round\"); }\n"}},
       {"fl.round"},
       {},
       {"parallel-capture", "obs-vocab"}},
      {"lexer-raw-string-then-code",
       {{"fix/lexer_pos1.cpp",
         "void f(tradefl::ThreadPool* pool, const char** out, double& acc) {\n"
         "  *out = R\"(text with \"quotes\" inside)\"; run_chunks(pool, 4,\n"
         "      [&](std::size_t chunk, std::size_t) { acc += chunk; });\n"
         "}\n"}},
       {},
       {"parallel-capture"},
       {}},
  };
  return kFixtures;
}

int run_self_test() {
  int failures = 0;
  std::map<std::string, int> positives;
  std::map<std::string, int> negatives;
  for (const Fixture& fixture : fixtures()) {
    Options options;
    options.vocab_lines = fixture.vocab;
    options.vocab_path = "fix/vocab.txt";
    const Analysis analysis = tfl_analyze::analyze(fixture.files, options);
    std::vector<std::string> got;
    for (const Finding& finding : analysis.findings) got.push_back(finding.rule);
    std::vector<std::string> want = fixture.expected;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      std::cerr << "self-test FAIL: " << fixture.name << ": expected [";
      for (const std::string& rule : want) std::cerr << " " << rule;
      std::cerr << " ] got [";
      for (const Finding& finding : analysis.findings) {
        std::cerr << " " << finding.rule << "(" << finding.path << ":" << finding.line << ")";
      }
      std::cerr << " ]\n";
      ++failures;
    }
    for (const std::string& rule : fixture.expected) ++positives[rule];
    for (const std::string& rule : fixture.exercises) ++negatives[rule];
  }
  // The acceptance bar: every semantic rule proven by at least two positive
  // and two negative fixtures.
  for (const tfl_tools::RuleInfo& rule : tfl_analyze::rule_catalog()) {
    if (positives[rule.id] < 2 || negatives[rule.id] < 2) {
      std::cerr << "self-test FAIL: rule " << rule.id << " has " << positives[rule.id]
                << " positive / " << negatives[rule.id] << " negative fixtures (need >= 2/2)\n";
      ++failures;
    }
  }
  if (failures == 0) {
    std::cout << "tfl-analyze self-test: all " << fixtures().size() << " fixtures behaved (";
    bool first = true;
    for (const tfl_tools::RuleInfo& rule : tfl_analyze::rule_catalog()) {
      std::cout << (first ? "" : ", ") << rule.id << " " << positives[rule.id] << "+/"
                << negatives[rule.id] << "-";
      first = false;
    }
    std::cout << ")\n";
    return 0;
  }
  std::cerr << "tfl-analyze self-test: " << failures << " failure(s)\n";
  return 1;
}

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

void print_text(const std::vector<Finding>& findings, std::size_t files_scanned,
                std::size_t suppressed) {
  std::map<std::string, std::size_t> per_rule;
  for (const Finding& finding : findings) {
    std::cout << finding.path << ":" << finding.line << ": [" << finding.rule << "] "
              << finding.message << "\n";
    ++per_rule[finding.rule];
  }
  std::cout << "tfl-analyze: " << files_scanned << " files, " << findings.size()
            << " finding(s)";
  if (suppressed > 0) std::cout << ", " << suppressed << " baselined";
  std::cout << "\n";
  // Per-rule counts keep the CI gate's output diffable.
  for (const tfl_tools::RuleInfo& rule : tfl_analyze::rule_catalog()) {
    const auto it = per_rule.find(rule.id);
    std::cout << "  " << rule.id << ": " << (it == per_rule.end() ? 0 : it->second) << "\n";
  }
}

void print_json(const std::vector<Finding>& findings, std::size_t files_scanned,
                std::size_t suppressed) {
  using tfl_tools::json_escape;
  std::cout << "{\n  \"files\": " << files_scanned << ",\n  \"suppressed\": " << suppressed
            << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::cout << (i == 0 ? "" : ",") << "\n    {\"path\": \"" << json_escape(f.path)
              << "\", \"line\": " << f.line << ", \"rule\": \"" << json_escape(f.rule)
              << "\", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  std::cout << (findings.empty() ? "" : "\n  ") << "]\n}\n";
}

void print_sarif(const std::vector<Finding>& findings) {
  using tfl_tools::json_escape;
  std::cout << "{\n"
            << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
            << "  \"version\": \"2.1.0\",\n"
            << "  \"runs\": [{\n"
            << "    \"tool\": {\"driver\": {\"name\": \"tfl-analyze\", \"rules\": [";
  const auto& rules = tfl_analyze::rule_catalog();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << "\n      {\"id\": \"" << json_escape(rules[i].id)
              << "\", \"shortDescription\": {\"text\": \"" << json_escape(rules[i].summary)
              << "\"}}";
  }
  std::cout << "\n    ]}},\n    \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::cout << (i == 0 ? "" : ",") << "\n      {\"ruleId\": \"" << json_escape(f.rule)
              << "\", \"level\": \"error\", \"message\": {\"text\": \""
              << json_escape(f.message) << "\"}, \"locations\": [{\"physicalLocation\": "
              << "{\"artifactLocation\": {\"uri\": \"" << json_escape(f.path)
              << "\"}, \"region\": {\"startLine\": " << f.line << "}}}]}";
  }
  std::cout << (findings.empty() ? "" : "\n    ") << "]\n  }]\n}\n";
}

void list_rules() { std::cout << tfl_tools::format_rule_table(tfl_analyze::rule_catalog()); }

int usage() {
  std::cerr << "usage: tfl-analyze [--baseline FILE] [--vocab FILE] "
               "[--format text|json|sarif] [--list-rules] PATH...\n"
            << "       tfl-analyze --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string baseline_file;
  std::string vocab_file;
  std::string format = "text";
  bool self_test = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--list-rules") {
      list_rules();
      return 0;
    } else if (arg == "--baseline" || arg == "--vocab" || arg == "--format") {
      if (i + 1 >= argc) {
        std::cerr << "tfl-analyze: " << arg << " needs an argument\n";
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--baseline") baseline_file = value;
      if (arg == "--vocab") vocab_file = value;
      if (arg == "--format") format = value;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "tfl-analyze: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (self_test) return run_self_test();
  if (roots.empty()) return usage();
  if (format != "text" && format != "json" && format != "sarif") {
    std::cerr << "tfl-analyze: unknown format " << format << "\n";
    return 2;
  }

  std::vector<tfl_tools::AllowEntry> baseline;
  if (!baseline_file.empty()) {
    tfl_tools::AllowParse parsed;
    std::string error;
    if (!tfl_tools::load_allow_file(baseline_file, known_rule_ids(),
                                    /*require_justification=*/true, parsed, error)) {
      std::cerr << "tfl-analyze: " << error << "\n";
      return 2;
    }
    for (const std::string& warning : parsed.warnings) {
      std::cerr << "tfl-analyze: baseline " << baseline_file << ": " << warning << "\n";
    }
    if (!parsed.errors.empty()) {
      for (const std::string& err : parsed.errors) {
        std::cerr << "tfl-analyze: baseline " << baseline_file << ": " << err << "\n";
      }
      return 2;
    }
    baseline = parsed.entries;
  }

  Options options;
  options.vocab_path = vocab_file;
  if (!vocab_file.empty()) {
    std::string content;
    if (!tfl_tools::read_file(vocab_file, content)) {
      std::cerr << "tfl-analyze: cannot open vocab file " << vocab_file << "\n";
      return 2;
    }
    options.vocab_lines = tfl_tools::split_lines(content);
  }

  std::vector<std::filesystem::path> paths;
  std::string walk_error;
  if (!tfl_tools::collect_files(roots, paths, walk_error)) {
    std::cerr << "tfl-analyze: " << walk_error << "\n";
    return 2;
  }
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::filesystem::path& path : paths) {
    std::string content;
    if (!tfl_tools::read_file(path, content)) {
      std::cerr << "tfl-analyze: cannot read " << tfl_tools::normalize_path(path) << "\n";
      return 2;
    }
    files.push_back({tfl_tools::normalize_path(path), std::move(content)});
  }

  const Analysis analysis = tfl_analyze::analyze(files, options);

  std::vector<Finding> reported;
  std::size_t suppressed = 0;
  for (const Finding& finding : analysis.findings) {
    if (tfl_tools::allowed(finding, baseline)) {
      ++suppressed;
    } else {
      reported.push_back(finding);
    }
  }
  if (format == "json") {
    print_json(reported, files.size(), suppressed);
  } else if (format == "sarif") {
    print_sarif(reported);
  } else {
    print_text(reported, files.size(), suppressed);
  }
  return reported.empty() ? 0 : 1;
}
